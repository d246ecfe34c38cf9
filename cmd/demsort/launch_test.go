package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"demsort/internal/elem"
	"demsort/internal/sortbench"
)

// TestLauncherForwardsEveryFlagOnce walks the flag set itself, so a flag
// added to parseOptions is covered without touching this test: set on
// the launcher's command line, a flag reaches a worker's argv exactly
// once and parses back to the same value there — unless it is one of the
// launcher's own, which never travel (-rank and -peers are set per
// worker instead).
func TestLauncherForwardsEveryFlagOnce(t *testing.T) {
	peers := []string{"a:1", "b:2", "c:3"}
	parseOptions(nil).fs.VisitAll(func(f *flag.Flag) {
		t.Run(f.Name, func(t *testing.T) {
			// A value the flag's type accepts that is not its default.
			val := "x"
			if _, err := strconv.Atoi(f.DefValue); err == nil {
				val = "7"
			} else if b, err := strconv.ParseBool(f.DefValue); err == nil {
				val = strconv.FormatBool(!b)
			}
			argv := parseOptions([]string{"-" + f.Name + "=" + val}).forward(2, peers)

			want, times := val, 1
			switch {
			case f.Name == "rank":
				want = "2"
			case f.Name == "peers":
				want = "a:1,b:2,c:3"
			case launcherOnly[f.Name]:
				want, times = f.DefValue, 0
			}
			n := 0
			for _, a := range argv {
				if strings.HasPrefix(a, "-"+f.Name+"=") {
					n++
				}
			}
			if n != times {
				t.Fatalf("-%s=%s appears %d times in the worker argv %v, want %d", f.Name, val, n, argv, times)
			}
			if got := parseOptions(argv).fs.Lookup(f.Name).Value.String(); got != want {
				t.Fatalf("worker parses -%s as %q from %v, want %q", f.Name, got, argv, want)
			}
		})
	})

	// What the launcher decides after parsing travels the same way.
	o := parseOptions([]string{"-transport=tcp", "-store=file", "-fault=rank=1,action=die"})
	o.outdir, o.durable, o.resume, o.epoch, o.fault = "out", true, true, 3, ""
	got := o.forward(0, peers[:1])
	want := []string{"-rank=0", "-peers=a:1", "-durable=true", "-epoch=3", "-outdir=out", "-resume=true", "-store=file", "-transport=tcp"}
	if !slices.Equal(got, want) {
		t.Fatalf("forwarded argv %v, want %v", got, want)
	}
}

// TestLauncherRefusesBeforeSpawning: a job the plan refuses, an -infile
// too short for its tiles or an unknown -workload is refused by the
// launcher itself — once, promptly, with exit 1 — and no fleet is
// spawned, so -restart has nothing to re-drive.
func TestLauncherRefusesBeforeSpawning(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	short := filepath.Join(t.TempDir(), "short.gen") // 10 records
	if err := os.WriteFile(short, elem.EncodeSlice(elem.Rec100Codec{}, sortbench.Generate(1, 0, 10)), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ args, refusal string }{
		{"-transport=tcp -p 4 -block 1048576 -mem 100000 -restart 2", "merge buffers"},
		{"-transport=tcp -striped -p 4 -n 131072 -mem 12000 -restart 1", "no merge batch fits"},
		{"-transport=tcp -p 4 -n 5 -restart 1 -infile " + short, "holds 1000 bytes; -p 4 ranks of -n 5 records need 2000"},
		{"-transport=tcp -p 4 -restart 1 -workload bogus", `unknown workload "bogus" (want one of records, uniform,`},
	} {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), "DEMSORT_ARGS="+tc.args+" -outdir "+filepath.Join(t.TempDir(), "out"))
		start := time.Now()
		out, err := cmd.CombinedOutput()
		elapsed := time.Since(start)
		text := string(out)
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 1 {
			t.Fatalf("%s: %v, want exit 1:\n%s", tc.args, err, text)
		}
		if n := strings.Count(text, tc.refusal); n != 1 || strings.Contains(text, "launching") ||
			strings.Contains(text, "restarting") || strings.Contains(text, "re-admitting") {
			t.Fatalf("%s: %d refusals, want one and no fleet:\n%s", tc.args, n, text)
		}
		if elapsed > 2*time.Second {
			t.Fatalf("%s: refused after %v, want under 2s", tc.args, elapsed)
		}
	}
}

// TestRemoteSpawnPath drives the launcher's ssh spawn path. 127.0.0.2
// is loopback to the kernel but not by name, so its hostfile line is
// placed remote and spawned through -ssh: here a stub that drops ssh's
// options and host and runs the worker binary in place. The launcher
// validates a remote fleet from its workers' digest lines, as it does a
// local one; the test also valsorts the parts itself and compares them
// with a sim run.
func TestRemoteSpawnPath(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	stub := filepath.Join(tmp, "ssh")
	script := "#!/bin/sh\n# ssh -o BatchMode=yes -tt HOST EXE ARGS...\nshift 4\nexe=$1\nshift\nDEMSORT_ARGS=\"$*\" exec \"$exe\"\n"
	if err := os.WriteFile(stub, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	hf := filepath.Join(tmp, "hosts")
	if err := os.WriteFile(hf, []byte(fmt.Sprintf("127.0.0.2:%d slots=2\n", portPair(t, "127.0.0.2"))), 0o644); err != nil {
		t.Fatal(err)
	}
	const n = 20000 // R = 10 runs at the default -mem
	simDir, tcpDir := filepath.Join(tmp, "sim"), filepath.Join(tmp, "tcp")
	for args, want := range map[string]string{
		fmt.Sprintf("-workload=records -p 2 -n %d -seed 37 -outdir %s", n, simDir):                        "validation: OK",
		fmt.Sprintf("-transport=tcp -hostfile %s -ssh %s -n %d -seed 37 -outdir %s", hf, stub, n, tcpDir): "validation: OK",
	} {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), "DEMSORT_ARGS="+args)
		out, err := cmd.CombinedOutput()
		if err != nil || !strings.Contains(string(out), want) {
			t.Fatalf("demsort %s: %v, want %q in:\n%s", args, err, want, out)
		}
	}
	var sums []sortbench.Summary
	for rank := 0; rank < 2; rank++ {
		name := fmt.Sprintf("part-%03d", rank)
		part, err := os.ReadFile(filepath.Join(tcpDir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(simDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(part, want) {
			t.Fatalf("%s differs between sim and the ssh-spawned fleet", name)
		}
		s, err := sortbench.SummarizeReader(bytes.NewReader(part))
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, s)
	}
	if got := sortbench.Merge(sums); got.Unsorted != 0 || got.Records != 2*n {
		t.Fatalf("valsort of the parts: %d records, %d unsorted; want %d, 0", got.Records, got.Unsorted, 2*n)
	}
}

// portPair returns a port p on host with p and p+1 both free, for a
// hostfile line whose two slots listen on them.
func portPair(t *testing.T, host string) int {
	t.Helper()
	for try := 0; try < 20; try++ {
		a, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
		if err != nil {
			t.Fatal(err)
		}
		port := a.Addr().(*net.TCPAddr).Port
		b, err := net.Listen("tcp", net.JoinHostPort(host, strconv.Itoa(port+1)))
		a.Close()
		if err == nil {
			b.Close()
			return port
		}
	}
	t.Fatalf("no two consecutive free ports on %s", host)
	return 0
}

// TestMergeDigests: the launcher validates a fleet from its workers'
// digest lines alone. A line whose partition had one byte corrupted or
// one record dropped turns the verdict to FAILED; a missing, malformed
// or misplaced line is an error naming the rank. A remote worker's line,
// which ssh -tt's terminal ends in \r\n, is kept without its line end.
func TestMergeDigests(t *testing.T) {
	const p, n = 4, 300
	recs := sortbench.Generate(11, 0, p*n)
	sorted := slices.Clone(recs)
	slices.SortFunc(sorted, func(a, b elem.Rec100) int { return bytes.Compare(a[:10], b[:10]) })
	fleet := func(edit func(rank int, part []elem.Rec100) []elem.Rec100) []string {
		var lines []string
		for rank := 0; rank < p; rank++ {
			part := slices.Clone(sorted[rank*n : (rank+1)*n])
			if edit != nil {
				part = edit(rank, part)
			}
			lines = append(lines, digestLine(rank, sortbench.Validate(recs[rank*n:(rank+1)*n]), "sort", sortbench.Validate(part)))
		}
		return lines
	}
	good := fleet(nil)
	if got, want, err := mergeDigests(good); err != nil || !recordsOK(got, want) || got.Records != p*n {
		t.Fatalf("the correct fleet: %+v against %+v, %v; want OK with %d records", got, want, err, p*n)
	}

	for name, edit := range map[string]func(int, []elem.Rec100) []elem.Rec100{
		"flipped byte": func(rank int, part []elem.Rec100) []elem.Rec100 {
			if rank == 2 {
				part[7][50] ^= 1
			}
			return part
		},
		"dropped record": func(rank int, part []elem.Rec100) []elem.Rec100 {
			if rank == 1 {
				return part[1:]
			}
			return part
		},
	} {
		if got, want, err := mergeDigests(fleet(edit)); err != nil || recordsOK(got, want) {
			t.Fatalf("%s: %+v against %+v, %v; want a FAILED verdict", name, got, want, err)
		}
	}

	for _, tc := range []struct {
		edit func(lines []string)
		want string
	}{
		{func(l []string) { l[3] = "" }, "rank 3: no digest line"},
		{func(l []string) { l[1] = l[1][:len(l[1])/2] }, "rank 1: no digest line"},
		{func(l []string) { l[2] = strings.Replace(l[2], "out-first=\"", "out-first=", 1) }, "rank 2: no digest line"},
		{func(l []string) { l[0], l[1] = l[1], l[0] }, "rank 0: no digest line"},
	} {
		lines := slices.Clone(good)
		tc.edit(lines)
		if _, _, err := mergeDigests(lines); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("want an error with %q, got %v", tc.want, err)
		}
	}

	var log bytes.Buffer
	pw := &prefixWriter{w: &log, prefix: "[w0] "}
	line := good[0] + "\r\n"
	pw.Write([]byte("rank 0: read 0 input bytes\r\n" + line[:20]))
	pw.Write([]byte(line[20:]))
	if pw.digest != good[0] || !strings.Contains(log.String(), "[w0] "+line) {
		t.Fatalf("captured digest %q from the log %q, want %q", pw.digest, log.String(), good[0])
	}
}
