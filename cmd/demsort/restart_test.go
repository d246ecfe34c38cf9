package main

// Acceptance tests for the checkpoint/restart plane: a worker killed
// after run formation, a launcher that re-admits the fleet at the next
// epoch, and a resumed sort that never re-reads a byte of input.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRestartResumesWithoutReread is the issue's acceptance scenario:
// inject rank=2,action=die after run formation on a 4-worker
// file-backed tcp fleet with -restart=1. The launcher must re-admit
// the workers at the next job epoch, resume from the manifests, and
// produce output byte-identical to an unfaulted sim run — with every
// resumed worker reporting ZERO input bytes read.
func TestRestartResumesWithoutReread(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	simDir := filepath.Join(tmp, "sim")
	tcpDir := filepath.Join(tmp, "tcp")

	runDemsort := func(args string) string {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), "DEMSORT_ARGS="+args)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("demsort %s: %v\n%s", args, err, out)
		}
		return string(out)
	}

	simOut := runDemsort("-workload=records -p 4 -n 2000 -seed 55 -outdir " + simDir)
	tcpOut := runDemsort("-transport=tcp -p 4 -n 2000 -seed 55 -store=file -restart=1" +
		" -fault rank=2,action=die,op=AllToAllv,phase=all-to-all -outdir " + tcpDir)
	for _, out := range []string{simOut, tcpOut} {
		if !strings.Contains(out, "validation: OK") {
			t.Fatalf("run did not validate:\n%s", out)
		}
	}
	if !strings.Contains(tcpOut, "worker 2") {
		t.Fatalf("injected death did not fire:\n%s", tcpOut)
	}
	if !strings.Contains(tcpOut, "re-admitting workers at job epoch 1 (resuming from last committed phase)") {
		t.Fatalf("launcher did not re-admit the fleet via resume:\n%s", tcpOut)
	}
	// Zero re-read: every rank of the resumed incarnation reports it
	// pulled nothing from its input source (the crashed incarnation's
	// ranks never reach this print).
	for rank := 0; rank < 4; rank++ {
		if !strings.Contains(tcpOut, fmt.Sprintf("rank %d: read 0 input bytes", rank)) {
			t.Fatalf("rank %d re-read input on resume:\n%s", rank, tcpOut)
		}
	}
	for rank := 0; rank < 4; rank++ {
		name := fmt.Sprintf("part-%03d", rank)
		simPart, err := os.ReadFile(filepath.Join(simDir, name))
		if err != nil {
			t.Fatal(err)
		}
		tcpPart, err := os.ReadFile(filepath.Join(tcpDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(simPart) != string(tcpPart) {
			t.Fatalf("%s differs between the unfaulted sim run and the restarted tcp run", name)
		}
	}
}

// A RAM-backed fleet has nothing durable to resume from: -restart must
// fall back to a from-scratch rerun at the next epoch and still
// validate clean.
func TestRestartFromScratchRAM(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	outdir := filepath.Join(t.TempDir(), "out")
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		"DEMSORT_ARGS=-transport=tcp -p 4 -n 1200 -seed 7 -restart=1"+
			" -fault rank=1,action=die,op=AllToAllv,phase=all-to-all -outdir "+outdir)
	out, runErr := cmd.CombinedOutput()
	if runErr != nil {
		t.Fatalf("launcher did not survive the restart: %v\n%s", runErr, out)
	}
	text := string(out)
	if !strings.Contains(text, "restarting job from scratch at job epoch 1") {
		t.Fatalf("RAM fleet did not restart from scratch:\n%s", text)
	}
	if !strings.Contains(text, "validation: OK") {
		t.Fatalf("restarted run did not validate:\n%s", text)
	}
}

// The striped sorter has no checkpoint plane; asking for one must be
// an upfront, actionable error — not a run that quietly cannot resume.
func TestDurableStripedRejected(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		"DEMSORT_ARGS=-striped -durable -transport=tcp -store=file -p 2 -n 500 -outdir "+
			filepath.Join(t.TempDir(), "out"))
	out, runErr := cmd.CombinedOutput()
	if runErr == nil {
		t.Fatalf("-durable -striped was accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "striped") {
		t.Fatalf("rejection does not name the conflict:\n%s", out)
	}
}
