package main

import (
	"flag"
	"slices"
	"strconv"
	"strings"
	"testing"
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
