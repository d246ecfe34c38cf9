package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"demsort/internal/elem"
	"demsort/internal/sortbench"
)

func TestMain(m *testing.M) {
	if args := os.Getenv("GENSORT_ARGS"); args != "" {
		os.Args = append(os.Args[:1], strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// write produces exactly Generate's (or Skewed's) bytes at any worker
// count, for counts around the chunk size: empty, one record, a chunk
// short by one, a chunk and one, and many chunks with a short tail.
func TestWriteMatchesGenerate(t *testing.T) {
	const seed, start = 2026, 777
	for _, count := range []int64{0, 1, chunk - 1, chunk + 1, 200001} {
		want := elem.EncodeSlice(elem.Rec100Codec{}, sortbench.Generate(seed, start, count))
		for _, workers := range []int{1, 2, 3, 8} {
			var got bytes.Buffer
			if err := write(&got, seed, start, count, 0, workers); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("count %d, %d workers: %d bytes differ from Generate's %d", count, workers, got.Len(), len(want))
			}
		}
	}
	want := elem.EncodeSlice(elem.Rec100Codec{}, sortbench.Skewed(seed, start, chunk+1, 7))
	for _, workers := range []int{1, 3} {
		var got bytes.Buffer
		if err := write(&got, seed, start, chunk+1, 7, workers); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("skew 7, %d workers: bytes differ from Skewed's", workers)
		}
	}
}

// Values that would corrupt the record format are usage errors (exit 2)
// refused before the output file exists; valid ones write the file.
func TestFlagRanges(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for i, c := range []struct {
		args string
		code int
	}{
		{"-start -1 10", 2},
		{"-start 9223372036854775800 10", 2},
		{"-skew 11 10", 2},
		{"-skew -1 10", 2},
		{"-- -5", 2},
		{"-start 9223372036854775797 10", 0},
		{"-skew 10 10", 0},
		{"10", 0},
	} {
		out := filepath.Join(dir, fmt.Sprint(i))
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), "GENSORT_ARGS="+c.args+" "+out)
		err := cmd.Run()
		code := 0
		if ee := (*exec.ExitError)(nil); errors.As(err, &ee) {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		_, statErr := os.Stat(out)
		if code != c.code || (statErr == nil) != (c.code == 0) {
			t.Errorf("gensort %s: exit %d, file exists %v; want exit %d", c.args, code, statErr == nil, c.code)
		}
	}
}
