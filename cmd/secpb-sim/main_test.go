package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"secpb/internal/trace"
	"secpb/internal/workload"
)

// writeTrace records ops to path in the given encoding.
func writeTrace(t *testing.T, path string, ops []trace.Op, spb2 bool) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var w interface {
		Write(trace.Op) error
		Flush() error
	}
	if spb2 {
		w = trace.NewSegWriter(f, 256)
	} else {
		w = trace.NewWriter(f)
	}
	for _, op := range ops {
		if err := w.Write(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestTraceEncodingsMatch: the SPB1 and SPB2 encodings of the same ops
// must simulate to identical output, and so must the live generator
// that produced them.
func TestTraceEncodingsMatch(t *testing.T) {
	const ops, seed = 3000, 77
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	recorded, err := workload.Generate(prof, seed, ops)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	spb1, spb2 := filepath.Join(dir, "t.spb"), filepath.Join(dir, "t.spb2")
	writeTrace(t, spb1, recorded, false)
	writeTrace(t, spb2, recorded, true)

	var outs []string
	for _, args := range [][]string{
		{"-trace", spb1, "-scheme", "cobcm"},
		{"-trace", spb2, "-scheme", "cobcm"},
		{"-bench", "gcc", "-ops", "3000", "-seed", "77", "-scheme", "cobcm"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		outs = append(outs, out.String())
	}
	if !strings.Contains(outs[0], "instructions") {
		t.Fatalf("no report printed:\n%s", outs[0])
	}
	if outs[1] != outs[0] {
		t.Errorf("SPB2 replay differs from SPB1 replay:\nspb2:\n%s\nspb1:\n%s", outs[1], outs[0])
	}
	if outs[2] != outs[0] {
		t.Errorf("live generation differs from the recorded replay:\nlive:\n%s\nreplay:\n%s", outs[2], outs[0])
	}
}

// TestRunErrors: a bad command line is a usage error (exit status 2);
// a missing or corrupt trace is a failed run (exit status 1).
func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	junk := filepath.Join(dir, "junk.spb2")
	if err := os.WriteFile(junk, []byte("not a trace at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args  []string
		usage bool
	}{
		{[]string{"-scheme", "nosuch"}, true},
		{[]string{"-bench", "nosuch"}, true},
		{[]string{"-nosuchflag"}, true},
		{[]string{"-trace", filepath.Join(dir, "missing.spb2")}, false},
		{[]string{"-trace", junk}, false},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil {
			t.Errorf("%v: accepted", tc.args)
			continue
		}
		var u usageError
		if got := errors.As(err, &u); got != tc.usage {
			t.Errorf("%v: usage error = %v, want %v (%v)", tc.args, got, tc.usage, err)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed a report despite failing", tc.args)
		}
	}
}
