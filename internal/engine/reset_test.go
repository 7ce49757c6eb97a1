package engine

import (
	"fmt"
	"testing"

	"secpb/internal/config"
	"secpb/internal/workload"
)

// TestResetMatchesNew is the differential pin for Engine.Reset: over the
// scheme × knob × zoo matrix of TestKernelMatchesGeneric, one engine is
// dirtied by part of a different cell — another scheme, another
// workload, a crash sink still installed, every other cell another key
// and every third cell another L2 geometry — then reset onto the cell, and its replay
// must match a fresh New's exactly: Result, functional memory image,
// occupancy and the whole crash-point sequence (with a sink), and the
// same on the staged, sink-free path.
func TestResetMatchesNew(t *testing.T) {
	type cell struct {
		cfg  config.Config
		prof workload.Profile
		ops  int
		name string
	}
	var cells []cell
	for _, scheme := range config.AllSchemes() {
		for _, v := range knobVariants {
			cfg := v.mut(config.Default().WithScheme(scheme))
			for _, p := range []string{"mcf", "gamess"} {
				cells = append(cells, cell{cfg, mustProfile(t, p), 2000, fmt.Sprintf("%v/%s/%s", scheme, v.name, p)})
			}
		}
		for _, p := range workload.ZooProfiles() {
			cells = append(cells, cell{config.Default().WithScheme(scheme), p, 1500, fmt.Sprintf("%v/zoo/%s", scheme, p.Name)})
		}
	}
	key := []byte("secpb-experiment-key")
	var eng *Engine
	kept := 0 // resets that kept the controller's crypto engine
	for i, c := range cells {
		if err := c.cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ops, err := workload.Generate(c.prof, c.cfg.Seed, c.ops)
		if err != nil {
			t.Fatal(err)
		}
		// The previous cell: the first from half the matrix away on
		// with another scheme and another workload.
		j := (i + len(cells)/2) % len(cells)
		for cells[j].cfg.Scheme == c.cfg.Scheme || cells[j].prof.Name == c.prof.Name {
			j = (j + 1) % len(cells)
		}
		prev := cells[j]
		if i%3 == 0 {
			prev.cfg.L2.SizeBytes /= 2
		}
		prevKey := key
		if i%2 == 1 {
			prevKey = []byte("previous-cell-key")
		}
		prevOps, err := workload.Generate(prev.prof, prev.cfg.Seed+1, prev.ops)
		if err != nil {
			t.Fatal(err)
		}
		for _, sink := range []bool{true, false} {
			label := fmt.Sprintf("%s after %s (sink %v)", c.name, prev.name, sink)
			if eng == nil {
				if eng, err = New(prev.cfg, prev.prof, prevKey); err != nil {
					t.Fatal(err)
				}
			} else if err := eng.Reset(prev.cfg, prev.prof, prevKey); err != nil {
				t.Fatal(err)
			}
			eng.SetCrashSink(&recSink{e: eng})
			for _, op := range prevOps[:len(prevOps)/2] {
				if err := eng.Step(op); err != nil {
					t.Fatalf("%s: dirtying step: %v", label, err)
				}
			}
			crypt := eng.Controller().Engine()
			if err := eng.Reset(c.cfg, c.prof, key); err != nil {
				t.Fatalf("%s: Reset: %v", label, err)
			}
			if crypt != nil && crypt == eng.Controller().Engine() {
				kept++
			}
			want := runOn(t, c.cfg, c.prof, ops, pathBatch, sink)
			if want.err != "" {
				t.Fatalf("%s: fresh engine: %s", label, want.err)
			}
			if sink && len(want.crashes) == 0 {
				t.Fatalf("%s: fresh engine fired no crash points", label)
			}
			diffOutcomes(t, label, replayOn(eng, ops, pathBatch, sink), want)
		}
	}
	if kept == 0 {
		t.Error("no Reset kept its controller in place; the in-place path went untested")
	}
	t.Logf("%d of %d resets kept the controller in place", kept, 2*len(cells))
}

// TestResetRefusesInvalidConfig: Reset validates like New and leaves the
// engine usable when it refuses.
func TestResetRefusesInvalidConfig(t *testing.T) {
	prof := mustProfile(t, "gcc")
	cfg := config.Default()
	eng, err := New(cfg, prof, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.SecPBEntries = 0
	if err := eng.Reset(bad, prof, []byte("k")); err == nil {
		t.Fatal("Reset accepted an invalid config")
	}
	if eng.Config() != cfg {
		t.Fatal("a refused Reset changed the engine's config")
	}
}
