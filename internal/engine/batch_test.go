package engine

import (
	"testing"

	"secpb/internal/config"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

// TestRunBatchMatchesScalarRun replays the same generated stream
// through a per-op Step loop and through RunBatch on the generator and
// requires identical results, BMT root and PM footprint — the batched
// replay is a pure dispatch optimization, invisible to the simulation.
func TestRunBatchMatchesScalarRun(t *testing.T) {
	for _, scheme := range []config.Scheme{config.SchemeBBB, config.SchemeCOBCM, config.SchemeNoGap} {
		cfg := config.Default().WithScheme(scheme)
		prof := mustProfile(t, "povray")

		ops, err := workload.Generate(prof, cfg.Seed, 20000)
		if err != nil {
			t.Fatal(err)
		}
		scalar, err := New(cfg, prof, []byte("k"))
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if err := scalar.Step(op); err != nil {
				t.Fatal(err)
			}
		}
		if err := scalar.Finish(); err != nil {
			t.Fatal(err)
		}

		gen, err := workload.NewGenerator(prof, cfg.Seed, 20000)
		if err != nil {
			t.Fatal(err)
		}
		batched, err := New(cfg, prof, []byte("k"))
		if err != nil {
			t.Fatal(err)
		}
		if err := batched.RunBatch(gen); err != nil {
			t.Fatal(err)
		}

		a, b := scalar.Collect(), batched.Collect()
		if a != b {
			t.Errorf("%v: scalar result %+v != batched %+v", scheme, a, b)
		}
		if st := scalar.Controller().Tree(); st != nil {
			if sr, br := st.Root(), batched.Controller().Tree().Root(); sr != br {
				t.Errorf("%v: BMT root diverged between scalar and batched replay", scheme)
			}
		}
		if sp, bp := scalar.Controller().PM().Len(), batched.Controller().PM().Len(); sp != bp {
			t.Errorf("%v: PM block count %d scalar vs %d batched", scheme, sp, bp)
		}
	}
}

// TestRunBatchValidates ensures batched replay still rejects invalid
// ops (validation is per batch, not skipped).
func TestRunBatchValidates(t *testing.T) {
	cfg := config.Default()
	prof := mustProfile(t, "povray")
	e, err := New(cfg, prof, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	b := trace.NewBatch(4)
	b.Append(trace.Op{Kind: trace.Store, Addr: 0x1000, Size: 0}) // invalid
	if err := e.RunBatch(oneBatchSource{b}); err == nil {
		t.Fatal("RunBatch accepted an invalid op")
	}
}

// oneBatchSource yields a single prefilled batch.
type oneBatchSource struct{ b *trace.Batch }

func (s oneBatchSource) NextBatch(b *trace.Batch) bool {
	if s.b == nil || s.b.Len() == 0 {
		return false
	}
	b.Reset()
	for i := 0; i < s.b.Len(); i++ {
		b.Append(s.b.Op(i))
	}
	s.b.Reset()
	return b.Len() > 0
}
