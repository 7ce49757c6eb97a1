package recovery

import (
	"testing"

	"secpb/internal/config"
	"secpb/internal/engine"
	"secpb/internal/nvm"
	"secpb/internal/workload"
)

// TestSystemFaultSweep threads media faults through the multi-core
// path: each core's memory-channel shard runs its own derived fault
// stream, the whole socket crash-recovers through the sealed canonical
// drain order, and every shard triages per the single-core contract
// (write-path faults absorbed, rot quarantined exactly).
func TestSystemFaultSweep(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("secpb-experiment-key")
	modes := []struct {
		name     string
		wf, torn float64
		rot      float64
	}{
		{name: "clean"},
		{name: "torn-write", wf: 0.1, torn: 0.1},
		{name: "bit-rot", rot: 0.05},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			cfg := config.Default().WithCores(2)
			cfg.Seed = 0x5EED
			cfg.FaultSeed = 0xFA017
			cfg.FaultWriteFailRate = mode.wf
			cfg.FaultTornRate = mode.torn
			cfg.FaultRotRate = mode.rot
			sys, err := engine.NewSystem(cfg, prof, key, 4000)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			res := sys.Collect()
			if mode.name == "clean" && res.Media != (nvm.MediaStats{}) {
				t.Fatalf("clean media accumulated stats %+v", res.Media)
			}
			if mode.wf > 0 || mode.torn > 0 {
				if res.Media.WriteRetries == 0 {
					t.Error("faulty write path never retried across the socket")
				}
				// Per-core fault streams are derived independently; with
				// these rates every shard must see its own retries.
				for c := 0; c < sys.Cores(); c++ {
					if s := sys.Core(c).Controller().MediaStats(); s.WriteRetries == 0 {
						t.Errorf("core %d shard saw no write retries (fault stream not threaded?)", c)
					}
				}
			}

			// Whole-socket recovery: restore every shard and drain in the
			// sealed canonical order.
			j := captureSystem(t, sys, key)
			if _, err := j.Drain(nil); err != nil {
				t.Fatalf("system drain under %s faults: %v", mode.name, err)
			}
			// The private shards, then the one shared controller.
			var shards []*nvm.Controller
			for _, p := range j.parts[:sys.Cores()+1] {
				shards = append(shards, p.mc)
			}

			// Post-crash decay and triage, shard by shard.
			decayedTotal := 0
			for i, mc := range shards {
				decayed := mc.PM().Decay()
				decayedTotal += len(decayed)
				rotted := make(map[uint64]bool, len(decayed))
				for _, b := range decayed {
					rotted[b.Addr()] = true
				}
				rep, err := Triage(mc)
				if err != nil {
					t.Fatalf("shard %d triage: %v", i, err)
				}
				if mode.rot == 0 {
					if rep.Degraded() {
						t.Fatalf("shard %d degraded without rot: %s", i, rep)
					}
				} else {
					if rep.Quarantined != len(decayed) {
						t.Errorf("shard %d: %d decayed but %d quarantined", i, len(decayed), rep.Quarantined)
					}
					for _, v := range rep.Verdicts {
						if v.Class == ClassQuarantined && !rotted[v.Block.Addr()] {
							t.Errorf("shard %d: block %#x quarantined but never decayed", i, v.Block.Addr())
						}
					}
				}
			}
			if mode.rot > 0 && decayedTotal == 0 {
				t.Fatal("rot mode decayed nothing across all shards; sweep vacuous")
			}
		})
	}
}

// TestSystemFaultSeedsDiverge: the per-core derived fault seeds must
// give each shard an independent stream — identical seeds would fault
// the same ordinal writes on every core, hiding cross-core bugs.
func TestSystemFaultSeedsDiverge(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default().WithCores(4)
	cfg.FaultSeed = 0xFA017
	cfg.FaultWriteFailRate = 0.05
	sys, err := engine.NewSystem(cfg, prof, []byte("secpb-experiment-key"), 1000)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]int{}
	for c := 0; c < sys.Cores(); c++ {
		fs := sys.Core(c).Controller().Config().FaultSeed
		if fs == 0 {
			t.Fatalf("core %d has zero fault seed", c)
		}
		if prev, ok := seen[fs]; ok {
			t.Fatalf("cores %d and %d share fault seed %#x", prev, c, fs)
		}
		seen[fs] = c
	}
}
