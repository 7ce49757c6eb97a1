package recovery

import (
	"errors"
	"sort"
	"testing"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/energy"
	"secpb/internal/engine"
	"secpb/internal/nvm"
	"secpb/internal/workload"
)

// faultMode is one column of the fault-rate sweep.
type faultMode struct {
	name     string
	wf, torn float64 // write-path rates
	rot      float64 // latent bit-rot rate
}

// Rates are high relative to real media because the lazy schemes defer
// most PM traffic to the post-crash drain, leaving only tens of write
// visits per short run to sample from.
var faultModes = []faultMode{
	{name: "clean"},
	{name: "torn-write", wf: 0.1, torn: 0.1},
	{name: "bit-rot", rot: 0.05},
}

// TestFaultSweep is the end-to-end degraded-mode gate: every scheme runs
// a seeded workload under each media-fault mode, crashes, drains its
// late work through battery-budgeted boots, suffers post-crash bit-rot
// decay, and triages the image. Clean media must leave zero media
// stats and a byte-perfect image; torn writes must be fully absorbed by
// the retry path; bit-rot must quarantine exactly the rotted blocks
// while everything else recovers byte-identically.
func TestFaultSweep(t *testing.T) {
	ops := uint64(4000)
	if testing.Short() {
		ops = 1200
	}
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("fault-sweep-fixed-key")
	for _, scheme := range config.SecPBSchemes() {
		for _, mode := range faultModes {
			t.Run(scheme.String()+"/"+mode.name, func(t *testing.T) {
				cfg := config.Default().WithScheme(scheme)
				cfg.Seed = 0x5EED
				cfg.FaultSeed = 0xFA017
				cfg.FaultWriteFailRate = mode.wf
				cfg.FaultTornRate = mode.torn
				cfg.FaultRotRate = mode.rot
				e, err := engine.New(cfg, prof, key)
				if err != nil {
					t.Fatal(err)
				}
				gen, err := workload.NewGenerator(prof, cfg.Seed, ops)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.RunBatch(gen); err != nil {
					t.Fatal(err)
				}
				golden := e.Memory()
				entries := e.SecPB().AppendEntries(nil)
				mc := e.Controller()

				// Battery-budgeted boot loop: ~3 entries per boot until the
				// journal completes (clean media finishes in one boot when
				// few entries are pending).
				perJ, err := energy.PerEntryDrainJ(scheme, cfg.BMTLevels)
				if err != nil {
					t.Fatal(err)
				}
				j := new(Journal)
				j.Reset(entries)
				for !j.Complete() {
					budget := energy.NewBudget(3.5 * perJ)
					if _, derr := DrainEntriesBudget(mc, j, budget); derr != nil && !errors.Is(derr, ErrBatteryExhausted) {
						t.Fatal(derr)
					}
				}

				stats := mc.MediaStats()
				if mode.name == "clean" {
					if stats != (nvm.MediaStats{}) {
						t.Fatalf("clean media accumulated stats %+v", stats)
					}
				}
				if mode.wf > 0 || mode.torn > 0 {
					if stats.WriteRetries == 0 {
						t.Error("faulty write path never retried")
					}
				}

				// Post-crash latent decay: rot flips bits in resting blocks.
				decayed := mc.PM().Decay()
				if mode.rot > 0 && len(decayed) == 0 {
					t.Fatal("rot mode decayed nothing; sweep vacuous (adjust seed or rate)")
				}
				if mode.rot == 0 && len(decayed) != 0 {
					t.Fatalf("rot disabled but %d blocks decayed", len(decayed))
				}
				rotted := make(map[addr.Block]bool, len(decayed))
				for _, b := range decayed {
					rotted[b] = true
				}

				rep, err := Triage(mc)
				if err != nil {
					t.Fatal(err)
				}
				if mode.rot == 0 {
					// Write-path faults are absorbed before acceptance; the
					// image must triage perfectly clean.
					if rep.Degraded() {
						t.Fatalf("image degraded without rot: %s", rep)
					}
				} else {
					// Quarantine must cover every decayed block and nothing
					// else (rot flips ciphertext; the MAC convicts exactly).
					if rep.Quarantined != len(decayed) {
						t.Errorf("%d blocks decayed but %d quarantined", len(decayed), rep.Quarantined)
					}
					for _, v := range rep.Verdicts {
						if v.Class == ClassQuarantined && !rotted[v.Block] {
							t.Errorf("block %#x quarantined but never decayed (false positive)", v.Block.Addr())
						}
						if v.Class != ClassQuarantined && rotted[v.Block] {
							t.Errorf("decayed block %#x classed %v (false negative)", v.Block.Addr(), v.Class)
						}
					}
				}

				// Every non-quarantined block must match the golden model.
				blocks := make([]addr.Block, 0, len(golden))
				for b := range golden {
					blocks = append(blocks, b)
				}
				sort.Slice(blocks, func(i, k int) bool { return blocks[i] < blocks[k] })
				for _, b := range blocks {
					if rotted[b] {
						continue
					}
					class, ok := rep.Class(b)
					if !ok {
						t.Fatalf("golden block %#x missing from triage", b.Addr())
					}
					if class == ClassQuarantined {
						continue // already reported above
					}
					got, ok := rep.Recovered(b)
					if !ok || got != golden[b] {
						t.Errorf("block %#x (%v) not byte-identical to golden model", b.Addr(), class)
					}
				}
			})
		}
	}
}
