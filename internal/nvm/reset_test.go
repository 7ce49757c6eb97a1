package nvm

import (
	"reflect"
	"testing"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/fault"
)

// TestControllerResetMatchesNew pins Controller.Reset as New: a
// controller dirtied in every volatile structure and every store under a
// previous configuration and key, then reset, must run the boot script
// exactly as NewController(cfg, key) does — per-step Costs, every
// statistic and the final image alike — and no hook or sink installed
// before the reset may fire after it. The cases cover both ways Reset
// goes: in place (only scheme and seed change, same key) and rebuilt
// (another key, another shape, or an insecure controller).
func TestControllerResetMatchesNew(t *testing.T) {
	key := []byte("reset-equivalence-key")
	other := func(cfg config.Config) config.Config {
		cfg = cfg.WithScheme(config.SchemeOBCM)
		cfg.Seed += 17
		return cfg
	}
	dbmf := config.Default()
	dbmf.BMFMode = config.BMFDynamic
	dbmf.UnifiedMDC = true
	faulty := faultyConfig(0.05, 0.05, 0)
	cases := []struct {
		name     string
		prev     config.Config
		prevKey  []byte
		cfg      config.Config
		inPlace  bool
		insecure bool
	}{
		{"in-place", other(config.Default()), key, config.Default(), true, false},
		{"in-place-dbmf-unified", other(dbmf), key, dbmf, true, false},
		{"in-place-faulty", other(faulty), key, faulty, true, false},
		{"new-key", other(config.Default()), []byte("previous-key"), config.Default(), false, false},
		{"new-shape", dbmf, key, config.Default(), false, false},
		{"from-insecure", config.Default().WithScheme(config.SchemeBBB), key, config.Default(), false, true},
		{"to-insecure", config.Default(), key, config.Default().WithScheme(config.SchemeBBB), false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, cfg := range []config.Config{tc.prev, tc.cfg} {
				if err := cfg.Validate(); err != nil {
					t.Fatal(err)
				}
			}
			var hookCalls int
			sink := &countingSink{}
			var c *Controller
			if tc.insecure {
				var err error
				if c, err = NewController(tc.prev, tc.prevKey); err != nil {
					t.Fatal(err)
				}
				for i := uint64(0); i < 100; i++ {
					if _, err := persist(c, addr.FromIndex(i*3), plainBlock(byte(i))); err != nil {
						t.Fatal(err)
					}
				}
				c.SetCrashSink(sink)
			} else {
				c = dirtyController(t, tc.prev, tc.prevKey, &hookCalls, sink)
			}
			hooksBefore, pointsBefore := hookCalls, sink.n
			eng, pm := c.eng, c.pm
			if err := c.Reset(tc.cfg, key); err != nil {
				t.Fatal(err)
			}
			if kept := eng != nil && c.eng == eng && c.pm == pm; kept != tc.inPlace {
				t.Fatalf("Reset kept engine and stores = %v, want %v", kept, tc.inPlace)
			}
			fresh, err := NewController(tc.cfg, key)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.cfg.Scheme.Secure() {
				// The boot script needs metadata; compare the shells.
				if c.Secure() || c.Config() != fresh.Config() || c.PM().Len() != 0 || c.pm.Faulty() {
					t.Fatalf("insecure reset: secure %v, config equal %v, %d blocks", c.Secure(), c.Config() == fresh.Config(), c.PM().Len())
				}
				return
			}
			want := runBootScript(t, fresh)
			got := runBootScript(t, c)
			if len(got.Costs) != len(want.Costs) {
				t.Fatalf("script lengths differ: %d vs %d", len(got.Costs), len(want.Costs))
			}
			for i := range want.Costs {
				if got.Costs[i] != want.Costs[i] || got.Errs[i] != want.Errs[i] {
					t.Fatalf("step %d: reset %+v %q, new %+v %q",
						i, got.Costs[i], got.Errs[i], want.Costs[i], want.Errs[i])
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("reset controller differs from a new one:\nreset: sweeps %v wpq %v caches %v heights %v staged %v reenc %d media %+v pm %d/%d root %x updates %d\nnew:   sweeps %v wpq %v caches %v heights %v staged %v reenc %d media %+v pm %d/%d root %x updates %d",
					got.Sweeps, got.WPQ, got.Caches, got.Heights, got.Staged, got.Reencrypts, got.Media, got.PMReads, got.PMWrites, got.Root, got.Updates,
					want.Sweeps, want.WPQ, want.Caches, want.Heights, want.Staged, want.Reencrypts, want.Media, want.PMReads, want.PMWrites, want.Root, want.Updates)
			}
			if hookCalls != hooksBefore {
				t.Errorf("a re-encryption hook registered before Reset fired %d times after it", hookCalls-hooksBefore)
			}
			if sink.n != pointsBefore {
				t.Errorf("a crash sink installed before Reset received %d points after it", sink.n-pointsBefore)
			}
		})
	}
}

// TestControllerResetEmptiesAdoptedStores: a restored controller owns
// the image it was booted onto, and Reset empties that image in place
// before the controller runs like a new one.
func TestControllerResetEmptiesAdoptedStores(t *testing.T) {
	key := []byte("reset-adopted-key")
	cfg := config.Default()
	img := buildImage(t, cfg, key).clone()
	c, err := Restore(cfg.WithScheme(config.SchemeBCM), key, img.pm, img.ctrs, img.macs, img.tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Reset(cfg, key); err != nil {
		t.Fatal(err)
	}
	if c.pm != img.pm || img.pm.Len() != 0 || img.ctrs.Pages() != 0 || img.macs.Len() != 0 || img.tree.NodesMaterialized() != 0 {
		t.Fatalf("adopted stores not emptied in place: %d blocks, %d counter pages, %d tags, %d nodes",
			img.pm.Len(), img.ctrs.Pages(), img.macs.Len(), img.tree.NodesMaterialized())
	}
	fresh, err := NewController(cfg, key)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := runBootScript(t, c), runBootScript(t, fresh); !reflect.DeepEqual(got, want) {
		t.Error("reset restored controller differs from a new one")
	}
}

// TestPMResetMatchesNew: a device with written blocks, access counts, a
// retired block and an armed injector, once reset, reads, lists and
// counts like a new one of the same size, and validates its (empty)
// bad-block table.
func TestPMResetMatchesNew(t *testing.T) {
	const size = 1 << 30
	p := NewPM(size)
	for i := uint64(0); i < 700; i++ {
		p.Write(addr.FromIndex(i*3), plainBlock(byte(i)))
	}
	p.Read(addr.FromIndex(3))
	p.Retire(addr.FromIndex(6))
	p.SetFault(fault.New(fault.Config{Seed: 1, RotRate: 0.5}))
	p.Reset()
	fresh := NewPM(size)
	if p.Len() != 0 || p.BadBlocks() != 0 || p.Faulty() || len(p.Blocks()) != 0 {
		t.Fatalf("reset device: %d blocks, %d bad, faulty %v", p.Len(), p.BadBlocks(), p.Faulty())
	}
	if err := p.CheckBadBlocks(); err != nil {
		t.Fatalf("reset device's bad-block table: %v", err)
	}
	for _, d := range []*PM{p, fresh} {
		d.Write(addr.FromIndex(9), plainBlock(9))
		d.Read(addr.FromIndex(9))
		d.Read(addr.FromIndex(12))
	}
	image := func(d *PM) map[addr.Block][addr.BlockBytes]byte {
		m := map[addr.Block][addr.BlockBytes]byte{}
		for _, b := range d.Blocks() {
			m[b], _ = d.Peek(b)
		}
		return m
	}
	pr, pw := p.Stats()
	fr, fw := fresh.Stats()
	if !reflect.DeepEqual(image(p), image(fresh)) || pr != fr || pw != fw {
		t.Errorf("reset device differs from a new one after the same accesses: %d/%d accesses, new %d/%d", pr, pw, fr, fw)
	}
	if _, ok := p.Peek(addr.FromIndex(3)); ok {
		t.Error("a block written before Reset is still present")
	}
}
