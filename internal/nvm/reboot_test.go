package nvm

import (
	"reflect"
	"testing"

	"secpb/internal/addr"
	"secpb/internal/bmt"
	"secpb/internal/config"
	"secpb/internal/crashpoint"
	"secpb/internal/fault"
	"secpb/internal/meta"
)

// countingSink counts the crash points it receives.
type countingSink struct{ n int }

func (s *countingSink) CrashPoint(crashpoint.Kind, addr.Block) { s.n++ }

// nvImage is a recovery input: an NV image the test clones per boot.
type nvImage struct {
	pm   *PM
	ctrs *meta.CounterStore
	macs *meta.MACStore
	tree *bmt.Tree
}

func (im nvImage) clone() nvImage {
	return nvImage{im.pm.Snapshot(), im.ctrs.Snapshot(), im.macs.Snapshot(), im.tree.Snapshot()}
}

// buildImage persists blocks spread over a few dozen pages on a fresh
// controller and captures the settled NV image.
func buildImage(t *testing.T, cfg config.Config, key []byte) nvImage {
	t.Helper()
	c, err := NewController(cfg, key)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 300; i++ {
		if _, err := persist(c, addr.FromIndex(i*5), plainBlock(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	c.CompleteSweep()
	return nvImage{c.PM().Snapshot(), c.Counters().Snapshot(), c.MACs().Snapshot(), c.Tree().Snapshot()}
}

// dirtyController returns a controller whose every volatile structure
// is far from cold: warm metadata caches and BMF root cache, WPQ
// occupancy, a page re-encryption with a registered hook, media
// retries from a fault-armed device, staged drain tuples (perfect
// media only) and, when sink is non-nil, an installed crash sink.
func dirtyController(t *testing.T, cfg config.Config, key []byte, hookCalls *int, sink crashpoint.Sink) *Controller {
	t.Helper()
	c, err := NewController(cfg, key)
	if err != nil {
		t.Fatal(err)
	}
	c.SetReencryptHook(func(uint64) { *hookCalls++ })
	for i := uint64(0); i < 200; i++ {
		if _, err := persist(c, addr.FromIndex(i*11), plainBlock(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 40; i++ {
		if _, _, err := c.FetchBlock(addr.FromIndex(i * 11)); err != nil {
			t.Fatal(err)
		}
	}
	hot := addr.FromIndex(9000)
	for i := 0; i < 256; i++ {
		if _, err := persist(c, hot, plainBlock(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	perfect := !c.pm.Faulty()
	if perfect {
		c.pm.SetFault(fault.New(fault.Config{Seed: 3, WriteFailRate: 0.3, TornRate: 0.2}))
	}
	for i := uint64(0); i < 30; i++ {
		if _, err := persist(c, addr.FromIndex(20000+i), plainBlock(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if perfect {
		c.pm.SetFault(nil)
		// Blocks the boot script drains again: a stale staging index
		// would coalesce the script's drains into dropped slots.
		for i := uint64(0); i < 50; i++ {
			if _, err := persist(c, addr.FromIndex(i*37%1500), plainBlock(byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		if len(c.staged) == 0 {
			t.Fatal("dirty controller holds no staged tuples")
		}
	}
	if sink != nil {
		c.SetCrashSink(sink)
	}
	if c.Reencrypts() == 0 || *hookCalls == 0 || c.media.WriteRetries == 0 || c.wpq.Occupancy() == 0 {
		t.Fatalf("controller not dirty: reencrypts %d, hooks %d, media %+v, wpq %d",
			c.Reencrypts(), *hookCalls, c.media, c.wpq.Occupancy())
	}
	return c
}

// bootTrace is everything observable from a booted controller: the
// Cost, error and sweep count of every step of a fixed script, every
// statistics accessor, and the final NV image.
type bootTrace struct {
	Costs      []Cost
	Errs       []string
	Sweeps     []int
	WPQ        [4]uint64
	Caches     [3][4]uint64
	Heights    [2]uint64
	Staged     [2]uint64
	Reencrypts uint64
	Media      MediaStats
	PMReads    uint64
	PMWrites   uint64
	Blocks     map[addr.Block][addr.BlockBytes]byte
	Tags       map[addr.Block][64]byte
	Lines      map[uint64]meta.CounterLine
	Root       bmt.Digest
	Updates    uint64
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// runBootScript drives c through reads of the image, fresh and
// re-drained writes (some with prepared metadata), two sweeps and a page
// re-encryption, then records the trace.
func runBootScript(t *testing.T, c *Controller) bootTrace {
	t.Helper()
	var tr bootTrace
	rec := func(cost Cost, err error) {
		tr.Costs = append(tr.Costs, cost)
		tr.Errs = append(tr.Errs, errString(err))
	}
	fetch := func(b addr.Block) {
		_, cost, err := c.FetchBlock(b)
		rec(cost, err)
	}
	for i := uint64(0); i < 300; i += 3 {
		fetch(addr.FromIndex(i * 5))
	}
	for i := uint64(0); i < 200; i++ {
		data := plainBlock(byte(i + 1))
		prep := &PreparedMeta{BMTDone: i%4 == 0}
		rec(c.PersistBlock(addr.FromIndex(i*37%1500), &data, prep))
	}
	tr.Sweeps = append(tr.Sweeps, c.CompleteSweep())
	hot := addr.FromIndex(4000)
	for i := 0; i < 257; i++ {
		rec(persist(c, hot, plainBlock(byte(i))))
	}
	for i := uint64(0); i < 1500; i += 7 {
		fetch(addr.FromIndex(i))
	}
	fetch(hot)
	tr.Sweeps = append(tr.Sweeps, c.CompleteSweep())

	a, r, hw, fh := c.WPQStats()
	tr.WPQ = [4]uint64{a, r, uint64(hw), fh}
	ctr, mac, bmtc := c.MetadataCaches()
	for i, mc := range []interface {
		Stats() (uint64, uint64, uint64, uint64)
	}{ctr, mac, bmtc} {
		h, m, e, w := mc.Stats()
		tr.Caches[i] = [4]uint64{h, m, e, w}
	}
	tr.Heights[0], tr.Heights[1] = c.Heights().Stats()
	tr.Staged[0], tr.Staged[1] = c.StagedStats()
	tr.Reencrypts = c.Reencrypts()
	tr.Media = c.MediaStats()
	tr.PMReads, tr.PMWrites = c.PM().Stats()
	tr.Blocks = map[addr.Block][addr.BlockBytes]byte{}
	tr.Tags = map[addr.Block][64]byte{}
	for _, b := range c.PM().Blocks() {
		tr.Blocks[b], _ = c.PM().Peek(b)
		tr.Tags[b], _ = c.MACs().Get(b)
	}
	tr.Lines = map[uint64]meta.CounterLine{}
	c.Counters().RangeLines(func(page uint64, cl *meta.CounterLine) bool {
		tr.Lines[page] = *cl
		return true
	})
	tr.Root = c.Tree().Root()
	tr.Updates = c.Tree().Updates()
	return tr
}

// TestRebootMatchesRestore pins Reboot as a cold boot: a controller
// dirtied in every volatile structure and rebooted onto one clone of an
// NV image must be indistinguishable from a fresh Restore onto another
// clone — per-step Costs, every statistic and the final image alike.
func TestRebootMatchesRestore(t *testing.T) {
	key := []byte("reboot-equivalence-key")
	dbmf := config.Default()
	dbmf.BMFMode = config.BMFDynamic
	dbmf.UnifiedMDC = true
	cases := []struct {
		name string
		cfg  config.Config
	}{
		{"default", config.Default()},
		{"dbmf-unified", dbmf},
		{"faulty", faultyConfig(0.05, 0.05, 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			img := buildImage(t, tc.cfg, key)

			fresh := img.clone()
			restored, err := Restore(tc.cfg, key, fresh.pm, fresh.ctrs, fresh.macs, fresh.tree)
			if err != nil {
				t.Fatal(err)
			}

			var hookCalls int
			sink := &countingSink{}
			var installed crashpoint.Sink
			if tc.cfg.FaultEnabled() {
				installed = sink // staging is off on faulty media anyway
			}
			rebooted := dirtyController(t, tc.cfg, key, &hookCalls, installed)
			hooksBefore, pointsBefore := hookCalls, sink.n
			cl := img.clone()
			if err := rebooted.Reboot(cl.pm, cl.ctrs, cl.macs, cl.tree); err != nil {
				t.Fatal(err)
			}

			want := runBootScript(t, restored)
			got := runBootScript(t, rebooted)
			if want.Reencrypts == 0 {
				t.Fatal("script triggered no page re-encryption")
			}
			if tc.cfg.FaultEnabled() && (want.Media.Faults.Total() == 0 || got.Media.Faults.Total() == 0) {
				t.Fatal("a boot on faulty media left the fault injector disarmed")
			}
			if tc.cfg.BMFMode != config.BMFNone && want.Heights[0] == 0 {
				t.Fatal("script never hit the BMF root cache")
			}
			if len(got.Costs) != len(want.Costs) {
				t.Fatalf("script lengths differ: %d vs %d", len(got.Costs), len(want.Costs))
			}
			for i := range want.Costs {
				if got.Costs[i] != want.Costs[i] || got.Errs[i] != want.Errs[i] {
					t.Fatalf("step %d: rebooted %+v %q, restored %+v %q",
						i, got.Costs[i], got.Errs[i], want.Costs[i], want.Errs[i])
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("rebooted controller differs from restored one:\nrebooted: sweeps %v wpq %v caches %v heights %v staged %v reenc %d media %+v pm %d/%d root %x updates %d\nrestored: sweeps %v wpq %v caches %v heights %v staged %v reenc %d media %+v pm %d/%d root %x updates %d",
					got.Sweeps, got.WPQ, got.Caches, got.Heights, got.Staged, got.Reencrypts, got.Media, got.PMReads, got.PMWrites, got.Root, got.Updates,
					want.Sweeps, want.WPQ, want.Caches, want.Heights, want.Staged, want.Reencrypts, want.Media, want.PMReads, want.PMWrites, want.Root, want.Updates)
			}
			if hookCalls != hooksBefore {
				t.Errorf("a re-encryption hook registered before Reboot fired %d times after it", hookCalls-hooksBefore)
			}
			if sink.n != pointsBefore {
				t.Errorf("a crash sink installed before Reboot received %d points after it", sink.n-pointsBefore)
			}
		})
	}
}

// TestRebootRejectsInsecure: the insecure baseline keeps no metadata,
// so there is nothing to reboot onto.
func TestRebootRejectsInsecure(t *testing.T) {
	c, err := NewController(config.Default().WithScheme(config.SchemeBBB), []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	secure := secureController(t)
	if err := c.Reboot(secure.PM(), secure.Counters(), secure.MACs(), secure.Tree()); err == nil {
		t.Fatal("Reboot accepted an insecure controller")
	}
}
