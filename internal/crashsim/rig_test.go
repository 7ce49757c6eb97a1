package crashsim

import (
	"reflect"
	"testing"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/crypto"
	"secpb/internal/workload"
	"secpb/internal/xrand"
)

// never is a noMemoFrom past every point: the memo stays attached.
const never = 1 << 30

// rigCell is one crash cell a recycled-rig test runs on an explicit rig.
type rigCell struct {
	scheme config.Scheme
	wl     string
	key    string
}

// injectOn runs c — 2,000 ops, 120 points — on r with the standard
// recovery, with noMemo set from point noMemoFrom on, and returns its
// result and the memo counts its last point left (zero when the memo
// was detached).
func injectOn(t *testing.T, r *rig, c rigCell, noMemoFrom int) (CellResult, crypto.MemoStats) {
	t.Helper()
	return injectOnWith(t, r, c, nil, noMemoFrom)
}

// injectOnWith is injectOn calling hook, when set, at every point
// before its recovery.
func injectOnWith(t *testing.T, r *rig, c rigCell, hook func(point int, snap *Snapshot), noMemoFrom int) (CellResult, crypto.MemoStats) {
	t.Helper()
	prof, err := workload.ByName(c.wl)
	if err != nil {
		t.Fatal(err)
	}
	seed := xrand.CellSeed(16, c.scheme.String(), c.wl)
	cfg := cellConfig(Options{}, c.scheme, seed)
	ops, err := workload.Generate(prof, seed, 2000)
	if err != nil {
		t.Fatal(err)
	}
	var stats crypto.MemoStats
	points := 0
	cell, err := r.inject(cfg, prof, []byte(c.key), ops, TraceOptions{Points: 120, Seed: seed ^ 0xC0FFEE},
		func(snap *Snapshot, golden map[addr.Block][addr.BlockBytes]byte) error {
			if hook != nil {
				hook(points, snap)
			}
			snap.rec.noMemo = points >= noMemoFrom
			points++
			res, err := snap.RecoverVerify(golden)
			if err != nil {
				return err
			}
			if res.Failures > 0 {
				t.Errorf("%v/%s key %q point %d: %s", c.scheme, c.wl, c.key, snap.PointIndex, res.FirstBad)
			}
			stats = crypto.MemoStats{}
			if m := snap.rec.memo; m != nil {
				stats = m.Stats()
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if cell.Injected != 120 {
		t.Fatalf("%v/%s: %d points injected, want 120", c.scheme, c.wl, cell.Injected)
	}
	return cell, stats
}

// TestRigKeySwitch runs cells back to back on one rig under alternating
// keys: the recovery controller reset from another key must be rebuilt
// on the new one, and every point of every cell must recover clean. A
// controller kept across a key change verifies the new image under the
// old sub-keys and reports root-register and MAC mismatches at once.
func TestRigKeySwitch(t *testing.T) {
	r := newRig()
	cells := []rigCell{
		{config.SchemeCOBCM, "gcc", "rig-key-one"},
		{config.SchemeCOBCM, "gcc", "rig-key-two"},
		{config.SchemeNoGap, "kvstore", "rig-key-two"},
		{config.SchemeNoGap, "kvstore", "recover-alloc-key"},
		{config.SchemeBCM, "gcc", "rig-key-one"},
	}
	var prev *crypto.Engine
	for i, c := range cells {
		injectOn(t, r, c, never)
		eng := r.snap.rec.mc.Engine()
		if kept := eng == prev; i > 0 && kept != (c.key == cells[i-1].key) {
			t.Errorf("cell %d (%v/%s, key %q): recovery engine kept = %v after key %q",
				i, c.scheme, c.wl, c.key, kept, cells[i-1].key)
		}
		prev = eng
	}
}

// TestRigMemoCountsMatchFresh: a cell's findings and memo counts must
// not depend on what its rig ran before. Each cell runs on a fresh rig
// and on a rig warmed by a cell of another scheme and workload, under
// the same key (the recovery controller is kept) and under another (it
// is rebuilt).
func TestRigMemoCountsMatchFresh(t *testing.T) {
	for _, c := range []rigCell{
		{config.SchemeCOBCM, "gcc", "hash-memo-test-key"},
		{config.SchemeNoGap, "kvstore", "hash-memo-test-key"},
	} {
		wantCell, want := injectOn(t, newRig(), c, never)
		if want.NodeMisses == 0 || want.MACMisses == 0 || want.PadMisses == 0 {
			t.Fatalf("%v/%s: memo unused: %+v", c.scheme, c.wl, want)
		}
		for _, warmKey := range []string{c.key, "warm-up-key"} {
			warmUp := rigCell{config.SchemeOBCM, "mcf", warmKey}
			r := newRig()
			injectOn(t, r, warmUp, never)
			gotCell, got := injectOn(t, r, c, never)
			if got != want {
				t.Errorf("%v/%s after a %q cell: memo counts %+v, fresh rig %+v", c.scheme, c.wl, warmKey, got, want)
			}
			if !reflect.DeepEqual(gotCell, wantCell) {
				t.Errorf("%v/%s after a %q cell: %+v, fresh rig %+v", c.scheme, c.wl, warmKey, gotCell, wantCell)
			}
		}
	}
}

// TestRigNoMemoDetaches: noMemo must detach the memo on a recycled rig
// too. After a memoized cell, a cell with noMemo must leave the rig's
// memo unused — its counts stay at the zero the cell start reset them
// to — and so must the points after noMemo is set mid-cell; the next
// cell must attach a memo again.
func TestRigNoMemoDetaches(t *testing.T) {
	r := newRig()
	c := rigCell{config.SchemeCOBCM, "gcc", "hash-memo-test-key"}
	injectOn(t, r, c, never)
	old := r.snap.rec.memo
	if old == nil || old.Stats() == (crypto.MemoStats{}) {
		t.Fatal("memoized cell left no used memo")
	}
	if _, stats := injectOn(t, r, c, 0); stats != (crypto.MemoStats{}) || r.snap.rec.memo != nil {
		t.Fatalf("noMemo cell: memo attached %v, counts %+v", r.snap.rec.memo != nil, stats)
	}
	if s := old.Stats(); s != (crypto.MemoStats{}) {
		t.Errorf("the detached memo served a noMemo cell: %+v", s)
	}
	if _, stats := injectOn(t, r, c, never); r.snap.rec.memo == nil || stats.MACHits == 0 {
		t.Fatalf("memo not reattached after a noMemo cell: %+v", stats)
	}
	// Mid-cell: the memo the first 60 points used must not move after.
	var mid crypto.MemoStats
	var used *crypto.HashMemo
	injectOnWith(t, r, c, func(point int, snap *Snapshot) {
		if point == 60 {
			used, mid = snap.rec.memo, snap.rec.memo.Stats()
		}
	}, 60)
	if used == nil || mid.MACHits == 0 {
		t.Fatalf("memo unused before point 60: %+v", mid)
	}
	if s := used.Stats(); s != mid {
		t.Errorf("memo served points after noMemo was set: %+v at point 60, %+v at the end", mid, s)
	}
}
