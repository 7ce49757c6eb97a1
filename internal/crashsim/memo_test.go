package crashsim

import (
	"fmt"
	"testing"

	"secpb/internal/addr"
	"secpb/internal/bmt"
	"secpb/internal/config"
	"secpb/internal/crypto"
	"secpb/internal/workload"
	"secpb/internal/xrand"
)

// memoCells are the cells the recovery-memo tests run: an eager scheme on
// the compute-heavy trace and the lazy baseline on the store-heavy one.
var memoCells = []struct {
	scheme config.Scheme
	wl     string
}{
	{config.SchemeCOBCM, "gcc"},
	{config.SchemeNoGap, "kvstore"},
}

// injectMemoCell runs a 2,000-op, 120-point cell with handler h; the
// trace and trigger seeds are fixed per cell.
func injectMemoCell(t *testing.T, scheme config.Scheme, wl string, h Handler) {
	t.Helper()
	prof, err := workload.ByName(wl)
	if err != nil {
		t.Fatal(err)
	}
	seed := xrand.CellSeed(16, scheme.String(), wl)
	cfg := cellConfig(Options{}, scheme, seed)
	ops, err := workload.Generate(prof, seed, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := InjectTraceWith(cfg, prof, []byte("hash-memo-test-key"), ops,
		TraceOptions{Points: 120, Seed: seed ^ 0xC0FFEE}, h); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryMemoHitRate pins the memo's effect on crash-point
// recovery: over a cell's 120 points, at least 90% of the recovery
// engine's MACs, node hashes and pads together, and at least 90% of its
// pads alone, must be served from the memo (93–97% and 96–99% at
// the time of writing), and the counts must repeat exactly on a second
// identical run — the memo's slot choice is a pure function of the
// inputs, so its work is as reproducible as the findings.
func TestRecoveryMemoHitRate(t *testing.T) {
	for _, c := range memoCells {
		t.Run(c.scheme.String()+"/"+c.wl, func(t *testing.T) {
			var runs [2]crypto.MemoStats
			for i := range runs {
				points := 0
				injectMemoCell(t, c.scheme, c.wl, func(snap *Snapshot, golden map[addr.Block][addr.BlockBytes]byte) error {
					res, err := snap.RecoverVerify(golden)
					if err != nil {
						return err
					}
					if res.Failures > 0 {
						t.Errorf("point %d: %s", snap.PointIndex, res.FirstBad)
					}
					points++
					runs[i] = snap.rec.memo.Stats()
					return nil
				})
				if points != 120 {
					t.Fatalf("run %d injected %d points, want 120", i, points)
				}
			}
			s := runs[0]
			padServed := float64(s.PadHits) / float64(s.PadHits+s.PadMisses)
			t.Logf("%+v: %.1f%% served, pads %.1f%%", s, 100*s.Served(), 100*padServed)
			if runs[1] != s {
				t.Errorf("memo counts differ between identical runs: %+v vs %+v", s, runs[1])
			}
			if s.MACHits+s.MACMisses == 0 || s.NodeHits+s.NodeMisses == 0 || s.PadHits+s.PadMisses == 0 || s.NodeBypasses != 0 {
				t.Fatalf("recovery bypassed the memo: %+v", s)
			}
			if got := s.Served(); got < 0.90 {
				t.Errorf("memo served %.1f%% of recovery lookups, want >= 90%%", 100*got)
			}
			if padServed < 0.90 {
				t.Errorf("memo served %.1f%% of recovery pads, want >= 90%%", 100*padServed)
			}
		})
	}
}

// tamperKinds are the image damages TestRecoveryMemoTamperMatrix
// applies, one per point in rotation.
var tamperKinds = []string{"ciphertext", "mac", "counter-rollback", "bmt-node"}

// tamperImage damages the snapshot's NV image with the given kind of
// tamper, away from every page the battery-backed entries will drain
// into (a drain would rewrite the damage instead of recovering onto
// it). The victim is picked deterministically from the point index. It
// returns a description of the damage, or "" when no block qualifies.
func tamperImage(t *testing.T, snap *Snapshot, kind string) string {
	t.Helper()
	capacity := snap.tree.Capacity()
	group := func(page uint64) uint64 { return page % capacity / bmt.Arity }
	busy := make(map[uint64]bool) // level-1 node groups the drain touches
	for _, e := range snap.journal.Entries() {
		busy[group(e.Block.CounterLine())] = true
	}
	var victims []addr.Block
	for _, b := range snap.pm.Blocks() {
		if busy[group(b.CounterLine())] {
			continue
		}
		if kind == "counter-rollback" {
			if line, ok := snap.ctrs.Peek(b.CounterLine()); !ok || line.Minors[b.PageOffset()] == 0 {
				continue
			}
		}
		victims = append(victims, b)
	}
	if len(victims) == 0 {
		return ""
	}
	b := victims[int(snap.PointIndex*7919)%len(victims)]
	var err error
	switch kind {
	case "ciphertext":
		err = snap.pm.Tamper(b, int(snap.PointIndex%512))
	case "mac":
		err = snap.macs.Tamper(b, int(snap.PointIndex%512))
	case "counter-rollback":
		line, _ := snap.ctrs.Peek(b.CounterLine())
		err = snap.ctrs.Tamper(b, line.Minors[b.PageOffset()]-1)
	case "bmt-node":
		idx := group(b.CounterLine())
		d, ok := snap.tree.Node(1, idx)
		if !ok {
			t.Fatalf("interior node (1,%d) above persisted block %#x not materialized", idx, b.Addr())
		}
		d[0] ^= 0x80
		err = snap.tree.Tamper(1, idx, d)
	}
	if err != nil {
		t.Fatalf("%s tamper of block %#x: %v", kind, b.Addr(), err)
	}
	return fmt.Sprintf("%s at block %#x", kind, b.Addr())
}

// TestRecoveryMemoTamperMatrix is the differential check that the memo
// never carries trust from one crash point to the next. Each cell runs
// twice, with and without the memo (its pad, MAC and node tables
// together). The first 40 points recover untouched images, which warms
// the memo with the pads, tags and digests of a healthy image; every later point first damages the image in one of
// four ways — a flipped ciphertext byte, a flipped stored MAC byte, a
// rolled-back counter, an overwritten BMT interior node — on blocks the
// memo has seen intact. Both runs must produce the same VerifyResult
// sequence, FirstBad included, and every damaged point must fail.
func TestRecoveryMemoTamperMatrix(t *testing.T) {
	const warm = 40
	for _, c := range memoCells {
		t.Run(c.scheme.String()+"/"+c.wl, func(t *testing.T) {
			var results [2][]VerifyResult
			perKind := make(map[string]int)
			for mode, noMemo := range []bool{false, true} {
				injectMemoCell(t, c.scheme, c.wl, func(snap *Snapshot, golden map[addr.Block][addr.BlockBytes]byte) error {
					snap.rec.noMemo = noMemo
					n := len(results[mode])
					damage := ""
					if n >= warm {
						kind := tamperKinds[n%len(tamperKinds)]
						if damage = tamperImage(t, snap, kind); damage != "" && mode == 0 {
							perKind[kind]++
						}
					}
					res, err := snap.RecoverVerify(golden)
					if err != nil {
						return err
					}
					switch {
					case damage == "" && res.Failures > 0:
						t.Errorf("point %d (untampered): %s", snap.PointIndex, res.FirstBad)
					case damage != "" && res.Failures == 0:
						t.Errorf("point %d: %s went undetected (memo %v)", snap.PointIndex, damage, !noMemo)
					}
					if (snap.rec.memo != nil) == noMemo {
						t.Fatalf("memo attached = %v with noMemo = %v", snap.rec.memo != nil, noMemo)
					}
					if !noMemo && n == warm {
						if s := snap.rec.memo.Stats(); s.MACHits == 0 || s.PadHits == 0 {
							t.Fatalf("memo still cold after the warm-up points: %+v", s)
						}
					}
					results[mode] = append(results[mode], res)
					return nil
				})
			}
			for _, kind := range tamperKinds {
				if perKind[kind] == 0 {
					t.Errorf("no point received a %s tamper", kind)
				}
			}
			if len(results[0]) != len(results[1]) {
				t.Fatalf("memo run recovered %d points, direct run %d", len(results[0]), len(results[1]))
			}
			for i := range results[0] {
				if results[0][i] != results[1][i] {
					t.Errorf("point %d: memo %+v, direct %+v", i, results[0][i], results[1][i])
				}
			}
		})
	}
}
