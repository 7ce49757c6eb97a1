package crashsim

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"secpb/internal/config"
	"secpb/internal/crashpoint"
	"secpb/internal/workload"
)

// TestSystemMatrixExhaustive is the cores=2 crash matrix: every crash
// point of a small multi-core trace — private pipelines of both cores,
// shared-region barrier acceptances, drains, sweeps — is injected, the
// socket recovered in the sealed canonical order, and every shard
// verified against the committed-prefix goldens.
func TestSystemMatrixExhaustive(t *testing.T) {
	for _, scheme := range []config.Scheme{config.SchemeCM, config.SchemeOBCM, config.SchemeCOBCM} {
		cell, err := RunSystemCell(scheme, "gcc", 2, Options{Ops: 300, Seed: 0x5EC9})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if cell.Injected == 0 || uint64(cell.Injected) != cell.TotalPoints {
			t.Fatalf("%s: injected %d of %d points (exhaustive run must hit all)",
				scheme, cell.Injected, cell.TotalPoints)
		}
		if cell.Failures > 0 {
			t.Fatalf("%s: %d failures, first: %s", scheme, cell.Failures, cell.FirstBad)
		}
		if cell.Checked == 0 {
			t.Fatalf("%s: no blocks verified", scheme)
		}
		t.Logf("%s: %d points, %d drained, %d checked", scheme, cell.TotalPoints, cell.Drained, cell.Checked)
	}
}

// conflictConfig forces cross-core shared-write conflicts: a 2-block
// hot shared region with a high redirect rate, so nearly every epoch
// has both cores writing the same block and the merge order is
// observable in the committed data.
func conflictConfig(scheme config.Scheme) config.Config {
	cfg := config.Default().WithScheme(scheme).WithCores(2)
	cfg.Seed = 0xFACE5
	cfg.MCSharedBlocks = 2
	cfg.MCSharedPerKilo = 200
	cfg.MCEpochOps = 64
	return cfg
}

// TestSystemNegativePermutedDrainOrder: replaying the whole-socket late
// work in any order other than the sealed canonical one must fail — the
// journal rejects the out-of-turn part and the cell records a failure.
func TestSystemNegativePermutedDrainOrder(t *testing.T) {
	cfg := conflictConfig(config.SchemeCOBCM)
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	perCore, err := SystemTrace(cfg, prof, 300)
	if err != nil {
		t.Fatal(err)
	}
	// Parts: 2 private + 2 shared = 4; swap the privates.
	order := []int{1, 0, 2, 3}
	checked := 0
	cell, err := InjectSystemTraceWith(cfg, prof, []byte("crashsim-fixed-verification-key!"), perCore,
		TraceOptions{Points: 12, Seed: 7}, func(snap *SystemSnapshot, golden *SystemGolden) error {
			if snap.NumEntries() == 0 {
				return nil // nothing to drain: order is vacuous at this point
			}
			res, err := snap.RecoverVerifyPermuted(golden, order)
			if err != nil {
				return err
			}
			checked++
			if res.Failures == 0 {
				t.Errorf("point %d: permuted drain order [1 0 2 3] verified clean", snap.PointIndex)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatalf("no snapshot held entries (injected %d); control never engaged", cell.Injected)
	}
}

// TestSystemNegativePermutedMergeOrder is the semantic control: a
// golden image built with the epoch-merge order reversed (descending
// core within each epoch) must fail differential verification wherever
// two cores' committed writes to the same shared block are merge-order
// dependent — proving the matrix pins which core's write wins at a
// barrier, not just that some value persisted.
func TestSystemNegativePermutedMergeOrder(t *testing.T) {
	cfg := conflictConfig(config.SchemeCM)
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	perCore, err := SystemTrace(cfg, prof, 800)
	if err != nil {
		t.Fatal(err)
	}
	engaged, failed := 0, 0
	_, err = InjectSystemTraceWith(cfg, prof, []byte("crashsim-fixed-verification-key!"), perCore,
		TraceOptions{Points: 0, Seed: 9, Kinds: []crashpoint.Kind{crashpoint.StoreAccept}},
		func(snap *SystemSnapshot, golden *SystemGolden) error {
			permuted := golden.SharedPermutedMerge()
			if reflect.DeepEqual(permuted, golden.Shared) {
				return nil // no merge-order-dependent conflict committed yet
			}
			engaged++
			res, err := snap.RecoverVerifyAgainst(golden.Priv, permuted)
			if err != nil {
				return err
			}
			if res.Failures > 0 {
				failed++
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if engaged == 0 {
		t.Fatal("conflict config produced no merge-order-dependent crash points")
	}
	if failed != engaged {
		t.Fatalf("permuted-merge golden verified clean at %d of %d conflicting points", engaged-failed, engaged)
	}
	t.Logf("merge-order control: %d conflicting points, all failed as demanded", engaged)
}

// TestSystemMatrixConflictHeavy runs the exhaustive matrix under the
// conflict-heavy shared configuration, where migrations and read
// flushes are frequent at every crash point.
func TestSystemMatrixConflictHeavy(t *testing.T) {
	cfg := conflictConfig(config.SchemeBCM)
	prof, err := workload.ByName("gromacs")
	if err != nil {
		t.Fatal(err)
	}
	perCore, err := SystemTrace(cfg, prof, 300)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := InjectSystemTrace(cfg, prof, []byte("crashsim-fixed-verification-key!"), perCore, TraceOptions{Points: 0, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if cell.Failures > 0 {
		t.Fatalf("%d failures, first: %s", cell.Failures, cell.FirstBad)
	}
	if uint64(cell.Injected) != cell.TotalPoints {
		t.Fatalf("injected %d of %d", cell.Injected, cell.TotalPoints)
	}
}

// systemMatrix is the multi-core crash grid TestSystemMatrixGolden pins:
// every SecPB scheme at 1, 2 and 4 cores on gcc, JSON-encoded the way
// Matrix.WriteJSON encodes the single-core matrix.
func systemMatrix(t *testing.T) []byte {
	t.Helper()
	opts := Options{Ops: 400, Points: 40, Seed: 42}
	m := struct {
		Ops    int                `json:"ops"`
		Seed   uint64             `json:"seed"`
		Points int                `json:"points_per_cell"`
		Cells  []SystemCellResult `json:"cells"`
	}{Ops: opts.Ops, Seed: opts.Seed, Points: opts.Points}
	for _, scheme := range config.SecPBSchemes() {
		for _, cores := range []int{1, 2, 4} {
			cell, err := RunSystemCell(scheme, "gcc", cores, opts)
			if err != nil {
				t.Fatalf("%s cores=%d: %v", scheme, cores, err)
			}
			m.Cells = append(m.Cells, cell)
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSystemMatrixGolden pins the multi-core crash matrix byte for byte:
// every cell's point counts, injections, drained entries, checked blocks
// and findings must match results/crash-matrix-multicore-seed42.json,
// which was generated before socket snapshots moved onto the
// single-core capture and recovery path.
func TestSystemMatrixGolden(t *testing.T) {
	want, err := os.ReadFile("../../results/crash-matrix-multicore-seed42.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := systemMatrix(t); !bytes.Equal(got, want) {
		t.Fatalf("multi-core crash matrix differs from its golden:\n%s", got)
	}
}
