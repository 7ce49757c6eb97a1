package crashsim

import (
	"bytes"
	"context"
	"testing"

	"secpb/internal/config"
)

// A small but real slice of the service kill matrix: every sampled
// kill point must resume to the golden committed prefix and finish
// byte-identical, and the per-cell tamper control must be refused. A
// second run of the same matrix must write byte-identical JSON: the
// artifact carries nothing that depends on host timing.
func TestServiceKillMatrixSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("service kill matrix is a long test")
	}
	explore := func() (*ServiceMatrix, []byte) {
		t.Helper()
		m, err := ExploreService(context.Background(), ServiceOptions{
			Schemes:   []config.Scheme{config.SchemeSP, config.SchemeCOBCM},
			Workloads: []string{"gcc"},
			Ops:       1200,
			SegOps:    128,
			Seed:      42,
			Points:    6,
			Dir:       t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return m, buf.Bytes()
	}
	m, first := explore()
	if _, second := explore(); !bytes.Equal(first, second) {
		t.Errorf("two runs of one matrix wrote different JSON:\n%s\n%s", first, second)
	}
	if len(m.Cells) != 2 {
		t.Fatalf("%d cells, want 2", len(m.Cells))
	}
	for _, c := range m.Cells {
		if c.Kills == 0 || c.Resumed != c.Kills || c.PrefixChecked != c.Kills {
			t.Errorf("%s/%s: kills=%d resumed=%d prefix=%d", c.Scheme, c.Workload, c.Kills, c.Resumed, c.PrefixChecked)
		}
		if !c.TamperRefused {
			t.Errorf("%s/%s: tamper control not refused", c.Scheme, c.Workload)
		}
		if c.Failures > 0 {
			t.Errorf("%s/%s: %d failures: %s", c.Scheme, c.Workload, c.Failures, c.FirstBad)
		}
	}
	if !m.Clean() {
		t.Fatal("matrix not clean")
	}
}

// The exhaustive tiny case: every upload boundary of a short trace is
// a kill point (Points<=0), including kill-at-create and
// kill-with-everything-queued.
func TestServiceKillEveryBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	cell, err := RunServiceCell(config.SchemeBCM, "gcc", ServiceOptions{
		Ops:    600,
		SegOps: 64,
		Seed:   7,
		Points: 0, // exhaustive
		Dir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if cell.Kills != cell.Segments+1 {
		t.Fatalf("kills=%d, want %d (every boundary)", cell.Kills, cell.Segments+1)
	}
	if cell.Failures > 0 {
		t.Fatalf("%d failures: %s", cell.Failures, cell.FirstBad)
	}
	if !cell.TamperRefused {
		t.Fatal("tamper control not refused")
	}
}
