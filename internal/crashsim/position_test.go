package crashsim

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/workload"
)

// pointHash folds a crash-point sequence into one FNV-64a value, field
// by field in little-endian order.
type pointHash struct {
	sum func() uint64
	add func(vals ...uint64)
	n   int
}

func newPointHash() *pointHash {
	f := fnv.New64a()
	p := &pointHash{sum: f.Sum64}
	p.add = func(vals ...uint64) {
		var b [8]byte
		for _, v := range vals {
			binary.LittleEndian.PutUint64(b[:], v)
			f.Write(b[:])
		}
	}
	return p
}

// TestCrashPointPositions pins every crash point's position in the run —
// its kind, ordinal, the op in flight, the engine clock and the
// committed-store count — for every point of two single-core cells and
// one 2-core System cell. The constants were recorded before the crash
// injector moved from a per-op source onto columnar replay: a change to
// how ops reach the engine that moved any point by one op or one cycle
// fails here, even where recovery still verifies.
func TestCrashPointPositions(t *testing.T) {
	key := []byte("crash-point-position-key")
	for _, tc := range []struct {
		scheme config.Scheme
		wl     string
		want   uint64
	}{
		{config.SchemeCOBCM, "gcc", 0x96f51a9f2616c2ee},
		{config.SchemeNoGap, "kvstore", 0x8d7a3459490a24a3},
	} {
		t.Run(tc.scheme.String()+"/"+tc.wl, func(t *testing.T) {
			prof, err := workload.ByName(tc.wl)
			if err != nil {
				t.Fatal(err)
			}
			cfg := config.Default().WithScheme(tc.scheme)
			cfg.Seed = 77
			ops, err := workload.Generate(prof, cfg.Seed, 3000)
			if err != nil {
				t.Fatal(err)
			}
			ph := newPointHash()
			cell, err := InjectTraceWith(cfg, prof, key, ops, TraceOptions{Seed: 3},
				func(s *Snapshot, _ map[addr.Block][addr.BlockBytes]byte) error {
					ph.add(uint64(s.Kind), s.PointIndex, uint64(s.OpIndex), s.Cycle, uint64(s.Committed))
					ph.n++
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if uint64(ph.n) != cell.TotalPoints {
				t.Fatalf("handler saw %d of %d points", ph.n, cell.TotalPoints)
			}
			if got := ph.sum(); got != tc.want {
				t.Errorf("%d points hash to %#x, want %#x", ph.n, got, tc.want)
			}
		})
	}

	t.Run("system/cobcm/gcc/2", func(t *testing.T) {
		const want uint64 = 0xdfeee1c241d97aee
		prof, err := workload.ByName("gcc")
		if err != nil {
			t.Fatal(err)
		}
		cfg := conflictConfig(config.SchemeCOBCM)
		perCore, err := SystemTrace(cfg, prof, 600)
		if err != nil {
			t.Fatal(err)
		}
		ph := newPointHash()
		var inj *systemInjector
		inj, err = newSystemInjector(cfg, prof, key, perCore, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := inj.Run(); err != nil {
			t.Fatal(err)
		}
		total, _ := inj.Points()
		inj, err = newSystemInjector(cfg, prof, key, perCore, chooseTriggers(total, 0, 3),
			func(s *SystemSnapshot, _ *SystemGolden) error {
				ph.add(uint64(s.Kind), s.PointIndex)
				for c := 0; c < inj.sys.Cores(); c++ {
					ph.add(inj.sys.Core(c).Now(), uint64(s.Committed[c]), uint64(s.SharedCommitted[c]))
				}
				ph.n++
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if err := inj.Run(); err != nil {
			t.Fatal(err)
		}
		if uint64(ph.n) != total {
			t.Fatalf("handler saw %d of %d points", ph.n, total)
		}
		if got := ph.sum(); got != want {
			t.Errorf("%d points hash to %#x, want %#x", ph.n, got, want)
		}
	})
}
