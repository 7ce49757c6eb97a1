package coherence_test

import (
	"testing"

	"secpb/internal/addr"
	"secpb/internal/coherence"
	"secpb/internal/config"
	"secpb/internal/recovery"
	"secpb/internal/xrand"
)

func TestMultiCoreCrashRecovery(t *testing.T) {
	// The battery backs every core's SecPB: after a crash all entries
	// drain and the shared PM image recovers the coherent view exactly.
	for _, scheme := range []config.Scheme{config.SchemeCOBCM, config.SchemeM} {
		s, err := coherence.New(config.Default().WithScheme(scheme), 4, []byte("coh"))
		if err != nil {
			t.Fatal(err)
		}
		r := xrand.New(7)
		for i := 0; i < 3000; i++ {
			corei := r.Intn(4)
			a := uint64(0x10000000) + uint64(r.Intn(200))*addr.BlockBytes + uint64(r.Intn(8))*8
			if _, err := s.StoreEx(corei, a, 8, r.Uint64()); err != nil {
				t.Fatal(err)
			}
		}
		n, err := s.CrashDrainAll()
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if n == 0 {
			t.Fatalf("%v: nothing drained", scheme)
		}
		var rep recovery.Report
		if err := new(recovery.Verifier).Verify(s.Controller(), s.Memory(), &rep); err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if !rep.Clean() || rep.BlocksChecked == 0 {
			t.Fatalf("%v: %s", scheme, rep)
		}
	}
}
