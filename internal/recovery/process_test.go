package recovery

import (
	"strings"
	"testing"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/core"
	"secpb/internal/nvm"
)

// twoProcessSecPB builds a SecPB holding entries from two processes and
// returns it plus each process's reference view.
func twoProcessSecPB(t *testing.T, scheme config.Scheme) (*core.SecPB, *nvm.Controller,
	map[addr.Block][addr.BlockBytes]byte, map[addr.Block][addr.BlockBytes]byte) {
	t.Helper()
	cfg := config.Default().WithScheme(scheme)
	mc, err := nvm.NewController(cfg, []byte("proc"))
	if err != nil {
		t.Fatal(err)
	}
	spb, err := core.New(cfg, mc)
	if err != nil {
		t.Fatal(err)
	}
	ref1 := map[addr.Block][addr.BlockBytes]byte{}
	ref2 := map[addr.Block][addr.BlockBytes]byte{}
	var cost core.AcceptCost
	for i := uint64(0); i < 5; i++ {
		b1 := addr.FromIndex(0x1000 + i)
		b2 := addr.FromIndex(0x2000 + i)
		if err := spb.AcceptStoreInit(1, b1, 0, 8, 0xA0+i, nil, 0, &cost); err != nil {
			t.Fatal(err)
		}
		if err := spb.AcceptStoreInit(2, b2, 0, 8, 0xB0+i, nil, 0, &cost); err != nil {
			t.Fatal(err)
		}
		var d1, d2 [addr.BlockBytes]byte
		d1[0] = byte(0xA0 + i)
		d2[0] = byte(0xB0 + i)
		ref1[b1], ref2[b2] = d1, d2
	}
	return spb, mc, ref1, ref2
}

func TestAppCrashDrainAllPolicy(t *testing.T) {
	spb, mc, ref1, ref2 := twoProcessSecPB(t, config.SchemeCOBCM)
	// Drain-all persists everyone's entries.
	all := map[addr.Block][addr.BlockBytes]byte{}
	for b, d := range ref1 {
		all[b] = d
	}
	for b, d := range ref2 {
		all[b] = d
	}
	rep, err := HandleAppCrash(spb, mc, 1, DrainAll, all)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EntriesDrained != 10 || rep.EntriesLeft != 0 {
		t.Errorf("drain-all: %s", rep)
	}
}

func TestAppCrashDrainProcessPolicy(t *testing.T) {
	for _, scheme := range []config.Scheme{config.SchemeCOBCM, config.SchemeNoGap} {
		spb, mc, ref1, _ := twoProcessSecPB(t, scheme)
		rep, err := HandleAppCrash(spb, mc, 1, DrainProcess, ref1)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if rep.EntriesDrained != 5 {
			t.Errorf("%v: drained %d, want 5", scheme, rep.EntriesDrained)
		}
		if rep.EntriesLeft != 5 {
			t.Errorf("%v: left %d, want 5 (process 2 untouched)", scheme, rep.EntriesLeft)
		}
		// Process 2's blocks must NOT have persisted yet.
		for i := uint64(0); i < 5; i++ {
			if _, ok := mc.PM().Peek(addr.FromIndex(0x2000 + i)); ok {
				t.Errorf("%v: drain-process persisted another process's block", scheme)
			}
		}
	}
}

func TestAppCrashBadScope(t *testing.T) {
	spb, mc, ref1, _ := twoProcessSecPB(t, config.SchemeCOBCM)
	if _, err := HandleAppCrash(spb, mc, 1, DrainScope(9), ref1); err == nil {
		t.Error("invalid scope accepted")
	}
}

func TestProcessCrashReportString(t *testing.T) {
	r := ProcessCrashReport{Scope: DrainProcess, ASID: 3, EntriesDrained: 2, EntriesLeft: 1}
	if !strings.Contains(r.String(), "drain-process") || !strings.Contains(r.String(), "asid 3") {
		t.Errorf("report: %s", r)
	}
	if DrainAll.String() != "drain-all" {
		t.Error("scope name")
	}
}
