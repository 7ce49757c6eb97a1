package workload

import (
	"bytes"
	"math"
	"testing"

	"secpb/internal/addr"
	"secpb/internal/trace"
)

func TestZooProfilesValidate(t *testing.T) {
	ps := ZooProfiles()
	if len(ps) != 8 {
		t.Fatalf("zoo profile count = %d, want 8", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range Profiles() {
		seen[p.Name] = true
	}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Errorf("zoo profile %s duplicates another profile", p.Name)
		}
		seen[p.Name] = true
		if !p.Pattern.zoo() {
			t.Errorf("%s: pattern %v is not a zoo pattern", p.Name, p.Pattern)
		}
	}
	names := ZooNames()
	if len(names) != len(ps) || names[0] != "kvstore" || names[len(names)-1] != "adv-battery" {
		t.Errorf("ZooNames() = %v", names)
	}
}

func TestZooByName(t *testing.T) {
	p, err := ByName("wal")
	if err != nil {
		t.Fatal(err)
	}
	if p.Pattern != WAL {
		t.Errorf("ByName(wal).Pattern = %v", p.Pattern)
	}
	// SPEC proxies still resolve.
	if _, err := ByName("gamess"); err != nil {
		t.Errorf("ByName(gamess): %v", err)
	}
}

func TestZooPatternStrings(t *testing.T) {
	want := map[Pattern]string{
		KV: "kv", WAL: "wal", GC: "gc", Tenants: "tenants",
		AdvOccupancy: "adv-occupancy", AdvBMTBlast: "adv-bmtblast", AdvBattery: "adv-battery",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), s)
		}
		if !p.zoo() {
			t.Errorf("%v not classified as zoo", p)
		}
	}
	if Stream.zoo() || Hot.zoo() || Scan.zoo() {
		t.Error("SPEC-proxy pattern classified as zoo")
	}
}

func TestZooValidateRejectsBadProfiles(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Profile)
	}{
		{"kv without skew", func(p *Profile) { p.Pattern = KV; p.ZipfSkew = 0 }},
		{"tenants without skew", func(p *Profile) { p.Pattern = Tenants; p.Tenants = 4; p.ZipfSkew = 0 }},
		{"bad delete frac", func(p *Profile) { p.DeleteFrac = 1.5 }},
		{"wal without checkpoint", func(p *Profile) { p.Pattern = WAL; p.CheckpointEvery = 0 }},
		{"single tenant", func(p *Profile) { p.Pattern = Tenants; p.Tenants = 1 }},
	}
	good, _ := ByName("kvstore")
	for _, tc := range cases {
		p := good
		tc.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestZooDeterminism: every zoo stream is a pure function of
// (profile, seed); different seeds diverge.
func TestZooDeterminism(t *testing.T) {
	for _, p := range ZooProfiles() {
		a, err := Generate(p, 99, 3000)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		b, _ := Generate(p, 99, 3000)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: op %d differs between same-seed runs", p.Name, i)
			}
		}
		c, _ := Generate(p, 100, 3000)
		diff := 0
		for i := range a {
			if a[i] != c[i] {
				diff++
			}
		}
		if diff == 0 {
			t.Errorf("%s: different seeds produced identical streams", p.Name)
		}
	}
}

// TestZooOpsAreValid: every op of every zoo stream passes Op.Validate.
func TestZooOpsAreValid(t *testing.T) {
	for _, p := range ZooProfiles() {
		ops, err := Generate(p, 1, 5000)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if len(ops) != 5000 {
			t.Fatalf("%s: generated %d ops", p.Name, len(ops))
		}
		for i, op := range ops {
			if err := op.Validate(); err != nil {
				t.Fatalf("%s op %d: %v", p.Name, i, err)
			}
		}
	}
}

// TestZooRegionsDisjoint: stores stay inside the persistent region
// (below readBase) and non-recent loads stay out of it, for every zoo
// generator — and the WAL's log never collides with any home region.
func TestZooRegionsDisjoint(t *testing.T) {
	for _, p := range ZooProfiles() {
		ops, _ := Generate(p, 3, 20000)
		for i, op := range ops {
			if op.Kind == trace.Store && op.Addr >= readBase {
				t.Fatalf("%s op %d: store %#x in read region", p.Name, i, op.Addr)
			}
		}
	}
	// WAL home blocks stay below the log base; log blocks at or above it.
	wal, _ := ByName("wal")
	ops, _ := Generate(wal, 5, 30000)
	for i, op := range ops {
		if op.Kind != trace.Store {
			continue
		}
		if op.Addr >= walLogBase {
			if off := op.Addr - walLogBase; off >= uint64(wal.WriteWorkingSet)*addr.BlockBytes {
				t.Fatalf("wal op %d: log store %#x beyond log region", i, op.Addr)
			}
		} else if off := op.Addr - persistBase; off >= uint64(wal.WriteWorkingSet)*addr.BlockBytes {
			t.Fatalf("wal op %d: home store %#x beyond home region", i, op.Addr)
		}
	}
	// Tenant write regions are disjoint per tenant by construction:
	// every store lands inside the Tenants*WriteWorkingSet span.
	tm, _ := ByName("tenantmix")
	ops, _ = Generate(tm, 5, 30000)
	span := uint64(tm.Tenants) * uint64(tm.WriteWorkingSet) * addr.BlockBytes
	for i, op := range ops {
		if op.Kind == trace.Store {
			if off := op.Addr - persistBase; off >= span {
				t.Fatalf("tenantmix op %d: store %#x outside tenant span", i, op.Addr)
			}
		}
	}
}

// zooStats measures the empirical stream statistics a calibration band
// is written against.
type zooStats struct {
	ppti     float64 // stores per kilo-instruction
	nwpe     float64 // stores per distinct-block episode (coalescing proxy)
	fences   int
	distinct int
}

func measureZoo(t *testing.T, name string, nops int) zooStats {
	t.Helper()
	p, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := Generate(p, 7, nops)
	if err != nil {
		t.Fatal(err)
	}
	var instrs, stores uint64
	blocks := map[addr.Block]bool{}
	var entries uint64 // distinct-block transitions of the store stream
	var prev addr.Block
	var s zooStats
	for _, op := range ops {
		instrs += op.Instructions()
		switch op.Kind {
		case trace.Store:
			stores++
			b := addr.BlockOf(op.Addr)
			blocks[b] = true
			if b != prev {
				entries++
				prev = b
			}
		case trace.Fence:
			s.fences++
		}
	}
	s.ppti = float64(stores) / float64(instrs) * 1000
	s.nwpe = float64(stores) / float64(entries)
	s.distinct = len(blocks)
	return s
}

// TestZooPPTICalibration: measured persist rate lands within 15% of
// each profile's StoresPerKilo target, like the SPEC proxies.
func TestZooPPTICalibration(t *testing.T) {
	for _, p := range ZooProfiles() {
		got := measureZoo(t, p.Name, 60000).ppti
		if math.Abs(got-p.StoresPerKilo)/p.StoresPerKilo > 0.15 {
			t.Errorf("%s: measured PPTI %.1f, want %.1f +/-15%%", p.Name, got, p.StoresPerKilo)
		}
	}
}

// TestZooNWPEBands: the stream-level coalescing proxy (consecutive
// same-block stores) lands in each generator's designed band — KV/WAL
// records coalesce to their record length, GC and the adversarial
// walkers pin at 1 (every store a fresh entry).
func TestZooNWPEBands(t *testing.T) {
	bands := map[string][2]float64{
		"kvstore":       {2.5, 4.5},
		"kvheavy":       {3.5, 6.5},
		"wal":           {3.0, 8.5},
		"gcmark":        {1.0, 1.1},
		"tenantmix":     {3.5, 7.0},
		"adv-occupancy": {1.0, 1.05},
		"adv-bmtblast":  {1.0, 1.05},
		"adv-battery":   {1.0, 1.05},
	}
	for name, band := range bands {
		got := measureZoo(t, name, 60000).nwpe
		if got < band[0] || got > band[1] {
			t.Errorf("%s: stream NWPE %.2f outside [%.2f, %.2f]", name, got, band[0], band[1])
		}
	}
}

// TestZooShapes: structural properties that make each generator what
// it claims to be.
func TestZooShapes(t *testing.T) {
	// WAL: fences present, one per record episode (roughly stores/Burst).
	wal := measureZoo(t, "wal", 60000)
	if wal.fences == 0 {
		t.Error("wal: no fences")
	}
	// Occupancy maximizer: cycles the whole working set — every store a
	// distinct block until wraparound.
	occ, _ := ByName("adv-occupancy")
	if got := measureZoo(t, "adv-occupancy", 60000).distinct; got != occ.WriteWorkingSet {
		t.Errorf("adv-occupancy touched %d blocks, want the full %d working set", got, occ.WriteWorkingSet)
	}
	// Blast walker: consecutive stores land on different pages.
	ops, _ := Generate(mustByName(t, "adv-bmtblast"), 11, 20000)
	var prevPage uint64
	first := true
	for _, op := range ops {
		if op.Kind != trace.Store {
			continue
		}
		page := op.Addr / addr.PageBytes
		if !first && page == prevPage {
			t.Fatal("adv-bmtblast: consecutive stores on the same page")
		}
		prevPage, first = page, false
	}
	// Battery pessimizer: zero-gap trains — most stores carry no gap.
	ops, _ = Generate(mustByName(t, "adv-battery"), 11, 20000)
	var stores, zeroGap int
	for _, op := range ops {
		if op.Kind == trace.Store {
			stores++
			if op.Gap == 0 {
				zeroGap++
			}
		}
	}
	if float64(zeroGap)/float64(stores) < 0.9 {
		t.Errorf("adv-battery: only %d/%d stores gapless", zeroGap, stores)
	}
	// GC: loads dominate and chase with no spatial locality (distinct
	// blocks between consecutive loads nearly always).
	ops, _ = Generate(mustByName(t, "gcmark"), 11, 20000)
	var loads, moved int
	var prevLoad uint64
	for _, op := range ops {
		if op.Kind != trace.Load {
			continue
		}
		loads++
		if addr.BlockOf(op.Addr) != addr.BlockOf(prevLoad) {
			moved++
		}
		prevLoad = op.Addr
	}
	if loads == 0 || float64(moved)/float64(loads) < 0.95 {
		t.Errorf("gcmark: pointer chase too local (%d/%d moves)", moved, loads)
	}
}

func mustByName(t *testing.T, name string) Profile {
	t.Helper()
	p, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestZooNextBatchMatchesScalar: the batched path emits Generate's
// stream for zoo state machines too, at every batch capacity.
func TestZooNextBatchMatchesScalar(t *testing.T) {
	for _, name := range ZooNames() {
		requireBatchesMatchGenerate(t, mustByName(t, name), 8000)
	}
}

// TestZooCompression: every zoo trace round-trips SPB2 op-exactly and
// takes at most 6 bytes per op, where an op's fields take 22.
func TestZooCompression(t *testing.T) {
	const nops = 40000
	for _, p := range ZooProfiles() {
		ops, err := Generate(p, 13, nops)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		var b2 bytes.Buffer
		w2 := trace.NewSegWriter(&b2, 0)
		for _, op := range ops {
			if err := w2.Write(op); err != nil {
				t.Fatalf("%s: SPB2 write: %v", p.Name, err)
			}
		}
		if err := w2.Flush(); err != nil {
			t.Fatal(err)
		}
		// Op-exact decode.
		got, err := trace.NewSegReader(bytes.NewReader(b2.Bytes())).ReadAll()
		if err != nil {
			t.Fatalf("%s: decode: %v", p.Name, err)
		}
		if len(got) != len(ops) {
			t.Fatalf("%s: decoded %d ops, want %d", p.Name, len(got), len(ops))
		}
		for i := range ops {
			if got[i] != ops[i] {
				t.Fatalf("%s: op %d decode mismatch", p.Name, i)
			}
		}
		perOp := float64(b2.Len()) / nops
		t.Logf("%s: SPB2 %d B (%.2f B/op)", p.Name, b2.Len(), perOp)
		if perOp > 6 {
			t.Errorf("%s: SPB2 takes %.2f B/op, want <= 6", p.Name, perOp)
		}
	}
}
