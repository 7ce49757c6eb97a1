package workload

import (
	"math"
	"testing"

	"secpb/internal/addr"
	"secpb/internal/trace"
)

func TestAllProfilesValidate(t *testing.T) {
	ps := Profiles()
	if len(ps) != 18 {
		t.Fatalf("profile count = %d, want 18 (paper uses 18 SPEC2006 benchmarks)", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestPaperLandmarks(t *testing.T) {
	gamess, err := ByName("gamess")
	if err != nil {
		t.Fatal(err)
	}
	if gamess.StoresPerKilo != 47.4 {
		t.Errorf("gamess PPTI target = %v, want 47.4", gamess.StoresPerKilo)
	}
	povray, err := ByName("povray")
	if err != nil {
		t.Fatal(err)
	}
	if povray.StoresPerKilo != 38.8 {
		t.Errorf("povray PPTI target = %v, want 38.8", povray.StoresPerKilo)
	}
	bwaves, _ := ByName("bwaves")
	if bwaves.Pattern != Stream {
		t.Error("bwaves must be a streaming writer (capacity-insensitive NWPE)")
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Error("ByName accepted unknown benchmark")
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	good, _ := ByName("gamess")
	cases := []struct {
		name   string
		mutate func(*Profile)
	}{
		{"empty name", func(p *Profile) { p.Name = "" }},
		{"zero stores", func(p *Profile) { p.StoresPerKilo = 0 }},
		{"too many ops", func(p *Profile) { p.StoresPerKilo = 500; p.LoadsPerKilo = 500 }},
		{"zero burst", func(p *Profile) { p.Burst = 0 }},
		{"huge burst", func(p *Profile) { p.Burst = 100 }},
		{"zero ws", func(p *Profile) { p.WriteWorkingSet = 0 }},
		{"hot without skew", func(p *Profile) { p.Pattern = Hot; p.ZipfSkew = 0 }},
		{"bad recent frac", func(p *Profile) { p.ReadRecentFrac = 2 }},
	}
	for _, tc := range cases {
		p := good
		tc.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p, _ := ByName("gcc")
	a, err := Generate(p, 99, 2000)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(p, 99, 2000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs between same-seed runs", i)
		}
	}
	c, _ := Generate(p, 100, 2000)
	diff := 0
	for i := range a {
		if a[i] != c[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical streams")
	}
}

func TestGeneratorOpsAreValid(t *testing.T) {
	for _, p := range Profiles() {
		ops, err := Generate(p, 1, 500)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if len(ops) != 500 {
			t.Fatalf("%s: generated %d ops", p.Name, len(ops))
		}
		for i, op := range ops {
			if err := op.Validate(); err != nil {
				t.Fatalf("%s op %d: %v", p.Name, i, err)
			}
			if op.Kind == trace.Fence {
				t.Fatalf("%s op %d: unexpected fence", p.Name, i)
			}
		}
	}
}

// measurePPTI computes stores per kilo-instruction over a generated
// stream.
func measurePPTI(t *testing.T, name string, nops int) float64 {
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
	for _, op := range ops {
		instrs += op.Instructions()
		if op.Kind == trace.Store {
			stores++
		}
	}
	return float64(stores) / float64(instrs) * 1000
}

func TestPPTICalibration(t *testing.T) {
	// The measured store rate must land within 15% of each profile's
	// target (the generator draws gaps stochastically).
	for _, p := range Profiles() {
		got := measurePPTI(t, p.Name, 50000)
		want := p.StoresPerKilo
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("%s: measured PPTI %.1f, want %.1f +/-15%%", p.Name, got, want)
		}
	}
}

func TestStoreRegionDisjointFromScanRegion(t *testing.T) {
	p, _ := ByName("mcf")
	ops, _ := Generate(p, 3, 20000)
	for _, op := range ops {
		if op.Kind == trace.Store && op.Addr >= readBase {
			t.Fatal("store landed in read-only scan region")
		}
	}
}

func TestStreamPatternDoesNotRevisitQuickly(t *testing.T) {
	p, _ := ByName("bwaves")
	ops, _ := Generate(p, 3, 30000)
	lastSeen := map[addr.Block]int{}
	minRedist := 1 << 30
	var stores int
	var prev addr.Block
	for _, op := range ops {
		if op.Kind != trace.Store {
			continue
		}
		b := addr.BlockOf(op.Addr)
		if b != prev { // ignore within-burst repeats
			if at, ok := lastSeen[b]; ok {
				if d := stores - at; d < minRedist {
					minRedist = d
				}
			}
			lastSeen[b] = stores
			prev = b
		}
		stores++
	}
	// A streaming writer over a 128K-block footprint must have reuse
	// distance far larger than any SecPB.
	if minRedist < 10000 {
		t.Errorf("bwaves block reuse distance %d too small for a stream", minRedist)
	}
}

func TestHotPatternRevisits(t *testing.T) {
	p, _ := ByName("povray")
	ops, _ := Generate(p, 3, 30000)
	blocks := map[addr.Block]int{}
	for _, op := range ops {
		if op.Kind == trace.Store {
			blocks[addr.BlockOf(op.Addr)]++
		}
	}
	// povray writes a 96-block hot set; the stream must concentrate.
	if len(blocks) > p.WriteWorkingSet {
		t.Errorf("povray touched %d blocks, working set is %d", len(blocks), p.WriteWorkingSet)
	}
	max := 0
	for _, c := range blocks {
		if c > max {
			max = c
		}
	}
	if max < 100 {
		t.Errorf("hot set not hot: max writes to one block = %d", max)
	}
}

// batchCaps are the batch capacities the NextBatch tests drain at: one
// op, an odd prime, an engine-sized and the default replay batch.
var batchCaps = []int{1, 7, 256, trace.DefaultBatchCap}

// drainBatches reads every op of g through NextBatch at capacity
// capacity, failing if a batch is empty or overfilled.
func drainBatches(t *testing.T, g *Generator, capacity int) []trace.Op {
	t.Helper()
	b := trace.NewBatch(capacity)
	var ops []trace.Op
	for g.NextBatch(b) {
		if b.Len() == 0 || b.Len() > capacity {
			t.Fatalf("batch of %d ops at capacity %d", b.Len(), capacity)
		}
		for i := 0; i < b.Len(); i++ {
			ops = append(ops, b.Op(i))
		}
	}
	if g.NextBatch(b) {
		t.Fatal("NextBatch yielded ops after the end of the stream")
	}
	return ops
}

func TestGeneratorLimit(t *testing.T) {
	p, _ := ByName("namd")
	for _, limit := range []uint64{1, 10, 4097} {
		for _, c := range batchCaps {
			g, err := NewGenerator(p, 1, limit)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(drainBatches(t, g, c)); uint64(n) != limit {
				t.Errorf("limit %d at capacity %d produced %d ops", limit, c, n)
			}
		}
	}
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != 18 || names[4] != "gamess" {
		t.Errorf("Names() = %v", names)
	}
}

func TestPatternString(t *testing.T) {
	if Stream.String() != "stream" || Hot.String() != "hot" || Scan.String() != "scan" {
		t.Error("pattern names wrong")
	}
}

func BenchmarkGenerate(b *testing.B) {
	p, _ := ByName("gcc")
	b.ReportAllocs()
	batch := trace.NewBatch(trace.DefaultBatchCap)
	for i := 0; i < b.N; i++ {
		g, _ := NewGenerator(p, 1, 10000)
		for g.NextBatch(batch) {
		}
	}
}

// TestNextBatchMatchesScalarStream: NextBatch yields exactly Generate's
// op stream at every batch capacity, including capacities that do not
// divide the op limit, so batch edges fall at different ops.
func TestNextBatchMatchesScalarStream(t *testing.T) {
	for _, name := range []string{"povray", "gamess", "mcf"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		requireBatchesMatchGenerate(t, p, 10000)
	}
}

// requireBatchesMatchGenerate drains p's first n ops through NextBatch
// at every capacity in batchCaps and compares them with Generate's.
func requireBatchesMatchGenerate(t *testing.T, p Profile, n int) {
	t.Helper()
	want, err := Generate(p, 42, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range batchCaps {
		g, err := NewGenerator(p, 42, uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		got := drainBatches(t, g, c)
		if len(got) != len(want) {
			t.Fatalf("%s at capacity %d: %d ops, Generate %d", p.Name, c, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s at capacity %d: op %d differs: batched %+v, Generate %+v", p.Name, c, i, got[i], want[i])
			}
		}
	}
}
