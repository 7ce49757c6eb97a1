package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"secpb/internal/config"
	"secpb/internal/engine"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		label string
	}{
		{0, ""}, {99, ""}, {100, "p90"}, {999, "p90"}, {1000, "p99"},
		{9999, "p99"}, {10000, "p99.9"}, {100000, "p99.99"},
	}
	for _, c := range cases {
		p, label, ok := tailPercentile(c.n)
		if label != c.label || ok != (c.label != "") {
			t.Errorf("n=%d: got %q ok=%v, want %q", c.n, label, ok, c.label)
		}
		if ok && float64(c.n)*(1-p) < 10-1e-9 {
			t.Errorf("n=%d: %s leaves %.1f samples beyond it", c.n, label, float64(c.n)*(1-p))
		}
	}
}

func TestTimingReportsMedianTailAndCount(t *testing.T) {
	var s samples
	for i := 1000; i >= 1; i-- {
		s = append(s, float64(i))
	}
	m := s.timing("x_ms", "ms")
	if m.Value != 500 || m.N != 1000 || m.Tail != "p99" || m.TailV != 990 {
		t.Fatalf("got %+v, want median 500, n 1000, p99 990", m)
	}
	small := samples{3, 1, 2}.timing("y", "s")
	if small.Value != 2 || small.N != 3 || small.Tail != "" {
		t.Fatalf("got %+v, want median 2 with no tail", small)
	}
}

func TestOpenLoopTimesFromDueAndReportsLateness(t *testing.T) {
	const interval = 5 * time.Millisecond
	const stall = 30 * time.Millisecond
	start := time.Now().Add(2 * time.Millisecond)
	reqs, err := openLoop(start, 6, interval, func(i int) (int, error) {
		if i == 1 {
			time.Sleep(stall)
		}
		return http.StatusAccepted, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		if want := start.Add(time.Duration(i) * interval); !r.due.Equal(want) {
			t.Fatalf("request %d due %v, want %v", i, r.due, want)
		}
		if r.latency() < r.late() {
			t.Errorf("request %d: latency %v below lateness %v", i, r.latency(), r.late())
		}
	}
	// Request 2 fell due while request 1 stalled: it is sent late, and
	// its latency counts that wait.
	if late := reqs[2].late(); late < stall-2*interval {
		t.Errorf("request 2 lateness %v, want at least %v", late, stall-2*interval)
	}
	if lat := reqs[1].latency(); lat < stall {
		t.Errorf("stalled request latency %v, want at least %v", lat, stall)
	}
	s := summarize(reqs)
	if s.late.at(1) < ms(stall-2*interval) {
		t.Errorf("summary max lateness %.3f ms does not show the stall", s.late.at(1))
	}
}

// TestRefusedRequestsCountAsFailedAndAreRetried drives the open loop
// against a fake server that refuses the first upload of every third
// ordinal with 429: every ordinal must still be acknowledged, and each
// refusal counts as an attempted and failed request.
func TestRefusedRequestsCountAsFailedAndAreRetried(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i, err := strconv.Atoi(r.URL.Path[strings.LastIndexByte(r.URL.Path, '/')+1:])
		if err != nil {
			http.Error(w, "bad ordinal", http.StatusBadRequest)
			return
		}
		mu.Lock()
		seen[i]++
		first := seen[i] == 1
		mu.Unlock()
		if first && i%3 == 0 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	}))
	defer srv.Close()

	const n = 9
	reqs, err := openLoop(time.Now(), n, time.Millisecond, func(i int) (int, error) {
		resp, err := srv.Client().Post(srv.URL+"/segments/"+strconv.Itoa(i), "application/octet-stream", nil)
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != n {
		t.Fatalf("%d of %d requests completed", len(reqs), n)
	}
	s := summarize(reqs)
	if s.ref != 3 || s.failed != 3 || s.attempted != n+3 {
		t.Fatalf("refused %d failed %d attempted %d, want 3, 3, %d", s.ref, s.failed, s.attempted, n+3)
	}
	for _, i := range []int{0, 3, 6} {
		if reqs[i].attempts != 2 || reqs[i].latency() < retryBackoff {
			t.Errorf("request %d: %d attempts, latency %v; want a retry after the 429", i, reqs[i].attempts, reqs[i].latency())
		}
	}
	// A refusal misses the latency limit however fast the retry was.
	r := rungResult{ackP99: 0.1, refused: s.ref}
	if r.ok(1000) {
		t.Error("a rung with refusals met the limit")
	}
}

// fakeServer models a service that keeps up with any offered rate up
// to its capacity and builds a backlog, refuses and slows beyond it.
type fakeServer struct {
	capacity float64
	flakyAt  float64 // this rate fails the first time it is offered
	offered  []float64
}

func (f *fakeServer) rung(rate float64) (rungResult, error) {
	f.offered = append(f.offered, rate)
	if rate == f.flakyAt {
		f.flakyAt = 0
		return rungResult{rate: rate, ackP99: 80}, nil
	}
	if rate <= f.capacity {
		return rungResult{rate: rate, ackP99: 2}, nil
	}
	return rungResult{rate: rate, ackP99: 400, refused: 7, depthFirst: 1, depthLast: 30}, nil
}

func TestLadderFindsHighestRungWithinCapacity(t *testing.T) {
	for _, capacity := range []float64{ladderBase, 300, 700, 1024, ladderRate(ladderTop), 1e9} {
		f := &fakeServer{capacity: capacity}
		got, rungs, err := searchLadder(true, 50, f.rung)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for k := 0; k <= ladderTop; k++ {
			if ladderRate(k) <= capacity {
				want = ladderRate(k)
			}
		}
		if got != want {
			t.Errorf("capacity %.0f: max_ok_rate %.2f, want %.2f (offered %v)", capacity, got, want, f.offered)
		}
		if len(rungs) > 12 {
			t.Errorf("capacity %.0f: ran %d rungs, want a bisection", capacity, len(rungs))
		}
	}
	// One transient failure below capacity is retried, not believed.
	f := &fakeServer{capacity: 700, flakyAt: ladderRate(16)}
	if got, _, _ := searchLadder(true, 50, f.rung); got != ladderRate(19) {
		t.Errorf("transient failure: max_ok_rate %.2f, want %.2f (offered %v)", got, ladderRate(19), f.offered)
	}
	got, rungs, _ := searchLadder(false, 50, (&fakeServer{capacity: 1e9}).rung)
	if got != 0 || len(rungs) != 0 {
		t.Errorf("failed nominal rung: got %.0f after %d rungs, want 0 and none", got, len(rungs))
	}
}

func TestRungLimit(t *testing.T) {
	ok := rungResult{ackP99: 49, depthFirst: 1, depthLast: 3}
	if !ok.ok(50) {
		t.Error("rung within limits rejected")
	}
	for name, r := range map[string]rungResult{
		"slow":    {ackP99: 51},
		"refused": {ackP99: 1, refused: 1},
		"backlog": {ackP99: 1, depthFirst: 0, depthLast: 5},
	} {
		if r.ok(50) {
			t.Errorf("%s rung met the limit", name)
		}
	}
}

func TestDurableLatenciesFromPolls(t *testing.T) {
	t0 := time.Now()
	reqs := make([]reqTiming, 4)
	for i := range reqs {
		reqs[i].due = t0.Add(time.Duration(i) * 10 * time.Millisecond)
	}
	polls := []poll{
		{at: t0.Add(5 * time.Millisecond), durable: 0},
		{at: t0.Add(25 * time.Millisecond), durable: 2},
		{at: t0.Add(45 * time.Millisecond), durable: 3},
	}
	got := durableLatencies(reqs, polls)
	want := []float64{25, 15, 25} // segment 3 became durable only at finalize
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if d := got[i] - want[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestDigestCoversNamedFieldsOnly(t *testing.T) {
	base := []engine.Result{
		{Benchmark: "gcc", Scheme: config.SchemeCM, Cycles: 10, Instructions: 20, PMReads: 3, PMWrites: 4, BMTRootUpdates: 5, EntriesAllocated: 6, PeakOccupancy: 7},
		{Benchmark: "mcf", Scheme: config.SchemeBBB, Cycles: 11},
	}
	want := resultsDigest(base)
	if got := resultsDigest([]engine.Result{base[1], base[0]}); got != want {
		t.Error("digest depends on cell order")
	}
	perturb := []func(*engine.Result){
		func(r *engine.Result) { r.Cycles++ },
		func(r *engine.Result) { r.Instructions++ },
		func(r *engine.Result) { r.PMReads++ },
		func(r *engine.Result) { r.PMWrites++ },
		func(r *engine.Result) { r.BMTRootUpdates++ },
		func(r *engine.Result) { r.EntriesAllocated++ },
		func(r *engine.Result) { r.PeakOccupancy++ },
	}
	for i, p := range perturb {
		c := append([]engine.Result(nil), base...)
		p(&c[0])
		if resultsDigest(c) == want {
			t.Errorf("perturbation %d left the digest unchanged", i)
		}
	}
	c := append([]engine.Result(nil), base...)
	c[0].GapMean = 99
	if resultsDigest(c) != want {
		t.Error("a field outside the named set changed the digest")
	}
}

func TestStreamCheckRejectsOneByteTamper(t *testing.T) {
	ins, _, err := prepareStream(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	goldens, err := goldenResults(ins)
	if err != nil {
		t.Fatal(err)
	}
	ph := streamPhase{runs: make([]sessionRun, len(ins))}
	for i := range ins {
		ph.runs[i].result = goldens[i]
	}
	rep := &report{}
	checkStream(rep, ins, goldens, ph)
	if !rep.correct() || len(rep.checks) != 2*len(ins) {
		t.Fatalf("untampered results: checks %+v", rep.checks)
	}
	ph.runs[1].result = append([]byte(nil), ph.runs[1].result...)
	ph.runs[1].result[3] ^= 0x20
	rep = &report{}
	checkStream(rep, ins, goldens, ph)
	if rep.correct() {
		t.Fatalf("tampered result passed: %+v", rep.checks)
	}
}

func TestReportNeedsChecksAndPassingControls(t *testing.T) {
	rep := &report{}
	if rep.correct() {
		t.Error("a report without checks is correct")
	}
	rep.expect("ok", true)
	rep.control("broken output rejected", false)
	if !rep.correct() {
		t.Error("passing check plus rejected control should be correct")
	}
	rep.control("broken output accepted", true)
	if rep.correct() {
		t.Error("a control whose broken output passed the check should fail the run")
	}
}

// The metric lists the program enforces on its result line are the ones
// BENCHMARK.json declares, in the same units.
func TestMetricListsMatchManifest(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		got  []named
		man  []struct{ Name, Unit string }
	}{{"end_to_end", e2eMetrics, man.EndToEnd}, {"per_layer", layerMetrics, man.PerLayer}} {
		if len(c.got) != len(c.man) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", c.kind, len(c.got), len(c.man))
			continue
		}
		for i, m := range c.man {
			if c.got[i] != (named{m.Name, m.Unit}) {
				t.Errorf("%s[%d]: program %v, BENCHMARK.json %s %s", c.kind, i, c.got[i], m.Name, m.Unit)
			}
		}
	}
}

func TestSameMetricsRejectsMissingExtraAndWrongUnit(t *testing.T) {
	want := []named{{"a", "s"}, {"b", "ms"}}
	ok := []metric{{Name: "b", Unit: "ms"}, {Name: "a", Unit: "s"}}
	if err := sameMetrics(ok, want); err != nil {
		t.Errorf("complete set refused: %v", err)
	}
	for _, bad := range [][]metric{
		{{Name: "a", Unit: "s"}},
		{{Name: "a", Unit: "s"}, {Name: "b", Unit: "ms"}, {Name: "c", Unit: "ms"}},
		{{Name: "a", Unit: "s"}, {Name: "b", Unit: "s"}},
		{{Name: "a", Unit: "s"}, {Name: "a", Unit: "s"}, {Name: "b", Unit: "ms"}},
	} {
		if sameMetrics(bad, want) == nil {
			t.Errorf("accepted %v", bad)
		}
	}
}
