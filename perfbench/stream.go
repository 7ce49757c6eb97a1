package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"secpb/internal/engine"
	"secpb/internal/service"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

const (
	streamSegOps  = 4096                  // ops per uploaded segment
	ladderBase    = 128.0                 // rung 0: the nominal offered rate, all sessions
	ladderTop     = 32                    // highest rung: 2^(32/8) = 16x the nominal rate
	streamPoll    = 10 * time.Millisecond // in-process status sampling interval when behind schedule
	pollMargin    = 2 * time.Millisecond  // idle time kept free of polling before each upload
	streamLateMax = 50 * time.Millisecond // loadgen lateness p99 beyond this voids the run's latencies
	rungSeconds   = 1.0
	nominalShare  = 0.4 // of --seconds
	saturateShare = 0.2 // of --seconds; the ladder takes most of the rest
	satWindow     = 16  // segments a saturating sender lets queue: half the default queue, so never a 429
	satPoll       = 200 * time.Microsecond
	streamPairs   = 8 // consecutive session pairs in the nominal phase
)

// streamWorkloads are the two sessions: a read-heavy key-value store
// with deletes and a write-heavy write-ahead log.
var streamWorkloads = []string{"kvstore", "wal"}

// streamInput is one session's spec and its pre-encoded uploads.
type streamInput struct {
	spec   service.Spec
	ops    int      // ops over all bodies
	bodies [][]byte // SPB2 header + one sealed segment frame
}

// prepareStream generates each session's ops and encodes them into
// single-segment SPB2 upload bodies. It returns the time spent encoding.
func prepareStream(seed uint64, segs int) ([]streamInput, time.Duration, error) {
	var enc time.Duration
	var ins []streamInput
	for _, wl := range streamWorkloads {
		spec := service.Spec{Name: wl, Scheme: "cobcm", Bench: wl, Seed: mix(seed, "stream/"+wl)}
		gen, err := streamOps(spec, segs)
		if err != nil {
			return nil, 0, err
		}
		in := streamInput{spec: spec, ops: segs * streamSegOps}
		var buf bytes.Buffer
		sw := trace.NewSegWriter(&buf, streamSegOps)
		b := trace.NewBatch(streamSegOps)
		for gen.NextBatch(b) {
			t0 := time.Now()
			err := sw.WriteBatch(b)
			enc += time.Since(t0)
			if err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		if err := sw.Flush(); err != nil {
			return nil, 0, err
		}
		if _, err := trace.ScanSegments(bytes.NewReader(buf.Bytes()), func(_ int, frame []byte) error {
			in.bodies = append(in.bodies, append(trace.SPB2Header(), frame...))
			return nil
		}); err != nil {
			return nil, 0, err
		}
		enc += time.Since(t0)
		ins = append(ins, in)
	}
	return ins, enc, nil
}

// streamOps is the session's op stream: the spec's workload from the
// spec's seed, segs segments long.
func streamOps(spec service.Spec, segs int) (*workload.Generator, error) {
	_, prof, err := spec.Build()
	if err != nil {
		return nil, err
	}
	return workload.NewGenerator(prof, spec.Seed, uint64(segs*streamSegOps))
}

// spanHandler wraps the server's handler and records how long each
// segment upload and each finalize spent inside it.
type spanHandler struct {
	next http.Handler
	mu   sync.Mutex
	put  samples // µs
	fin  samples // ms
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	h.mu.Lock()
	defer h.mu.Unlock()
	switch {
	case r.Method == http.MethodPut:
		h.put = append(h.put, us(d))
	case r.Method == http.MethodPost && filepath.Base(r.URL.Path) == "finalize":
		h.fin = append(h.fin, ms(d))
	}
}

// streamServer is an in-process service behind a loopback listener.
type streamServer struct {
	sv     *service.Server
	http   *http.Server
	base   string
	client *http.Client
	dir    string
	spans  *spanHandler
	served chan error
}

func startServer(dir string, conns int, traced bool) (*streamServer, error) {
	sv, err := service.Open(service.Options{DataDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sv.Close()
		return nil, err
	}
	s := &streamServer{sv: sv, dir: dir, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	var h http.Handler = sv
	if traced {
		s.spans = &spanHandler{next: sv}
		h = s.spans
	}
	s.http = &http.Server{Handler: h}
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the listener and the service down and waits for both.
func (s *streamServer) stop() error {
	err := s.http.Close()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	if cerr := s.sv.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

func (s *streamServer) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (s *streamServer) create(spec service.Spec) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	code, b, err := s.do(http.MethodPost, "/v1/sessions", body)
	if err != nil {
		return err
	}
	if code != http.StatusCreated {
		return fmt.Errorf("create %s: status %d: %s", spec.Name, code, b)
	}
	return nil
}

func (s *streamServer) status(name string) (service.Status, error) {
	var st service.Status
	code, b, err := s.do(http.MethodGet, "/v1/sessions/"+name, nil)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("status %s: %d", name, code)
	}
	return st, json.Unmarshal(b, &st)
}

// poll is one status observation of a session.
type poll struct {
	at      time.Time
	durable uint64
	depth   int
}

// sessionRun is one session streamed at a fixed rate.
type sessionRun struct {
	name     string
	reqs     []reqTiming
	polls    []poll
	result   []byte
	resultMs float64
	err      error
}

// streamSession uploads n segments of in on the open-loop schedule and
// optionally finalizes. Between uploads the same goroutine polls the
// session's status with GET /v1/sessions/{name}, once per send interval
// at a random point of the first half of the idle window: the delay before a newly
// durable segment is seen is then spread evenly rather than locked to
// the send phase, and polling needs no connection of its own. When the
// window is too short for a GET (the session is behind its schedule),
// it samples the status in-process instead, at most every streamPoll.
func streamSession(s *streamServer, name string, in streamInput, n int, start time.Time, rate float64, finalize bool) sessionRun {
	run := sessionRun{name: name}
	interval := time.Duration(float64(time.Second) / rate)
	rng := rand.New(rand.NewSource(int64(in.spec.Seed)))
	var last time.Time
	record := func(st service.Status) {
		last = time.Now()
		run.polls = append(run.polls, poll{at: last, durable: st.DurableSegs, depth: st.QueueDepth})
	}
	pollHTTP := func() {
		st, err := s.status(name)
		if err != nil {
			if run.err == nil {
				run.err = err
			}
			return
		}
		record(st)
	}
	idle := func(next time.Time) {
		now := time.Now()
		if slack := next.Sub(now) - pollMargin; slack > 0 {
			time.Sleep(time.Duration(rng.Int63n(int64(slack/2) + 1)))
			pollHTTP()
			return
		}
		if sess, ok := s.sv.Session(name); ok && now.Sub(last) >= streamPoll {
			record(sess.Status())
		}
	}
	var err error
	run.reqs, err = openLoop(start, n, interval, func(i int) (int, error) {
		code, _, err := s.do(http.MethodPut, fmt.Sprintf("/v1/sessions/%s/segments/%d", name, i), in.bodies[i%len(in.bodies)])
		return code, err
	}, idle)
	if err != nil {
		run.err = err
	}
	if run.err != nil {
		return run
	}
	if !finalize {
		pollHTTP() // the queue depth the rung ends with
		return run
	}
	lastDue := run.reqs[n-1].due
	run.result, run.err = finalizeSession(s, name)
	run.resultMs = ms(time.Since(lastDue))
	return run
}

// finalizeSession seals the session and returns its result.
func finalizeSession(s *streamServer, name string) ([]byte, error) {
	code, b, err := s.do(http.MethodPost, "/v1/sessions/"+name+"/finalize", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("finalize %s: status %d: %s", name, code, b)
	}
	return b, nil
}

// createSessions opens a fresh session per input, named prefix plus the
// input's name.
func createSessions(s *streamServer, ins []streamInput, prefix string) ([]string, error) {
	names := make([]string, len(ins))
	for i, in := range ins {
		spec := in.spec
		spec.Name = prefix + in.spec.Name
		names[i] = spec.Name
		if err := s.create(spec); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// streamPhase runs one open-loop phase: a fresh session per input, all
// sending at rate segments/s each for n segments.
type streamPhase struct {
	runs []sessionRun
	wall time.Duration
}

func runStreamPhase(s *streamServer, ins []streamInput, prefix string, n int, rate float64, finalize bool) (streamPhase, error) {
	var ph streamPhase
	names, err := createSessions(s, ins, prefix)
	if err != nil {
		return ph, err
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(10 * time.Millisecond)
	ph.runs = make([]sessionRun, len(ins))
	var wg sync.WaitGroup
	for i := range ins {
		wg.Add(1)
		// Stagger the sessions so their sends interleave.
		st := start.Add(time.Duration(i) * interval / time.Duration(len(ins)))
		go func(i int, st time.Time) {
			defer wg.Done()
			ph.runs[i] = streamSession(s, names[i], ins[i], n, st, rate, finalize)
		}(i, st)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	for _, r := range ph.runs {
		if r.err != nil {
			return ph, r.err
		}
	}
	return ph, nil
}

// saturateSession uploads every segment of in as fast as the session
// drains them, keeping at most satWindow queued, then finalizes.
func saturateSession(s *streamServer, name string, in streamInput) sessionRun {
	run := sessionRun{name: name}
	sess, ok := s.sv.Session(name)
	if !ok {
		run.err = fmt.Errorf("session %s not open", name)
		return run
	}
	window := func(time.Time) {
		for sess.Status().QueueDepth >= satWindow {
			time.Sleep(satPoll)
		}
	}
	run.reqs, run.err = openLoop(time.Now(), len(in.bodies), 0, func(i int) (int, error) {
		code, _, err := s.do(http.MethodPut, fmt.Sprintf("/v1/sessions/%s/segments/%d", name, i), in.bodies[i])
		return code, err
	}, window)
	if run.err == nil {
		run.result, run.err = finalizeSession(s, name)
	}
	return run
}

// runSaturation streams every input flat out into a fresh session of
// its own, all at once, and finalizes them: the phase's wall time is how
// long the service takes to make all of it durable when it never waits
// for input.
func runSaturation(s *streamServer, ins []streamInput, prefix string) (streamPhase, error) {
	var ph streamPhase
	names, err := createSessions(s, ins, prefix)
	if err != nil {
		return ph, err
	}
	ph.runs = make([]sessionRun, len(ins))
	start := time.Now()
	var wg sync.WaitGroup
	for i := range ins {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ph.runs[i] = saturateSession(s, names[i], ins[i])
		}(i)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	for _, r := range ph.runs {
		if r.err != nil {
			return ph, r.err
		}
	}
	// The results are kept for the check; the sessions go, so the
	// service holds as many as in a run with fewer rounds.
	for _, name := range names {
		if code, b, err := s.do(http.MethodDelete, "/v1/sessions/"+name, nil); err != nil || code != http.StatusNoContent {
			return ph, fmt.Errorf("delete %s: %d %s %v", name, code, b, err)
		}
	}
	return ph, nil
}

// account adds the phase's uploads and finalizes to the report and
// returns the simulated ops it made durable per second, in millions.
func (ph streamPhase) account(rep *report) float64 {
	segs := 0
	for _, r := range ph.runs {
		l := summarize(r.reqs)
		rep.attempted += l.attempted + 1
		rep.failed += l.failed
		segs += len(r.reqs)
	}
	return float64(segs*streamSegOps) / ph.wall.Seconds() / 1e6
}

// phaseDepths sums over sessions the mean queue depth of the first and
// of the last quarter of the phase's polls.
func phaseDepths(ph streamPhase) (first, last float64) {
	for _, r := range ph.runs {
		depths := make([]float64, len(r.polls))
		for i, p := range r.polls {
			depths[i] = float64(p.depth)
		}
		a, b := quarterMeans(depths)
		first, last = first+a, last+b
	}
	return first, last
}

// durableLatencies maps each segment to the first poll that saw it
// durable, measured from the segment's due time.
func durableLatencies(reqs []reqTiming, polls []poll) samples {
	var out samples
	j := 0
	for i, r := range reqs {
		for j < len(polls) && polls[j].durable <= uint64(i) {
			j++
		}
		if j == len(polls) {
			break // became durable only at finalize
		}
		out = append(out, ms(polls[j].at.Sub(r.due)))
	}
	return out
}

// nominalRun is the stream's measured phase: streamPairs consecutive
// pairs of sessions at the nominal rate, each finalized when its last
// segment is acknowledged.
type nominalRun struct {
	phases          []streamPhase
	load            loadSummary
	durable, result samples // ms
	single          samples // µs, client latency of first-attempt successes
	depthMax        int
}

func runNominal(rep *report, srv *streamServer, ins []streamInput, prefix string) (nominalRun, error) {
	var nr nominalRun
	var loops [][]reqTiming
	for k := 0; k < streamPairs; k++ {
		var ph streamPhase
		var err error
		rep.unit(func() {
			ph, err = runStreamPhase(srv, ins, fmt.Sprintf("%sn%d-", prefix, k), len(ins[0].bodies), ladderBase/float64(len(ins)), true)
		})
		if err != nil {
			return nr, err
		}
		nr.phases = append(nr.phases, ph)
		for _, r := range ph.runs {
			loops = append(loops, r.reqs)
			nr.durable = append(nr.durable, durableLatencies(r.reqs, r.polls)...)
			nr.result = append(nr.result, r.resultMs)
			for _, q := range r.reqs {
				if q.attempts == 1 {
					nr.single = append(nr.single, us(q.done.Sub(q.sent)))
				}
			}
			for _, p := range r.polls {
				if p.depth > nr.depthMax {
					nr.depthMax = p.depth
				}
			}
		}
	}
	nr.load = summarize(loops...)
	return nr, nil
}

// account adds the phase's requests (uploads and finalizes) to the
// report and checks every finalized result against the batch replay.
func (nr nominalRun) account(rep *report, ins []streamInput, goldens [][]byte) {
	rep.attempted += nr.load.attempted + len(nr.result)
	rep.failed += nr.load.failed
	for _, ph := range nr.phases {
		checkStream(rep, ins, goldens, ph)
	}
}

func runStream(c *runCtx, rep *report) error {
	per := int(c.seconds.Seconds() * nominalShare * ladderBase / float64(len(streamWorkloads)*streamPairs))
	if per < 1 {
		per = 1
	}
	var ins []streamInput
	var enc time.Duration
	var opened []*streamServer
	setup, err := rep.setups(setupRepeats, func() error {
		var err error
		ins, enc, err = prepareStream(c.seed, per)
		if err != nil {
			return err
		}
		srv, err := startServer(filepath.Join(c.scratch, fmt.Sprintf("svc%d", len(opened))), c.workers, false)
		if err == nil {
			opened = append(opened, srv)
		}
		return err
	})
	// Only the last set-up's server is used; the others stop untimed.
	var srv *streamServer
	for i, s := range opened {
		if i == len(opened)-1 && err == nil {
			srv = s
		} else if serr := s.stop(); err == nil {
			err = serr
		}
	}
	if err != nil {
		if srv != nil {
			srv.stop()
		}
		return err
	}
	rep.addE2E(setup.timing("setup_s", "s"))

	if c.traced {
		if err := srv.stop(); err != nil {
			return err
		}
		return traceStream(c, rep, ins, enc)
	}
	nr, err := runNominal(rep, srv, ins, "")
	if err != nil {
		srv.stop()
		return err
	}

	var sat []streamPhase
	satEnd := c.deadline(saturateShare)
	for k := 0; k == 0 || time.Now().Before(satEnd); k++ {
		var ph streamPhase
		rep.unit(func() { ph, err = runSaturation(srv, ins, fmt.Sprintf("s%d-", k)) })
		if err != nil {
			srv.stop()
			return err
		}
		sat = append(sat, ph)
	}

	limit := ms(c.ackLimit)
	rungIdx := 0
	rung0 := rungResult{rate: ladderBase, ackP99: nr.load.ack.at(0.99), refused: nr.load.ref}
	rung0.depthFirst, rung0.depthLast = phaseDepths(nr.phases[len(nr.phases)-1])
	best, rungs, err := searchLadder(rung0.ok(limit), limit, func(rate float64) (rungResult, error) {
		rungIdx++
		perSession := rate / float64(len(ins))
		rp, err := runStreamPhase(srv, ins, fmt.Sprintf("r%d-", rungIdx), int(rungSeconds*perSession), perSession, false)
		if err != nil {
			return rungResult{}, err
		}
		rs := summarize(rp.runs[0].reqs, rp.runs[1].reqs)
		rr := rungResult{rate: rate, ackP99: rs.ack.at(0.99), refused: rs.ref}
		rr.depthFirst, rr.depthLast = phaseDepths(rp)
		for _, r := range rp.runs {
			if code, b, err := srv.do(http.MethodDelete, "/v1/sessions/"+r.name, nil); err != nil || code != http.StatusNoContent {
				return rr, fmt.Errorf("delete %s: %d %s %v", r.name, code, b, err)
			}
		}
		return rr, nil
	})
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	goldens, err := goldenResults(ins)
	if err != nil {
		return err
	}
	nr.account(rep, ins, goldens)
	var satRates, satWalls samples
	for _, ph := range sat {
		satRates = append(satRates, ph.account(rep))
		satWalls = append(satWalls, ms(ph.wall))
		checkStream(rep, ins, goldens, ph)
	}
	rep.linef("stream saturated Mop/s per round: %s", fmtSamples(satRates))
	for _, r := range append([]rungResult{rung0}, rungs...) {
		rep.linef("ladder rate %.0f seg/s: ack p99 %.3f ms, refused %d, queue depth %.2f -> %.2f, ok=%v",
			r.rate, r.ackP99, r.refused, r.depthFirst, r.depthLast, r.ok(limit))
	}
	latep99 := nr.load.late.at(0.99)
	rep.linef("loadgen late p99 %.3f ms (bound %.0f ms); nominal rate %.0f seg/s over %d sessions; %d session pairs of %d segments",
		latep99, ms(streamLateMax), ladderBase, len(ins), streamPairs, per)
	checkLateness(rep, nr.load.late)
	rep.linef("stream result_ms per session: %s", fmtSamples(nr.result))
	// The stream's throughput is the simulated op rate the service makes
	// durable when kept busy, and its latency the time from a saturation
	// round's first upload to both sealed results. The open loop's upload
	// acknowledgement (ack_p50_ms) is printed beside them: under a host
	// whose speed drifts it queues behind the session worker on two CPUs
	// and moved by 4x where throughput moved by 2x.
	rep.addE2E(satRates.timing("sim_mops", "Mop/s"))
	rep.addE2E(satWalls.timing("latency_ms", "ms"))
	rep.addInfo(nr.load.ack.timing("ack_p50_ms", "ms"))
	rep.addInfo(nr.load.ack.percentileMetric("ack_p99_ms", "ms", 0.99))
	rep.addInfo(nr.durable.timing("durable_p50_ms", "ms"))
	rep.addInfo(nr.durable.percentileMetric("durable_p99_ms", "ms", 0.99))
	rep.addInfo(nr.result.timing("result_ms", "ms"))
	rep.addInfo(metric{Name: "max_ok_rate", Value: best, Unit: "seg/s", N: len(rungs)})
	return nil
}

// checkLateness flags a run whose load generator fell behind its
// schedule beyond streamLateMax at p99: its latencies measure the
// generator's host as much as the service, so they do not count. That is
// a property of the measurement, not of the program's outputs, so it is
// a warning rather than a failed check.
func checkLateness(rep *report, late samples) {
	if p99 := late.at(0.99); p99 > ms(streamLateMax) {
		rep.warn(fmt.Sprintf("stream: load generator late p99 %.3f ms beyond %.0f ms; this run's latencies do not count",
			p99, ms(streamLateMax)))
	}
}

// goldenResults replays each input's spec and ops in one batch run: a
// finalized session's artifact must equal it byte for byte.
func goldenResults(ins []streamInput) ([][]byte, error) {
	var out [][]byte
	for _, in := range ins {
		cfg, prof, err := in.spec.Build()
		if err != nil {
			return nil, err
		}
		gen, err := streamOps(in.spec, len(in.bodies))
		if err != nil {
			return nil, err
		}
		res, err := engine.RunRecorded(cfg, prof, gen)
		if err != nil {
			return nil, err
		}
		out = append(out, service.EncodeResult(res))
	}
	return out, nil
}

// checkStream compares each session's finalized result with the batch
// replay, and checks that a copy with one byte flipped is rejected.
func checkStream(rep *report, ins []streamInput, goldens [][]byte, ph streamPhase) {
	for i := range ins {
		got := ph.runs[i].result
		rep.expect("stream: "+ph.runs[i].name+" result byte-identical to batch replay", bytes.Equal(got, goldens[i]))
		tampered := append([]byte(nil), got...)
		if len(tampered) > 0 {
			tampered[len(tampered)/2] ^= 0x01
		}
		rep.control("stream: "+ph.runs[i].name+" result with one byte flipped", bytes.Equal(tampered, goldens[i]))
	}
}

// traceStream measures the SPB2 codec and the engine's StepBatch on the
// stream's segments outside the service, then runs the nominal phase
// untraced and traced to attribute the service's time.
func traceStream(c *runCtx, rep *report, ins []streamInput, enc time.Duration) error {
	var ops float64
	var dec, step time.Duration
	var t simTotals
	segs := 0
	for _, in := range ins {
		ops += float64(in.ops)
		segs += len(in.bodies)
		gen, err := streamOps(in.spec, len(in.bodies))
		if err != nil {
			return err
		}
		gb := trace.NewBatch(streamSegOps)
		tg := time.Now()
		for gen.NextBatch(gb) {
		}
		t.addGen(time.Since(tg), in.ops)
		batches := make([]*trace.Batch, len(in.bodies))
		t0 := time.Now()
		for i, b := range in.bodies {
			batches[i] = trace.NewBatch(streamSegOps)
			if err := trace.NewSegReader(bytes.NewReader(b)).ReadSegment(batches[i]); err != nil {
				return err
			}
		}
		dec += time.Since(t0)
		cfg, prof, err := in.spec.Build()
		if err != nil {
			return err
		}
		eng, err := engine.New(cfg, prof, engine.ExperimentKey)
		if err != nil {
			return err
		}
		t1 := time.Now()
		for _, b := range batches {
			if err := eng.StepBatch(b); err != nil {
				return err
			}
		}
		d := time.Since(t1)
		step += d
		t.addEngine(d, in.ops)
		t.add(eng.Collect())
	}
	stepPerSeg := ms(step) / float64(segs)
	goldens, err := goldenResults(ins)
	if err != nil {
		return err
	}

	runs := make([]nominalRun, 2)
	var spans *spanHandler
	var metrics *service.Metrics
	for i, traced := range []bool{false, true} {
		srv, err := startServer(filepath.Join(c.scratch, fmt.Sprintf("trace%d", i)), c.workers, traced)
		if err != nil {
			return err
		}
		runs[i], err = runNominal(rep, srv, ins, "")
		if traced {
			spans, metrics = srv.spans, srv.sv.Metrics()
		}
		if serr := srv.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
		runs[i].account(rep, ins, goldens)
	}
	wall := func(nr nominalRun) (d time.Duration) {
		for _, ph := range nr.phases {
			d += ph.wall
		}
		return d
	}
	plain, nr := runs[0], runs[1]
	rep.linef("tracing overhead stream %+.4f s (traced %.4f s, untraced %.4f s)",
		(wall(nr) - wall(plain)).Seconds(), wall(nr).Seconds(), wall(plain).Seconds())
	var handler float64
	for _, x := range spans.put {
		handler += x / 1e6
	}
	conn := wall(plain).Seconds() * float64(len(ins))
	rep.linef("residual stream %.4f s of %.4f session-s (phase wall x sessions minus PUT handler spans; mostly open-loop idle)",
		conn-handler, conn)

	accepted := float64(metrics.Get("segments_accepted_total"))
	putP50 := spans.put.at(0.5)
	t.report(rep)
	rep.addInfo(metric{Name: "trace.encode_ns_per_op", Value: float64(enc.Nanoseconds()) / ops, Unit: "ns"})
	rep.addInfo(metric{Name: "trace.decode_ns_per_op", Value: float64(dec.Nanoseconds()) / ops, Unit: "ns"})
	rep.addInfo(metric{Name: "engine.stepbatch_ns_per_op", Value: float64(step.Nanoseconds()) / ops, Unit: "ns"})
	rep.addInfo(spans.put.timing("service.put_handler_p50_us", "us"))
	rep.addInfo(spans.put.percentileMetric("service.put_handler_p99_us", "us", 0.99))
	rep.addInfo(metric{Name: "service.http_overhead_us", Value: nr.single.at(0.5) - putP50, Unit: "us", N: len(nr.single)})
	rep.addInfo(spans.fin.timing("service.finalize_ms", "ms"))
	rep.addInfo(metric{Name: "service.checkpoints", Value: float64(metrics.Get("checkpoints_total")), Unit: "count"})
	rep.addInfo(metric{Name: "service.checkpoint_bytes_per_seg", Value: ratio(float64(metrics.Get("checkpoint_bytes_total")), accepted), Unit: "B"})
	rep.addInfo(metric{Name: "service.rejected_queue_full", Value: float64(metrics.Get("segments_rejected_queue_full_total")), Unit: "count"})
	rep.addInfo(metric{Name: "service.queue_depth_max", Value: float64(nr.depthMax), Unit: "count"})
	rep.addInfo(metric{Name: "service.durable_residual_ms", Value: nr.durable.at(0.5) - putP50/1000 - stepPerSeg, Unit: "ms"})
	rep.addInfo(nr.load.late.percentileMetric("loadgen.late_p99_ms", "ms", 0.99))
	checkLateness(rep, nr.load.late)
	return nil
}
