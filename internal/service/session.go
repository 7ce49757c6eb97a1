package service

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"secpb/internal/engine"
	"secpb/internal/recovery"
	"secpb/internal/seal"
	"secpb/internal/trace"
)

// Options tunes the service's robustness envelope.
type Options struct {
	DataDir      string        // root of durable state (sessions/, quarantine/)
	MaxSessions  int           // admission cap: reject new sessions past this
	QueueCap     int           // per-session bounded ingest queue
	CkptEvery    int           // checkpoint every N applied segments
	MaxBody      int64         // largest accepted upload body in bytes
	FinalizeWait time.Duration // how long a finalize request blocks for the result
}

func (o Options) withDefaults() Options {
	if o.MaxSessions <= 0 {
		o.MaxSessions = 64
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 32
	}
	if o.CkptEvery <= 0 {
		o.CkptEvery = 4
	}
	if o.MaxBody <= 0 {
		o.MaxBody = 16 << 20
	}
	if o.FinalizeWait <= 0 {
		o.FinalizeWait = 30 * time.Second
	}
	return o
}

// Typed ingestion rejections. Handlers map each to a status code and a
// machine-readable error tag; crashsim and tests assert on the types.

// OutOfOrderError rejects a segment whose ordinal is ahead of the next
// expected one — accepting it would leave a hole in the log.
type OutOfOrderError struct {
	Want, Got uint64
}

func (e *OutOfOrderError) Error() string {
	return fmt.Sprintf("service: out-of-order segment %d (next expected %d)", e.Got, e.Want)
}

// QueueFullError is backpressure: the session's bounded ingest queue is
// full, so the client must back off and retry the same ordinal.
type QueueFullError struct {
	Depth int
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("service: ingest queue full (%d segments pending)", e.Depth)
}

// CapacityError is admission control: the global session cap is
// reached, so the newest session is shed rather than risking the
// established ones.
type CapacityError struct {
	Active, Cap int
}

func (e *CapacityError) Error() string {
	return fmt.Sprintf("service: session cap reached (%d/%d active)", e.Active, e.Cap)
}

// StateError rejects an operation invalid in the session's current
// lifecycle state (e.g. streaming into a finalized session).
type StateError struct {
	Name, State, Op string
}

func (e *StateError) Error() string {
	return fmt.Sprintf("service: session %q is %s: cannot %s", e.Name, e.State, e.Op)
}

// Session lifecycle.
type sessionState int

const (
	stateActive sessionState = iota
	stateFinalizing
	stateFinalized
	stateFailed
)

func (s sessionState) String() string {
	switch s {
	case stateActive:
		return "active"
	case stateFinalizing:
		return "finalizing"
	case stateFinalized:
		return "finalized"
	case stateFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// segMsg is one unit of worker input: a segment to apply, a finalize
// request, or a checkpoint barrier (graceful shutdown).
type segMsg struct {
	ordinal uint64
	frame   []byte
	batch   *trace.Batch
	final   bool
	ckpt    chan error
}

// Session is one named streaming simulation. The HTTP handlers (any
// goroutine) talk to the single worker goroutine through a bounded
// queue; the worker exclusively owns the engine and the log file, so
// the simulation itself is single-threaded and deterministic.
type Session struct {
	spec Spec
	dir  string
	opts Options

	mu         sync.Mutex
	state      sessionState
	failErr    error
	nextSeg    uint64 // next upload ordinal the session will accept
	durSegs    uint64 // segments sealed by the last checkpoint
	durOps     uint64
	durBytes   uint64 // durable log length (incl. header)
	durDigest  uint64
	lastCkpt   time.Time
	result     []byte // canonical result artifact once finalized
	queue      chan segMsg
	done       chan struct{} // closed once finalized or failed
	stop       chan struct{} // per-session abort (DELETE)
	kill       <-chan struct{}
	workerDone chan struct{}

	// Worker-owned; never touched by handler goroutines.
	eng       *engine.Engine
	logF      *os.File
	logW      *bufio.Writer
	procSegs  uint64
	procOps   uint64
	procBytes uint64
	procChain uint64
	segsSince int

	metrics *Metrics
}

// newSession creates a fresh session directory (header-only log plus
// an initial checkpoint) and starts its worker. A kill at any instant
// afterwards resumes to a valid state.
func newSession(spec Spec, dir string, opts Options, kill <-chan struct{}, metrics *Metrics) (*Session, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cfg, prof, err := spec.Build()
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(cfg, prof, engineKey)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// The session directory's entry must be durable before the create
	// is acknowledged, or a power loss can take the whole session.
	if err := seal.SyncDir(filepath.Dir(dir)); err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, logFile)
	logF, err := os.OpenFile(logPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := logF.Write(trace.SPB2Header()); err != nil {
		logF.Close()
		return nil, err
	}
	if err := logF.Sync(); err != nil {
		logF.Close()
		return nil, err
	}
	s := &Session{
		spec:      spec,
		dir:       dir,
		opts:      opts,
		queue:     make(chan segMsg, opts.QueueCap),
		done:      make(chan struct{}),
		stop:      make(chan struct{}),
		kill:      kill,
		eng:       eng,
		logF:      logF,
		logW:      bufio.NewWriter(logF),
		procChain: seal.Offset,
		metrics:   metrics,
	}
	if err := s.checkpoint(ckptStateActive); err != nil {
		logF.Close()
		return nil, err
	}
	s.startWorker()
	return s, nil
}

// resumeSession rebuilds a session from its durable directory: verify
// the sealed manifest, truncate the log to the durable cursor (a kill
// may have left a torn tail past it), replay exactly the sealed prefix
// through a fresh engine, and cross-check the log hash chain and the
// engine state digest. Any disagreement is a *seal.CorruptError —
// there is no partial restore.
func resumeSession(dir string, opts Options, kill <-chan struct{}, metrics *Metrics) (*Session, error) {
	m, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	corrupt := func(path, format string, args ...interface{}) error {
		return &seal.CorruptError{Path: path, Detail: fmt.Sprintf(format, args...)}
	}
	if err := m.Spec.Validate(); err != nil {
		return nil, corrupt(filepath.Join(dir, ckptFile), "sealed spec no longer valid: %v", err)
	}
	if filepath.Base(dir) != m.Spec.Name {
		return nil, corrupt(filepath.Join(dir, ckptFile),
			"manifest names session %q but lives in %q", m.Spec.Name, filepath.Base(dir))
	}

	s := &Session{
		spec:      m.Spec,
		dir:       dir,
		opts:      opts,
		nextSeg:   m.Segs,
		durSegs:   m.Segs,
		durOps:    m.Ops,
		durBytes:  m.LogBytes,
		durDigest: m.Digest,
		lastCkpt:  time.Now(),
		queue:     make(chan segMsg, opts.QueueCap),
		done:      make(chan struct{}),
		stop:      make(chan struct{}),
		kill:      kill,
		metrics:   metrics,
	}

	if m.State == ckptStateFinalized {
		resPath := filepath.Join(dir, resFile)
		enc, err := os.ReadFile(resPath)
		if err != nil {
			return nil, corrupt(resPath, "finalized session missing result: %v", err)
		}
		if got := seal.Add(seal.Offset, enc); got != m.ResultDigest {
			return nil, corrupt(resPath, "result digest %016x, manifest sealed %016x", got, m.ResultDigest)
		}
		s.state = stateFinalized
		s.result = enc
		close(s.done)
		return s, nil
	}

	logPath := filepath.Join(dir, logFile)
	fi, err := os.Stat(logPath)
	if err != nil {
		return nil, corrupt(logPath, "missing segment log: %v", err)
	}
	if uint64(fi.Size()) < m.LogBytes {
		return nil, corrupt(logPath, "log is %d bytes, durable cursor expects %d", fi.Size(), m.LogBytes)
	}
	// Bytes past the durable cursor are an abandoned tail (killed before
	// a checkpoint sealed them): discard, the client re-uploads.
	if uint64(fi.Size()) > m.LogBytes {
		if err := os.Truncate(logPath, int64(m.LogBytes)); err != nil {
			return nil, err
		}
	}

	chain, err := hashLogTail(logPath, m.LogBytes)
	if err != nil {
		return nil, err
	}
	if chain != m.Chain {
		return nil, corrupt(logPath, "log chain %016x, manifest sealed %016x", chain, m.Chain)
	}

	cfg, prof, err := m.Spec.Build()
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(cfg, prof, engineKey)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(logPath)
	if err != nil {
		return nil, err
	}
	sr := trace.NewSegReader(f)
	b := trace.NewBatch(trace.DefaultSegOps)
	var ops uint64
	for i := uint64(0); i < m.Segs; i++ {
		if err := sr.ReadSegment(b); err != nil {
			f.Close()
			return nil, corrupt(logPath, "replaying sealed segment %d: %v", i, err)
		}
		// Replay with the same per-segment batching the live worker
		// used, so the engine trajectory is identical.
		if err := eng.StepBatch(b); err != nil {
			f.Close()
			return nil, err
		}
		ops += uint64(b.Len())
	}
	if err := sr.ReadSegment(b); err != io.EOF {
		f.Close()
		return nil, corrupt(logPath, "log holds segments past the sealed cursor (%v)", err)
	}
	f.Close()
	if ops != m.Ops {
		return nil, corrupt(logPath, "replayed %d ops, manifest sealed %d", ops, m.Ops)
	}
	if got := stateDigest(eng.Collect()); got != m.Digest {
		return nil, corrupt(logPath, "replayed state digest %016x, manifest sealed %016x", got, m.Digest)
	}

	logF, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s.eng = eng
	s.logF = logF
	s.logW = bufio.NewWriter(logF)
	s.procSegs = m.Segs
	s.procOps = m.Ops
	s.procBytes = m.LogBytes - trace.SPB2HeaderLen
	s.procChain = m.Chain
	s.startWorker()
	return s, nil
}

// hashLogTail computes the FNV-64a chain over log bytes
// [SPB2HeaderLen, n) and verifies the header bytes themselves.
func hashLogTail(path string, n uint64) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var hdr [trace.SPB2HeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, &seal.CorruptError{Path: path, Detail: fmt.Sprintf("short log header: %v", err)}
	}
	if string(hdr[:]) != string(trace.SPB2Header()) {
		return 0, &seal.CorruptError{Path: path, Detail: "log header is not SPB2"}
	}
	chain := seal.Offset
	buf := make([]byte, 64<<10)
	remain := n - trace.SPB2HeaderLen
	for remain > 0 {
		chunk := uint64(len(buf))
		if chunk > remain {
			chunk = remain
		}
		k, err := io.ReadFull(f, buf[:chunk])
		if err != nil {
			return 0, &seal.CorruptError{Path: path, Detail: fmt.Sprintf("short log body: %v", err)}
		}
		chain = seal.Add(chain, buf[:k])
		remain -= uint64(k)
	}
	return chain, nil
}

// AcceptOutcome reports what Accept did with an uploaded segment.
type AcceptOutcome int

const (
	// Accepted: enqueued for application; durable after the next checkpoint.
	Accepted AcceptOutcome = iota
	// Duplicate: ordinal already accepted — the retry is acknowledged
	// without re-applying (idempotent at-least-once upload).
	Duplicate
)

// Accept offers one decoded segment at the given ordinal. It takes
// ownership of frame and batch. Exactly one of: accepted (enqueued),
// duplicate (ordinal below the cursor), or a typed rejection —
// *OutOfOrderError, *QueueFullError, *StateError, or the session's
// terminal failure.
func (s *Session) Accept(ordinal uint64, frame []byte, batch *trace.Batch) (AcceptOutcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case stateFinalizing, stateFinalized:
		return 0, &StateError{Name: s.spec.Name, State: s.state.String(), Op: "accept segments"}
	case stateFailed:
		return 0, s.failErr
	}
	if ordinal < s.nextSeg {
		return Duplicate, nil
	}
	if ordinal > s.nextSeg {
		return 0, &OutOfOrderError{Want: s.nextSeg, Got: ordinal}
	}
	select {
	case s.queue <- segMsg{ordinal: ordinal, frame: frame, batch: batch}:
		s.nextSeg++
		return Accepted, nil
	default:
		return 0, &QueueFullError{Depth: len(s.queue)}
	}
}

// Finalize asks the worker to close the trace, audit the settled NV
// image, and seal the result artifact, then waits up to wait for it.
// Idempotent: a finalized session returns its artifact again.
func (s *Session) Finalize(wait time.Duration) ([]byte, error) {
	s.mu.Lock()
	switch s.state {
	case stateFailed:
		err := s.failErr
		s.mu.Unlock()
		return nil, err
	case stateActive:
		select {
		case s.queue <- segMsg{final: true}:
			s.state = stateFinalizing
		default:
			depth := len(s.queue)
			s.mu.Unlock()
			return nil, &QueueFullError{Depth: depth}
		}
	}
	s.mu.Unlock()

	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-s.done:
	case <-t.C:
		return nil, &StateError{Name: s.spec.Name, State: "finalizing", Op: "return result yet (retry)"}
	}
	return s.Result()
}

// Result returns the sealed artifact of a finalized session.
func (s *Session) Result() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case stateFinalized:
		return s.result, nil
	case stateFailed:
		return nil, s.failErr
	default:
		return nil, &StateError{Name: s.spec.Name, State: s.state.String(), Op: "serve a result"}
	}
}

// Status is the client-visible session snapshot. DurableSegs is the
// re-upload cursor after a crash: every ordinal below it is sealed,
// everything at or above it must be sent again.
type Status struct {
	Name        string  `json:"name"`
	Scheme      string  `json:"scheme"`
	Bench       string  `json:"bench"`
	State       string  `json:"state"`
	NextSeg     uint64  `json:"next_seg"`
	DurableSegs uint64  `json:"durable_segs"`
	DurableOps  uint64  `json:"durable_ops"`
	LogBytes    uint64  `json:"log_bytes"`
	QueueDepth  int     `json:"queue_depth"`
	QueueCap    int     `json:"queue_cap"`
	StateDigest string  `json:"state_digest"`
	CkptAgeSec  float64 `json:"ckpt_age_seconds"`
}

// Status snapshots the session.
func (s *Session) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Status{
		Name:        s.spec.Name,
		Scheme:      s.spec.Scheme,
		Bench:       s.spec.Bench,
		State:       s.state.String(),
		NextSeg:     s.nextSeg,
		DurableSegs: s.durSegs,
		DurableOps:  s.durOps,
		LogBytes:    s.durBytes,
		QueueDepth:  len(s.queue),
		QueueCap:    s.opts.QueueCap,
		StateDigest: fmt.Sprintf("%016x", s.durDigest),
		CkptAgeSec:  time.Since(s.lastCkpt).Seconds(),
	}
}

// startWorker launches the single goroutine that owns the engine.
func (s *Session) startWorker() {
	s.workerDone = make(chan struct{})
	go func() {
		defer close(s.workerDone)
		s.runWorker()
	}()
}

// runWorker is the session event loop. Power loss (kill) abandons the
// session mid-flight without flushing anything — write()s that already
// reached the kernel survive, buffered bytes die — which is exactly
// the torn state resume is built to absorb.
func (s *Session) runWorker() {
	for {
		select {
		case <-s.kill:
			s.abandon()
			return
		case <-s.stop:
			s.abandon()
			return
		case m := <-s.queue:
			if !s.handle(m) {
				return
			}
		}
	}
}

// handle processes one message; false stops the worker.
func (s *Session) handle(m segMsg) bool {
	if m.ckpt != nil {
		m.ckpt <- s.checkpoint(ckptStateActive)
		return true
	}
	if m.final {
		s.doFinalize()
		return false
	}
	if err := s.apply(m); err != nil {
		s.fail(err)
		return false
	}
	return true
}

// apply appends the sealed frame to the log, folds it into the hash
// chain, and steps the engine over the decoded batch.
func (s *Session) apply(m segMsg) error {
	if _, err := s.logW.Write(m.frame); err != nil {
		return err
	}
	s.procChain = seal.Add(s.procChain, m.frame)
	s.procBytes += uint64(len(m.frame))
	if err := s.eng.StepBatch(m.batch); err != nil {
		return err
	}
	s.procSegs++
	s.procOps += uint64(m.batch.Len())
	s.segsSince++
	s.metrics.Add(mOpsStreamed, uint64(m.batch.Len()))
	if s.segsSince >= s.opts.CkptEvery {
		return s.checkpoint(ckptStateActive)
	}
	return nil
}

// checkpoint makes everything applied so far durable: flush + fsync
// the log, then atomically publish a sealed manifest pointing at it.
// Crash-ordering: the log bytes are durable before the manifest that
// references them, so the manifest never names bytes that might not
// exist.
func (s *Session) checkpoint(state uint64) error {
	if err := s.logW.Flush(); err != nil {
		return err
	}
	if err := s.logF.Sync(); err != nil {
		return err
	}
	res := s.eng.Collect()
	if res.IntegrityErr != nil {
		return fmt.Errorf("service: integrity violation in session %q: %w", s.spec.Name, res.IntegrityErr)
	}
	m := manifest{
		Spec:     s.spec,
		State:    state,
		Segs:     s.procSegs,
		Ops:      s.procOps,
		LogBytes: trace.SPB2HeaderLen + s.procBytes,
		Chain:    s.procChain,
		Digest:   stateDigest(res),
	}
	n, err := writeManifest(s.dir, &m)
	if err != nil {
		return err
	}
	s.segsSince = 0
	s.metrics.Inc(mCheckpoints)
	s.metrics.Add(mCheckpointBytes, uint64(n))
	s.mu.Lock()
	s.durSegs = s.procSegs
	s.durOps = s.procOps
	s.durBytes = m.LogBytes
	s.durDigest = m.Digest
	s.lastCkpt = time.Now()
	s.mu.Unlock()
	return nil
}

// doFinalize seals the session: checkpoint the complete log, close the
// trace exactly as a batch run does, audit the settled NV image, and
// publish the canonical result artifact plus a finalized manifest.
func (s *Session) doFinalize() {
	if err := s.checkpoint(ckptStateActive); err != nil {
		s.fail(err)
		return
	}
	if err := s.eng.Finish(); err != nil {
		s.fail(err)
		return
	}
	res := s.eng.Collect()
	if res.IntegrityErr != nil {
		s.fail(fmt.Errorf("service: integrity violation in session %q: %w", s.spec.Name, res.IntegrityErr))
		return
	}
	enc := EncodeResult(res)

	// Battery-drain the SecPB and prove the whole settled image is
	// mutually consistent before the artifact is served — the service
	// analogue of the paper's recovery-time audit.
	if _, err := s.eng.CrashDrain(); err != nil {
		s.fail(err)
		return
	}
	if err := recovery.AuditClean(s.eng.Controller()); err != nil {
		s.fail(err)
		return
	}

	if err := seal.WriteAtomic(filepath.Join(s.dir, resFile), func(w io.Writer) error {
		_, err := w.Write(enc)
		return err
	}); err != nil {
		s.fail(err)
		return
	}
	m := manifest{
		Spec:         s.spec,
		State:        ckptStateFinalized,
		Segs:         s.procSegs,
		Ops:          s.procOps,
		LogBytes:     trace.SPB2HeaderLen + s.procBytes,
		Chain:        s.procChain,
		Digest:       stateDigest(res),
		ResultDigest: seal.Add(seal.Offset, enc),
	}
	n, err := writeManifest(s.dir, &m)
	if err != nil {
		s.fail(err)
		return
	}
	s.metrics.Inc(mCheckpoints)
	s.metrics.Add(mCheckpointBytes, uint64(n))
	s.metrics.Inc(mSessionsFinalized)
	s.logF.Close()
	s.mu.Lock()
	s.state = stateFinalized
	s.result = enc
	s.durSegs = s.procSegs
	s.durOps = s.procOps
	s.durBytes = m.LogBytes
	s.durDigest = m.Digest
	s.lastCkpt = time.Now()
	s.mu.Unlock()
	close(s.done)
}

// fail moves the session to its terminal failure state.
func (s *Session) fail(err error) {
	s.logF.Close()
	s.metrics.Inc(mSessionsFailed)
	s.mu.Lock()
	s.state = stateFailed
	s.failErr = err
	s.mu.Unlock()
	close(s.done)
}

// abandon is power loss: drop everything volatile on the floor. The
// bufio buffer is NOT flushed — bytes that did not reach a write() are
// lost, exactly as they would be in a real SIGKILL.
func (s *Session) abandon() {
	if s.logF != nil {
		s.logF.Close()
	}
}

// syncCkpt runs a checkpoint barrier through the worker (graceful
// shutdown). No-op for sessions whose worker already exited.
func (s *Session) syncCkpt() error {
	ack := make(chan error, 1)
	select {
	case s.queue <- segMsg{ckpt: ack}:
	case <-s.done:
		return nil
	case <-s.kill:
		return nil
	}
	select {
	case err := <-ack:
		return err
	case <-s.done:
		return nil
	case <-s.kill:
		return nil
	}
}

// halt aborts the session worker (DELETE).
func (s *Session) halt() {
	s.mu.Lock()
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	wd := s.workerDone
	s.mu.Unlock()
	if wd != nil {
		<-wd
	}
}
