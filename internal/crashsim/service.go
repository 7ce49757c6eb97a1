package crashsim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
	"time"

	"secpb/internal/config"
	"secpb/internal/engine"
	"secpb/internal/runner"
	"secpb/internal/service"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

// Service-level crash injection: the same differential discipline the
// injector applies to the simulated machine, applied one level up to
// the process hosting it. Each kill point streams a prefix of a
// recorded trace into a live trace-streaming server, kills it without
// warning (workers abandon mid-flight, buffered bytes die, a torn tail
// is smeared onto the log), restarts it, and verifies two things
// differentially: the resumed session's durable state digest matches a
// golden committed-prefix replay, and — after re-uploading from the
// durable cursor — the finished artifact is byte-identical to an
// uninterrupted batch RunRecorded. A per-cell negative control tampers
// a sealed checkpoint and requires resume to fail with a typed
// *service.CorruptCheckpointError and fall back to a clean session.

// ServiceOptions selects the service kill matrix and its budget.
type ServiceOptions struct {
	Schemes   []config.Scheme // default: all six SecPB schemes
	Workloads []string        // default: gcc
	Ops       int             // trace length per cell (default 2000)
	SegOps    int             // segment granularity (default 128)
	Seed      uint64          // base seed; each cell derives its own
	Points    int             // kill points sampled per cell; <=0 = every upload boundary
	Workers   int             // worker pool size; <=0 = runner default
	CkptEvery int             // service checkpoint cadence in segments (default 2)
	QueueCap  int             // service ingest queue depth (default 4)
	Dir       string          // scratch root; empty = os.MkdirTemp
}

func (o ServiceOptions) withDefaults() ServiceOptions {
	if len(o.Schemes) == 0 {
		o.Schemes = config.SecPBSchemes()
	}
	if len(o.Workloads) == 0 {
		o.Workloads = []string{"gcc"}
	}
	if o.Ops <= 0 {
		o.Ops = 2000
	}
	if o.SegOps <= 0 {
		o.SegOps = 128
	}
	if o.CkptEvery <= 0 {
		o.CkptEvery = 2
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 4
	}
	return o
}

// ServiceCell is the kill-matrix outcome for one scheme × workload cell.
type ServiceCell struct {
	Scheme        string `json:"scheme"`
	Workload      string `json:"workload"`
	Ops           int    `json:"ops"`
	Segments      int    `json:"segments"`
	Seed          uint64 `json:"seed"`
	Kills         int    `json:"kills"`
	Resumed       int    `json:"resumed"`
	PrefixChecked int    `json:"prefix_checked"`
	Backpressure  int    `json:"backpressure_hits"`
	TamperRefused bool   `json:"tamper_refused"`
	Failures      int    `json:"failures"`
	FirstBad      string `json:"first_bad,omitempty"`
}

// ServiceMatrix is the service kill-matrix artifact.
type ServiceMatrix struct {
	Ops    int           `json:"ops"`
	SegOps int           `json:"seg_ops"`
	Seed   uint64        `json:"seed"`
	Points int           `json:"points_per_cell"`
	Cells  []ServiceCell `json:"cells"`
}

// Clean reports whether every kill point resumed byte-identical and
// every negative control was refused.
func (m *ServiceMatrix) Clean() bool {
	for i := range m.Cells {
		if m.Cells[i].Failures > 0 || !m.Cells[i].TamperRefused {
			return false
		}
	}
	return true
}

// WriteJSON emits the artifact.
func (m *ServiceMatrix) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// Render writes a human-readable table.
func (m *ServiceMatrix) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\tworkload\tsegs\tkills\tresumed\tprefix-ok\tbackpressure\ttamper\tfailures\tstatus")
	for i := range m.Cells {
		c := &m.Cells[i]
		status := "ok"
		if c.Failures > 0 {
			status = "FAIL: " + c.FirstBad
		}
		tamper := "refused"
		if !c.TamperRefused {
			tamper = "ACCEPTED"
			if status == "ok" {
				status = "FAIL: tampered checkpoint resumed"
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%s\t%d\t%s\n",
			c.Scheme, c.Workload, c.Segments, c.Kills, c.Resumed, c.PrefixChecked,
			c.Backpressure, tamper, c.Failures, status)
	}
	return tw.Flush()
}

// fnv64a is the plain FNV-64a the service uses for state digests.
func fnv64a(p []byte) uint64 {
	h := uint64(14695981039346269159)
	for _, b := range p {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// serviceTrace prepares a cell's upload stream: the recorded ops, the
// sealed per-segment frames, and the golden state digest after every
// committed prefix (digest[p] = engine state after segments [0,p)).
type serviceTrace struct {
	ops     []trace.Op
	frames  [][]byte
	digests []uint64
	golden  []byte // final artifact of the uninterrupted run
}

func prepareServiceTrace(spec service.Spec, nops, segOps int) (*serviceTrace, error) {
	cfg, prof, err := spec.Build()
	if err != nil {
		return nil, err
	}
	ops, err := workload.Generate(prof, cfg.Seed, nops)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	sw := trace.NewSegWriter(&buf, segOps)
	for _, op := range ops {
		if err := sw.Write(op); err != nil {
			return nil, err
		}
	}
	if err := sw.Flush(); err != nil {
		return nil, err
	}
	st := &serviceTrace{ops: ops}
	if _, err := trace.ScanSegments(bytes.NewReader(buf.Bytes()), func(seg int, frame []byte) error {
		st.frames = append(st.frames, bytes.Clone(frame))
		return nil
	}); err != nil {
		return nil, err
	}

	// Golden committed-prefix digests: replay segment by segment with
	// the exact batching the live session applies, snapshotting the
	// canonical-result hash after each — the shadow model every resumed
	// session is differentially checked against.
	eng, err := engine.New(cfg, prof, engine.ExperimentKey)
	if err != nil {
		return nil, err
	}
	st.digests = append(st.digests, fnv64a(service.EncodeResult(eng.Collect())))
	for i, frame := range st.frames {
		b, err := decodeFrame(frame)
		if err != nil {
			return nil, fmt.Errorf("crashsim: golden frame %d: %w", i, err)
		}
		if err := eng.StepBatch(b); err != nil {
			return nil, err
		}
		st.digests = append(st.digests, fnv64a(service.EncodeResult(eng.Collect())))
	}

	res, err := engine.RunRecorded(cfg, prof, trace.NewSliceBatchSource(ops))
	if err != nil {
		return nil, err
	}
	st.golden = service.EncodeResult(res)
	return st, nil
}

// decodeFrame decodes one sealed frame into a fresh batch.
func decodeFrame(frame []byte) (*trace.Batch, error) {
	sr := trace.NewSegReader(bytes.NewReader(append(trace.SPB2Header(), frame...)))
	b := trace.NewBatch(trace.DefaultSegOps)
	if err := sr.ReadSegment(b); err != nil {
		return nil, err
	}
	return b, nil
}

// uploadRange streams frames[from:to) into the session, absorbing
// backpressure by retrying the rejected ordinal (at-least-once
// semantics: duplicates are fine). Returns backpressure hits.
func uploadRange(s *service.Session, frames [][]byte, from, to int) (int, error) {
	bp := 0
	for i := from; i < to; i++ {
		for {
			b, err := decodeFrame(frames[i])
			if err != nil {
				return bp, err
			}
			_, err = s.Accept(uint64(i), bytes.Clone(frames[i]), b)
			if err == nil {
				break
			}
			var qf *service.QueueFullError
			if errors.As(err, &qf) {
				bp++
				time.Sleep(200 * time.Microsecond)
				continue
			}
			return bp, err
		}
	}
	return bp, nil
}

// finalizeWithRetry finalizes a session, absorbing 429-style queue
// backpressure the same way an HTTP client honouring Retry-After would.
func finalizeWithRetry(s *service.Session) ([]byte, int, error) {
	bp := 0
	for {
		got, err := s.Finalize(time.Minute)
		if err == nil {
			return got, bp, nil
		}
		var qf *service.QueueFullError
		if errors.As(err, &qf) {
			bp++
			time.Sleep(200 * time.Microsecond)
			continue
		}
		return nil, bp, err
	}
}

// RunServiceCell explores one scheme × workload cell: sampled kill
// points, each verified differentially, plus the tampered-checkpoint
// negative control.
func RunServiceCell(scheme config.Scheme, wl string, opts ServiceOptions) (ServiceCell, error) {
	opts = opts.withDefaults()
	cell := ServiceCell{Scheme: scheme.String(), Workload: wl, Ops: opts.Ops}
	seed := cellSeed(opts.Seed, scheme, wl)
	cell.Seed = seed
	spec := service.Spec{Name: "cell", Scheme: scheme.String(), Bench: wl, Seed: seed}
	st, err := prepareServiceTrace(spec, opts.Ops, opts.SegOps)
	if err != nil {
		return cell, err
	}
	nseg := len(st.frames)
	cell.Segments = nseg

	scratch, err := os.MkdirTemp(opts.Dir, "secpb-svc-"+scheme.String()+"-*")
	if err != nil {
		return cell, err
	}
	defer os.RemoveAll(scratch)

	// Kill points: after u accepted uploads, u ∈ [0, nseg] (0 = killed
	// right after create; nseg = killed with everything queued but the
	// finalize never sent). Sampled without replacement, like the
	// machine-level injector's crash points.
	kills := chooseTriggers(uint64(nseg+1), opts.Points, seed^0xDEADBEEF)
	svcOpts := func(dir string) service.Options {
		return service.Options{DataDir: dir, CkptEvery: opts.CkptEvery, QueueCap: opts.QueueCap}
	}
	fail := func(u uint64, format string, args ...interface{}) {
		cell.Failures++
		if cell.FirstBad == "" {
			cell.FirstBad = fmt.Sprintf("kill@%d: %s", u, fmt.Sprintf(format, args...))
		}
	}

	for ki, u := range kills {
		dir := filepath.Join(scratch, fmt.Sprintf("kill-%d", ki))
		sv, err := service.Open(svcOpts(dir))
		if err != nil {
			return cell, err
		}
		s, _, err := sv.CreateSession(spec)
		if err != nil {
			return cell, err
		}
		bp, err := uploadRange(s, st.frames, 0, int(u))
		cell.Backpressure += bp
		if err != nil {
			return cell, err
		}
		sv.Kill()
		cell.Kills++

		// Torn tail on odd points: a crashed append leaves junk past
		// the durable cursor. Resume must shear it off.
		if u%2 == 1 {
			logPath := filepath.Join(dir, "sessions", spec.Name, "trace.spb2")
			f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				return cell, err
			}
			f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x13})
			f.Close()
		}

		sv2, err := service.Open(svcOpts(dir))
		if err != nil {
			return cell, err
		}
		if q := sv2.Quarantined(); len(q) != 0 {
			fail(u, "healthy session quarantined: %s", q[0].Err)
			sv2.Close()
			continue
		}
		s2, ok := sv2.Session(spec.Name)
		if !ok {
			fail(u, "session lost across restart")
			sv2.Close()
			continue
		}
		cell.Resumed++
		status := s2.Status()
		d := status.DurableSegs
		if d > u {
			fail(u, "durable cursor %d ahead of %d accepted uploads", d, u)
			sv2.Close()
			continue
		}
		// Differential committed-prefix check: the resumed state digest
		// must equal the golden replay of exactly d segments.
		if want := fmt.Sprintf("%016x", st.digests[d]); status.StateDigest != want {
			fail(u, "resumed digest %s, golden prefix(%d) %s", status.StateDigest, d, want)
			sv2.Close()
			continue
		}
		cell.PrefixChecked++

		// Resume streaming from the durable cursor and finish: the
		// final artifact must be byte-identical to the uninterrupted
		// batch run.
		bp, err = uploadRange(s2, st.frames, int(d), nseg)
		cell.Backpressure += bp
		if err != nil {
			return cell, err
		}
		got, bp, err := finalizeWithRetry(s2)
		cell.Backpressure += bp
		if err != nil {
			fail(u, "finalize after resume: %v", err)
			sv2.Close()
			continue
		}
		if !bytes.Equal(got, st.golden) {
			fail(u, "resumed artifact diverges from uninterrupted run")
		}
		sv2.Close()
		os.RemoveAll(dir)
	}

	ok, err := serviceTamperControl(spec, st, scratch, svcOpts)
	if err != nil {
		return cell, err
	}
	cell.TamperRefused = ok
	if !ok && cell.FirstBad == "" {
		cell.Failures++
		cell.FirstBad = "negative control: tampered checkpoint did not fail resume with a typed error"
	}
	return cell, nil
}

// serviceTamperControl proves the differential harness can actually
// see corruption: a sealed checkpoint with one flipped byte must fail
// resume with a typed *service.CorruptCheckpointError, quarantine the
// session, and leave the name free for a clean session.
func serviceTamperControl(spec service.Spec, st *serviceTrace, scratch string,
	svcOpts func(string) service.Options) (bool, error) {
	dir := filepath.Join(scratch, "tamper")
	sv, err := service.Open(svcOpts(dir))
	if err != nil {
		return false, err
	}
	s, _, err := sv.CreateSession(spec)
	if err != nil {
		return false, err
	}
	n := len(st.frames)
	if n > 4 {
		n = 4
	}
	if _, err := uploadRange(s, st.frames, 0, n); err != nil {
		return false, err
	}
	if err := sv.Close(); err != nil {
		return false, err
	}

	ckpt := filepath.Join(dir, "sessions", spec.Name, "ckpt.spbk")
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		return false, err
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(ckpt, raw, 0o644); err != nil {
		return false, err
	}

	sv2, err := service.Open(svcOpts(dir))
	if err != nil {
		return false, err
	}
	defer sv2.Close()
	if _, ok := sv2.Session(spec.Name); ok {
		return false, nil // tampered checkpoint resumed: control failed
	}
	causes := sv2.QuarantineCauses()
	if len(causes) != 1 {
		return false, nil
	}
	var cc *service.CorruptCheckpointError
	if !errors.As(causes[0], &cc) {
		return false, nil
	}
	// Clean-session fallback under the quarantined name.
	s2, created, err := sv2.CreateSession(spec)
	if err != nil || !created {
		return false, err
	}
	if st2 := s2.Status(); st2.DurableSegs != 0 {
		return false, nil
	}
	return true, nil
}

// ExploreService runs the scheme × workload service kill grid over a
// bounded worker pool.
func ExploreService(ctx context.Context, opts ServiceOptions) (*ServiceMatrix, error) {
	opts = opts.withDefaults()
	type cellKey struct {
		scheme config.Scheme
		wl     string
	}
	var cells []cellKey
	for _, s := range opts.Schemes {
		for _, w := range opts.Workloads {
			cells = append(cells, cellKey{s, w})
		}
	}
	results, err := runner.Map(ctx, opts.Workers, cells, func(_ context.Context, _ int, c cellKey) (ServiceCell, error) {
		return RunServiceCell(c.scheme, c.wl, opts)
	})
	if err != nil {
		return nil, err
	}
	return &ServiceMatrix{Ops: opts.Ops, SegOps: opts.SegOps, Seed: opts.Seed, Points: opts.Points, Cells: results}, nil
}
