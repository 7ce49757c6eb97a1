package harness

import (
	"sync"

	"secpb/internal/engine"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

// traceKey identifies the op stream of a grid cell. The generator reads
// only the profile, the seed and the op count, and a grid runs every
// cell at one op count, so all cells with equal keys — whatever their
// scheme, SecPB size or ablation — replay the same ops.
type traceKey struct {
	prof workload.Profile
	seed uint64
}

func jobTrace(j simJob) traceKey { return traceKey{j.prof, j.cfg.Seed} }

// sharedTrace is one key's generated trace and the number of the
// grid's jobs that have not yet finished with it.
type sharedTrace struct {
	once    sync.Once
	ops     *trace.Batch
	err     error
	pending int // guarded by traceTable.mu
}

// traceTable holds the traces of one grid. The first cell of a key that
// misses the memo generates the key's trace; every other cell of the
// key replays it through its own read-only cursor. A trace is dropped
// when the key's last job finishes, hit or miss, so a profile-major
// grid holds about one trace per worker at a time.
type traceTable struct {
	ops    uint64
	mu     sync.Mutex
	traces map[traceKey]*sharedTrace
}

// Test hooks, nil outside tests: traceHook is told each time a shared
// trace is generated (live) and dropped (!live), and gridHook receives
// every grid runAll completes without error.
var (
	traceHook func(k traceKey, live bool)
	gridHook  func(jobs []simJob, res []engine.Result)
)

func newTraceTable(jobs []simJob, ops uint64) *traceTable {
	t := &traceTable{ops: ops, traces: map[traceKey]*sharedTrace{}}
	for _, j := range jobs {
		k := jobTrace(j)
		st := t.traces[k]
		if st == nil {
			st = &sharedTrace{}
			t.traces[k] = st
		}
		st.pending++
	}
	return t
}

// cursor returns a fresh read-only cursor over j's trace, generating
// the trace on the key's first request.
func (t *traceTable) cursor(j simJob) (*trace.SliceBatchSource, error) {
	k := jobTrace(j)
	t.mu.Lock()
	st := t.traces[k]
	t.mu.Unlock()
	st.once.Do(func() {
		gen, err := workload.NewGenerator(k.prof, k.seed, t.ops)
		if err != nil {
			st.err = err
			return
		}
		st.ops = trace.NewBatch(int(t.ops))
		gen.NextBatch(st.ops)
		if traceHook != nil {
			traceHook(k, true)
		}
	})
	if st.err != nil {
		return nil, st.err
	}
	return trace.NewBatchCursor(st.ops), nil
}

// done records that job j has finished; the key's last job drops the
// trace.
func (t *traceTable) done(j simJob) {
	k := jobTrace(j)
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.traces[k]
	if st.pending--; st.pending == 0 {
		t.drop(k, st)
	}
}

// close drops the traces of jobs that never ran because an earlier job
// failed. Call it once no job is running.
func (t *traceTable) close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, st := range t.traces {
		t.drop(k, st)
	}
}

func (t *traceTable) drop(k traceKey, st *sharedTrace) {
	delete(t.traces, k)
	if st.ops != nil && traceHook != nil {
		traceHook(k, false)
	}
}
