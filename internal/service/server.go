package service

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"secpb/internal/seal"
)

// SpecConflictError rejects re-creating an existing session with a
// different spec: the name is taken by durable state that the new spec
// would not reproduce.
type SpecConflictError struct {
	Name string
}

func (e *SpecConflictError) Error() string {
	return fmt.Sprintf("service: session %q exists with a different spec", e.Name)
}

// QuarantineReport records one session directory the server refused to
// resume and moved aside.
type QuarantineReport struct {
	Name string `json:"name"`
	Dir  string `json:"dir"`
	Err  string `json:"error"`
}

// Server is the session registry plus its HTTP surface. All durable
// state lives under Options.DataDir:
//
//	sessions/<name>/trace.spb2  append-only sealed segment log
//	sessions/<name>/ckpt.spbk   sealed checkpoint manifest
//	sessions/<name>/result.json canonical artifact (finalized only)
//	quarantine/<name>.<nanos>/  directories that failed resume
type Server struct {
	opts    Options
	metrics *Metrics
	mux     *http.ServeMux

	mu          sync.Mutex
	sessions    map[string]*Session
	quarantined []QuarantineReport
	quarCauses  []error
	kill        chan struct{}
	killed      bool
}

// Open starts a server over the data directory, resuming every session
// found there. Directories that fail resume verification are moved to
// quarantine — the startup never aborts on one bad session, and a
// quarantined name immediately becomes available for a clean session
// (fail to a clean slate, never a partial restore).
func Open(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.DataDir == "" {
		return nil, fmt.Errorf("service: Options.DataDir is required")
	}
	if err := os.MkdirAll(opts.sessionsDir(), 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.quarantineDir(), 0o755); err != nil {
		return nil, err
	}
	// Make both directories durable before anything is moved between
	// them: quarantine's fsyncs cover entries inside them, not the
	// directories' own entries in DataDir.
	if err := seal.SyncDir(opts.DataDir); err != nil {
		return nil, err
	}
	sv := &Server{
		opts:     opts,
		metrics:  newMetrics(),
		sessions: make(map[string]*Session),
		kill:     make(chan struct{}),
	}
	entries, err := os.ReadDir(opts.sessionsDir())
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(opts.sessionsDir(), e.Name())
		s, err := resumeSession(dir, opts, sv.kill, sv.metrics)
		if err != nil {
			sv.quarantine(e.Name(), dir, err)
			continue
		}
		sv.sessions[e.Name()] = s
		sv.metrics.Inc(mSessionsResumed)
	}
	sv.mux = sv.buildMux()
	return sv, nil
}

func (o Options) sessionsDir() string   { return filepath.Join(o.DataDir, "sessions") }
func (o Options) quarantineDir() string { return filepath.Join(o.DataDir, "quarantine") }

// quarantine moves a directory that failed resume out of the sessions
// tree, durably (seal.Move), so a power loss cannot bring the refused
// session back under sessions/ beside a clean one re-created under its
// name. Called with sv.mu NOT required (startup is single-threaded).
func (sv *Server) quarantine(name, dir string, cause error) {
	dest := filepath.Join(sv.opts.quarantineDir(),
		name+"."+strconv.FormatInt(time.Now().UnixNano(), 10))
	if err := seal.Move(dir, dest); err != nil {
		// Leaving it in place would re-fail every restart, but silently
		// deleting evidence is worse; record both errors. A move that
		// happened but could not be synced reports where it went.
		cause = fmt.Errorf("%w (quarantine move also failed: %w)", cause, err)
		var me *seal.MoveError
		if errors.As(err, &me) && !me.Moved {
			dest = dir
		}
	}
	sv.quarantined = append(sv.quarantined, QuarantineReport{Name: name, Dir: dest, Err: cause.Error()})
	sv.quarCauses = append(sv.quarCauses, cause)
	sv.metrics.Inc(mSessionsQuarantined)
}

// Quarantined lists the sessions refused at startup.
func (sv *Server) Quarantined() []QuarantineReport {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return append([]QuarantineReport(nil), sv.quarantined...)
}

// QuarantineCauses returns the typed resume errors behind Quarantined,
// index-aligned with it (crashsim's negative control asserts the type).
func (sv *Server) QuarantineCauses() []error {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return append([]error(nil), sv.quarCauses...)
}

// Metrics exposes the server's counter set.
func (sv *Server) Metrics() *Metrics { return sv.metrics }

// CreateSession admits a new named session, idempotently: re-creating
// an existing session with an equal spec returns it unchanged (so a
// client that crashed mid-handshake can blindly retry), a different
// spec is a typed conflict, and past the global cap the NEW session is
// the one shed — established sessions are never evicted to make room.
func (sv *Server) CreateSession(spec Spec) (*Session, bool, error) {
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.killed {
		return nil, false, &StateError{Name: spec.Name, State: "server down", Op: "create session"}
	}
	if s, ok := sv.sessions[spec.Name]; ok {
		if s.spec.equal(spec) {
			return s, false, nil
		}
		return nil, false, &SpecConflictError{Name: spec.Name}
	}
	if len(sv.sessions) >= sv.opts.MaxSessions {
		sv.metrics.Inc(mSessionsShed)
		return nil, false, &CapacityError{Active: len(sv.sessions), Cap: sv.opts.MaxSessions}
	}
	dir := filepath.Join(sv.opts.sessionsDir(), spec.Name)
	s, err := newSession(spec, dir, sv.opts, sv.kill, sv.metrics)
	if err != nil {
		return nil, false, err
	}
	sv.sessions[spec.Name] = s
	sv.metrics.Inc(mSessionsCreated)
	return s, true, nil
}

// Session looks up a session by name.
func (sv *Server) Session(name string) (*Session, bool) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	s, ok := sv.sessions[name]
	return s, ok
}

// DeleteSession aborts a session and removes its durable state.
func (sv *Server) DeleteSession(name string) error {
	sv.mu.Lock()
	s, ok := sv.sessions[name]
	if ok {
		delete(sv.sessions, name)
	}
	sv.mu.Unlock()
	if !ok {
		return os.ErrNotExist
	}
	s.halt()
	return os.RemoveAll(s.dir)
}

// Statuses snapshots every session, name-sorted.
func (sv *Server) Statuses() []Status {
	sv.mu.Lock()
	list := make([]*Session, 0, len(sv.sessions))
	for _, s := range sv.sessions {
		list = append(list, s)
	}
	sv.mu.Unlock()
	out := make([]Status, len(list))
	for i, s := range list {
		out[i] = s.Status()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Kill simulates power loss: every worker abandons mid-flight with no
// flush, no checkpoint, no goodbye. Only resume-from-disk remains.
func (sv *Server) Kill() {
	sv.mu.Lock()
	if !sv.killed {
		sv.killed = true
		close(sv.kill)
	}
	list := make([]*Session, 0, len(sv.sessions))
	for _, s := range sv.sessions {
		list = append(list, s)
	}
	sv.mu.Unlock()
	for _, s := range list {
		if s.workerDone != nil {
			<-s.workerDone
		}
	}
}

// Close shuts down gracefully: checkpoint every live session (so
// nothing uploaded is lost), then stop the workers.
func (sv *Server) Close() error {
	sv.mu.Lock()
	list := make([]*Session, 0, len(sv.sessions))
	for _, s := range sv.sessions {
		list = append(list, s)
	}
	sv.mu.Unlock()
	var first error
	for _, s := range list {
		if err := s.syncCkpt(); err != nil && first == nil {
			first = err
		}
	}
	sv.Kill()
	return first
}

// down reports whether the server has been killed/closed.
func (sv *Server) down() bool {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.killed
}
