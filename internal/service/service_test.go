package service

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"secpb/internal/engine"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

// genOps records the deterministic op stream a spec's workload yields.
func genOps(t *testing.T, spec Spec, nops uint64) []trace.Op {
	t.Helper()
	cfg, prof, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	ops, err := workload.Generate(prof, cfg.Seed, int(nops))
	if err != nil {
		t.Fatal(err)
	}
	return ops
}

// segBodies encodes ops as SPB2 and splits them into one-segment
// upload bodies (header + sealed frame each).
func segBodies(t *testing.T, ops []trace.Op, segOps int) [][]byte {
	t.Helper()
	var buf bytes.Buffer
	sw := trace.NewSegWriter(&buf, segOps)
	for _, op := range ops {
		if err := sw.Write(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	if _, err := trace.ScanSegments(bytes.NewReader(buf.Bytes()), func(seg int, frame []byte) error {
		bodies = append(bodies, append(trace.SPB2Header(), frame...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return bodies
}

// goldenResult is the uninterrupted batch replay the service must match.
func goldenResult(t *testing.T, spec Spec, ops []trace.Op) []byte {
	t.Helper()
	cfg, prof, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.RunRecorded(cfg, prof, trace.NewSliceBatchSource(ops))
	if err != nil {
		t.Fatal(err)
	}
	return EncodeResult(res)
}

func httpDo(t *testing.T, sv *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	sv.ServeHTTP(rec, req)
	return rec
}

// uploadAll streams bodies[from:] into the named session over HTTP,
// honouring 429 backpressure by retrying the same ordinal.
func uploadAll(t *testing.T, sv *Server, name string, bodies [][]byte, from int) {
	t.Helper()
	for i := from; i < len(bodies); i++ {
		for {
			rec := httpDo(t, sv, "PUT", fmt.Sprintf("/v1/sessions/%s/segments/%d", name, i), bodies[i])
			if rec.Code == http.StatusAccepted || rec.Code == http.StatusOK {
				break
			}
			if rec.Code == http.StatusTooManyRequests {
				if rec.Header().Get("Retry-After") == "" {
					t.Fatalf("429 without Retry-After: %s", rec.Body)
				}
				time.Sleep(time.Millisecond)
				continue
			}
			t.Fatalf("upload seg %d: %d %s", i, rec.Code, rec.Body)
		}
	}
}

func createSession(t *testing.T, sv *Server, spec Spec) {
	t.Helper()
	body := []byte(fmt.Sprintf(`{"name":%q,"scheme":%q,"bench":%q,"seed":%d}`,
		spec.Name, spec.Scheme, spec.Bench, spec.Seed))
	rec := httpDo(t, sv, "POST", "/v1/sessions", body)
	if rec.Code != http.StatusCreated && rec.Code != http.StatusOK {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
}

func finalize(t *testing.T, sv *Server, name string) []byte {
	t.Helper()
	rec := httpDo(t, sv, "POST", "/v1/sessions/"+name+"/finalize", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("finalize: %d %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

func testSpec(name string) Spec {
	return Spec{Name: name, Scheme: "cobcm", Bench: "gcc", Seed: 7}
}

// The central identity: streaming a trace through the service segment
// by segment produces a result byte-identical to the batch RunRecorded
// replay of the same trace.
func TestStreamMatchesBatch(t *testing.T) {
	spec := testSpec("s1")
	ops := genOps(t, spec, 5000)
	bodies := segBodies(t, ops, 300)
	golden := goldenResult(t, spec, ops)

	sv, err := Open(Options{DataDir: t.TempDir(), CkptEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	createSession(t, sv, spec)
	uploadAll(t, sv, spec.Name, bodies, 0)
	got := finalize(t, sv, spec.Name)
	if !bytes.Equal(got, golden) {
		t.Fatalf("streamed result diverges from batch replay:\n got %s\nwant %s", got, golden)
	}
	// Finalize is idempotent and the result endpoint serves the same bytes.
	if again := finalize(t, sv, spec.Name); !bytes.Equal(again, got) {
		t.Fatalf("second finalize returned different bytes")
	}
	rec := httpDo(t, sv, "GET", "/v1/sessions/"+spec.Name+"/result", nil)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), got) {
		t.Fatalf("result endpoint: %d", rec.Code)
	}
}

// At-least-once upload: re-sending an accepted ordinal is a duplicate
// ack, skipping ahead is a typed 409.
func TestIdempotentAndOutOfOrder(t *testing.T) {
	spec := testSpec("s2")
	bodies := segBodies(t, genOps(t, spec, 1200), 256)
	sv, err := Open(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	createSession(t, sv, spec)
	uploadAll(t, sv, spec.Name, bodies[:2], 0)

	rec := httpDo(t, sv, "PUT", "/v1/sessions/"+spec.Name+"/segments/0", bodies[0])
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "duplicate") {
		t.Fatalf("duplicate upload: %d %s", rec.Code, rec.Body)
	}
	rec = httpDo(t, sv, "PUT", "/v1/sessions/"+spec.Name+"/segments/7", bodies[2])
	if rec.Code != http.StatusConflict || !strings.Contains(rec.Body.String(), "out_of_order") {
		t.Fatalf("out-of-order upload: %d %s", rec.Code, rec.Body)
	}
}

// Corrupt and empty upload bodies are rejected with typed 400s before
// touching session state.
func TestUploadRejections(t *testing.T) {
	spec := testSpec("s3")
	bodies := segBodies(t, genOps(t, spec, 600), 256)
	sv, err := Open(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	createSession(t, sv, spec)

	cases := []struct {
		name string
		body []byte
		tag  string
	}{
		{"empty body", nil, "empty_trace"},
		{"header only", trace.SPB2Header(), "empty_trace"},
		{"bad magic", []byte("nope!"), "corrupt_trace"},
		{"flipped byte", flip(bodies[0], len(bodies[0])/2), "corrupt_trace"},
		{"trailing garbage", append(append([]byte(nil), bodies[0]...), 0xff, 0xee), "corrupt_trace"},
		{"two segments", append(append([]byte(nil), bodies[0]...), bodies[1][trace.SPB2HeaderLen:]...), "multi_segment"},
	}
	for _, tc := range cases {
		rec := httpDo(t, sv, "PUT", "/v1/sessions/"+spec.Name+"/segments/0", tc.body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), tc.tag) {
			t.Errorf("%s: got %d %s, want 400 %s", tc.name, rec.Code, rec.Body, tc.tag)
		}
	}
	// None of the rejects consumed the ordinal.
	uploadAll(t, sv, spec.Name, bodies, 0)
	finalize(t, sv, spec.Name)
}

func flip(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0xff
	return c
}

// Backpressure: with the worker dead (power lost) and a queue of one,
// the second accept must report a typed queue-full error.
func TestQueueFullBackpressure(t *testing.T) {
	spec := testSpec("s4")
	bodies := segBodies(t, genOps(t, spec, 600), 256)
	sv, err := Open(Options{DataDir: t.TempDir(), QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	createSession(t, sv, spec)
	s, _ := sv.Session(spec.Name)
	sv.Kill() // worker abandons; queue no longer drains

	frame0, batch0, err := parseSegmentBody(bodies[0])
	if err != nil {
		t.Fatal(err)
	}
	if out, err := s.Accept(0, frame0, batch0); err != nil || out != Accepted {
		t.Fatalf("first accept: %v %v", out, err)
	}
	frame1, batch1, err := parseSegmentBody(bodies[1])
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Accept(1, frame1, batch1)
	var qf *QueueFullError
	if !errors.As(err, &qf) {
		t.Fatalf("second accept: %v, want *QueueFullError", err)
	}
	if code, tag, retry := errStatus(err); code != http.StatusTooManyRequests || tag != "queue_full" || retry <= 0 {
		t.Fatalf("queue-full maps to %d %s retry=%d", code, tag, retry)
	}
}

// Admission control: past the cap the newest session is shed with 429,
// existing sessions keep working.
func TestSessionCap(t *testing.T) {
	sv, err := Open(Options{DataDir: t.TempDir(), MaxSessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	createSession(t, sv, testSpec("a"))
	createSession(t, sv, testSpec("b"))
	rec := httpDo(t, sv, "POST", "/v1/sessions",
		[]byte(`{"name":"c","scheme":"cobcm","bench":"gcc","seed":7}`))
	if rec.Code != http.StatusTooManyRequests || !strings.Contains(rec.Body.String(), "session_cap") {
		t.Fatalf("over-cap create: %d %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed create lacks Retry-After")
	}
	// Idempotent re-create of an existing session is not an admission.
	createSession(t, sv, testSpec("a"))
	// A different spec under an existing name is a typed conflict.
	rec = httpDo(t, sv, "POST", "/v1/sessions",
		[]byte(`{"name":"a","scheme":"bcm","bench":"gcc","seed":7}`))
	if rec.Code != http.StatusConflict || !strings.Contains(rec.Body.String(), "spec_conflict") {
		t.Fatalf("conflicting re-create: %d %s", rec.Code, rec.Body)
	}
}

// Kill/resume: a server killed mid-stream (plus a torn tail appended
// to the log, as a crashed write would leave) resumes from its last
// checkpoint, tells the client where to resume, and the completed
// session is byte-identical to the uninterrupted batch run.
func TestKillResumeByteIdentical(t *testing.T) {
	spec := testSpec("s5")
	ops := genOps(t, spec, 4000)
	bodies := segBodies(t, ops, 256)
	golden := goldenResult(t, spec, ops)
	for _, killAfter := range []int{1, 5, len(bodies) - 1, len(bodies)} {
		dataDir := t.TempDir()
		sv, err := Open(Options{DataDir: dataDir, CkptEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		createSession(t, sv, spec)
		uploadAll(t, sv, spec.Name, bodies[:killAfter], 0)
		sv.Kill()

		// Torn tail: a crashed append leaves partial frame bytes past
		// the durable cursor; resume must discard them.
		logPath := filepath.Join(dataDir, "sessions", spec.Name, logFile)
		f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte{0x13, 0x37, 0xde, 0xad})
		f.Close()

		sv2, err := Open(Options{DataDir: dataDir, CkptEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		if q := sv2.Quarantined(); len(q) != 0 {
			t.Fatalf("kill@%d: healthy session quarantined: %+v", killAfter, q)
		}
		s, ok := sv2.Session(spec.Name)
		if !ok {
			t.Fatalf("kill@%d: session lost", killAfter)
		}
		st := s.Status()
		if st.DurableSegs > uint64(killAfter) {
			t.Fatalf("kill@%d: durable cursor %d ahead of uploads", killAfter, st.DurableSegs)
		}
		uploadAll(t, sv2, spec.Name, bodies, int(st.DurableSegs))
		got := finalize(t, sv2, spec.Name)
		if !bytes.Equal(got, golden) {
			t.Fatalf("kill@%d: resumed result diverges:\n got %s\nwant %s", killAfter, got, golden)
		}
		sv2.Close()
	}
}

// A finalized session survives restart and serves the same artifact
// without replay.
func TestFinalizedSessionSurvivesRestart(t *testing.T) {
	spec := testSpec("s6")
	ops := genOps(t, spec, 1500)
	bodies := segBodies(t, ops, 256)
	dataDir := t.TempDir()
	sv, err := Open(Options{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	createSession(t, sv, spec)
	uploadAll(t, sv, spec.Name, bodies, 0)
	want := finalize(t, sv, spec.Name)
	sv.Kill()

	sv2, err := Open(Options{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer sv2.Close()
	rec := httpDo(t, sv2, "GET", "/v1/sessions/"+spec.Name+"/result", nil)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("restarted result: %d", rec.Code)
	}
	// Streaming into it is a typed state rejection.
	rec = httpDo(t, sv2, "PUT", "/v1/sessions/"+spec.Name+"/segments/99", bodies[0])
	if rec.Code != http.StatusConflict || !strings.Contains(rec.Body.String(), "bad_state") {
		t.Fatalf("stream into finalized: %d %s", rec.Code, rec.Body)
	}
}

// Graceful Close checkpoints everything accepted, so a restart needs
// no re-uploads.
func TestGracefulCloseSealsEverything(t *testing.T) {
	spec := testSpec("s7")
	ops := genOps(t, spec, 2000)
	bodies := segBodies(t, ops, 256)
	dataDir := t.TempDir()
	sv, err := Open(Options{DataDir: dataDir, CkptEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	createSession(t, sv, spec)
	uploadAll(t, sv, spec.Name, bodies, 0)
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}
	sv2, err := Open(Options{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer sv2.Close()
	s, ok := sv2.Session(spec.Name)
	if !ok {
		t.Fatal("session lost across graceful restart")
	}
	if st := s.Status(); st.DurableSegs != uint64(len(bodies)) {
		t.Fatalf("durable %d of %d segments after graceful close", st.DurableSegs, len(bodies))
	}
	got := finalize(t, sv2, spec.Name)
	if !bytes.Equal(got, goldenResult(t, spec, ops)) {
		t.Fatal("graceful-restart result diverges from batch replay")
	}
}

// DELETE aborts a session and frees its name and disk state.
func TestDeleteSession(t *testing.T) {
	spec := testSpec("s8")
	sv, err := Open(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	createSession(t, sv, spec)
	rec := httpDo(t, sv, "DELETE", "/v1/sessions/"+spec.Name, nil)
	if rec.Code != http.StatusNoContent {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body)
	}
	if rec := httpDo(t, sv, "GET", "/v1/sessions/"+spec.Name, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("status after delete: %d", rec.Code)
	}
	createSession(t, sv, spec) // name is free again
}

// /metrics exposes the robustness counters in Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	spec := testSpec("s9")
	bodies := segBodies(t, genOps(t, spec, 900), 256)
	sv, err := Open(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	createSession(t, sv, spec)
	uploadAll(t, sv, spec.Name, bodies, 0)
	httpDo(t, sv, "PUT", "/v1/sessions/"+spec.Name+"/segments/0", bodies[0]) // duplicate
	finalize(t, sv, spec.Name)

	rec := httpDo(t, sv, "GET", "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	text := rec.Body.String()
	for _, want := range []string{
		"secpb_sessions_created_total 1",
		"secpb_segments_accepted_total " + fmt.Sprint(len(bodies)),
		"secpb_segments_duplicate_total 1",
		"secpb_checkpoints_total",
		"secpb_checkpoint_bytes_total",
		"secpb_sessions_active 1",
		`secpb_session_durable_segs{session="s9"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}
