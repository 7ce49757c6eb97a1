package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"

	"secpb/internal/seal"
	"secpb/internal/trace"
)

// errMultiSegment rejects an upload body carrying more than one sealed
// segment: the ordinal in the URL names exactly one.
var errMultiSegment = errors.New("service: upload body must contain exactly one segment")

// buildMux wires the HTTP surface.
func (sv *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", sv.handleCreate)
	mux.HandleFunc("GET /v1/sessions", sv.handleList)
	mux.HandleFunc("GET /v1/sessions/{name}", sv.handleStatus)
	mux.HandleFunc("DELETE /v1/sessions/{name}", sv.handleDelete)
	mux.HandleFunc("PUT /v1/sessions/{name}/segments/{seg}", sv.handleSegment)
	mux.HandleFunc("POST /v1/sessions/{name}/finalize", sv.handleFinalize)
	mux.HandleFunc("GET /v1/sessions/{name}/result", sv.handleResult)
	mux.HandleFunc("GET /metrics", sv.handleMetrics)
	mux.HandleFunc("GET /healthz", sv.handleHealthz)
	return mux
}

// ServeHTTP makes the server mountable directly (and lets crashsim
// drive it in-process with no sockets).
func (sv *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if sv.down() {
		writeErr(w, http.StatusServiceUnavailable, "server_down", "server is shutting down", 0)
		return
	}
	sv.mux.ServeHTTP(w, r)
}

// errStatus maps a typed service error to an HTTP status, a stable
// machine-readable tag, and a Retry-After hint in seconds (0 = none).
func errStatus(err error) (code int, tag string, retryAfter int) {
	var (
		qf  *QueueFullError
		ce  *CapacityError
		ooo *OutOfOrderError
		st  *StateError
		sc  *SpecConflictError
		et  *trace.EmptyTraceError
		ct  *trace.CorruptTraceError
		cc  *seal.CorruptError
	)
	switch {
	case errors.As(err, &qf):
		return http.StatusTooManyRequests, "queue_full", 1
	case errors.As(err, &ce):
		return http.StatusTooManyRequests, "session_cap", 5
	case errors.As(err, &ooo):
		return http.StatusConflict, "out_of_order", 0
	case errors.As(err, &sc):
		return http.StatusConflict, "spec_conflict", 0
	case errors.As(err, &st):
		return http.StatusConflict, "bad_state", 0
	case errors.As(err, &et):
		return http.StatusBadRequest, "empty_trace", 0
	case errors.As(err, &ct):
		return http.StatusBadRequest, "corrupt_trace", 0
	case errors.Is(err, errMultiSegment):
		return http.StatusBadRequest, "multi_segment", 0
	case errors.As(err, &cc):
		return http.StatusInternalServerError, "corrupt_checkpoint", 0
	default:
		return http.StatusInternalServerError, "internal", 0
	}
}

func writeErr(w http.ResponseWriter, code int, tag, detail string, retryAfter int) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	writeJSON(w, code, map[string]string{"error": tag, "detail": detail})
}

func failWith(w http.ResponseWriter, err error) {
	code, tag, retry := errStatus(err)
	writeErr(w, code, tag, err.Error(), retry)
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func (sv *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_body", err.Error(), 0)
		return
	}
	if err := json.Unmarshal(body, &spec); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_spec", err.Error(), 0)
		return
	}
	if err := spec.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_spec", err.Error(), 0)
		return
	}
	s, created, err := sv.CreateSession(spec)
	if err != nil {
		failWith(w, err)
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	writeJSON(w, code, s.Status())
}

func (sv *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"sessions":    sv.Statuses(),
		"quarantined": sv.Quarantined(),
	})
}

func (sv *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s, ok := sv.Session(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no_such_session", r.PathValue("name"), 0)
		return
	}
	writeJSON(w, http.StatusOK, s.Status())
}

func (sv *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := sv.DeleteSession(r.PathValue("name")); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			writeErr(w, http.StatusNotFound, "no_such_session", r.PathValue("name"), 0)
			return
		}
		failWith(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// parseSegmentBody validates an upload: a complete SPB2 stream (header
// plus exactly one sealed segment frame), returning the raw frame for
// the log and the decoded batch for the engine. Every structural
// defect — empty body, bad seal, trailing garbage, extra frames — is a
// typed error before anything touches session state.
func parseSegmentBody(body []byte) ([]byte, *trace.Batch, error) {
	var frame []byte
	n, err := trace.ScanSegments(bytes.NewReader(body), func(seg int, f []byte) error {
		if seg > 0 {
			return errMultiSegment
		}
		frame = append([]byte(nil), f...)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, nil, &trace.EmptyTraceError{Detail: "upload carries zero segments"}
	}
	sr := trace.NewSegReader(bytes.NewReader(body))
	b := trace.NewBatch(trace.DefaultSegOps)
	if err := sr.ReadSegment(b); err != nil {
		return nil, nil, err
	}
	return frame, b, nil
}

func (sv *Server) handleSegment(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ordinal, err := strconv.ParseUint(r.PathValue("seg"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_ordinal", r.PathValue("seg"), 0)
		return
	}
	s, ok := sv.Session(name)
	if !ok {
		writeErr(w, http.StatusNotFound, "no_such_session", name, 0)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, sv.opts.MaxBody+1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_body", err.Error(), 0)
		return
	}
	if int64(len(body)) > sv.opts.MaxBody {
		sv.metrics.Inc(mSegsRejOther)
		writeErr(w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("body exceeds %d bytes", sv.opts.MaxBody), 0)
		return
	}
	frame, batch, err := parseSegmentBody(body)
	if err != nil {
		sv.metrics.Inc(mSegsRejCorrupt)
		failWith(w, err)
		return
	}
	outcome, err := s.Accept(ordinal, frame, batch)
	if err != nil {
		var qf *QueueFullError
		var ooo *OutOfOrderError
		switch {
		case errors.As(err, &qf):
			sv.metrics.Inc(mSegsRejQueue)
		case errors.As(err, &ooo):
			sv.metrics.Inc(mSegsRejOrder)
		default:
			sv.metrics.Inc(mSegsRejOther)
		}
		failWith(w, err)
		return
	}
	switch outcome {
	case Duplicate:
		sv.metrics.Inc(mSegsDuplicate)
		writeJSON(w, http.StatusOK, map[string]interface{}{"status": "duplicate", "seg": ordinal})
	default:
		sv.metrics.Inc(mSegsAccepted)
		// 202: applied asynchronously; durable after the next checkpoint
		// (poll status.durable_segs, or rely on finalize to seal all).
		writeJSON(w, http.StatusAccepted, map[string]interface{}{"status": "accepted", "seg": ordinal})
	}
}

func (sv *Server) handleFinalize(w http.ResponseWriter, r *http.Request) {
	s, ok := sv.Session(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no_such_session", r.PathValue("name"), 0)
		return
	}
	res, err := s.Finalize(sv.opts.FinalizeWait)
	if err != nil {
		failWith(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(res)
}

func (sv *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s, ok := sv.Session(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no_such_session", r.PathValue("name"), 0)
		return
	}
	res, err := s.Result()
	if err != nil {
		failWith(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(res)
}

func (sv *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	sv.metrics.writeCounters(w)
	statuses := sv.Statuses()
	fmt.Fprintf(w, "# TYPE secpb_sessions_active gauge\nsecpb_sessions_active %d\n", len(statuses))
	for _, st := range statuses {
		fmt.Fprintf(w, "secpb_session_queue_depth{session=%q} %d\n", st.Name, st.QueueDepth)
		fmt.Fprintf(w, "secpb_session_durable_segs{session=%q} %d\n", st.Name, st.DurableSegs)
		fmt.Fprintf(w, "secpb_session_log_bytes{session=%q} %d\n", st.Name, st.LogBytes)
		fmt.Fprintf(w, "secpb_session_checkpoint_age_seconds{session=%q} %.3f\n", st.Name, st.CkptAgeSec)
	}
}

func (sv *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{"ok": true, "sessions": len(sv.Statuses())})
}
