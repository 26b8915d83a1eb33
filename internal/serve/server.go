package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/stats"
)

// Config shapes a Server. Zero values select the defaults documented
// on each field.
type Config struct {
	// Scheduler bounds the micro-batching layer (see SchedulerConfig).
	Scheduler SchedulerConfig
	// RequestTimeout is the per-request deadline covering queue wait
	// plus inference (default 5s).
	RequestTimeout time.Duration
	// RetryAfter is the hint returned with 429 responses (default 1s,
	// rounded up to whole seconds).
	RetryAfter time.Duration
	// WindowSize is the latency window length for /metrics quantiles
	// (default 1 minute).
	WindowSize time.Duration
	// Ledger, when set, receives a tamper-evident audit record for
	// every model admission and every /v1/distinguish verdict, and
	// enables the /ledger/anchor and /ledger/proof endpoints. The
	// server does not own the ledger; the caller closes it after the
	// server has drained.
	Ledger *ledger.Ledger
}

func (c *Config) setDefaults() {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.WindowSize <= 0 {
		c.WindowSize = time.Minute
	}
}

// Server is the batched distinguisher inference service: a model
// registry, a micro-batching scheduler, and the HTTP handlers that
// connect them.
type Server struct {
	cfg   Config
	reg   *Registry
	sched *Scheduler
	mux   *http.ServeMux
	start time.Time

	requests    map[string]*metrics.Counter // per endpoint
	shedded     *metrics.Counter
	timeouts    *metrics.Counter
	latClassify *metrics.Window
	latDisting  *metrics.Window
}

// New builds a Server with a running scheduler. Call Close to drain
// it.
func New(cfg Config) *Server {
	s := newServer(cfg)
	s.sched.start()
	return s
}

// newServer builds the Server with an unstarted scheduler; tests use
// this to exercise the shedding path deterministically.
func newServer(cfg Config) *Server {
	cfg.setDefaults()
	s := &Server{
		cfg:   cfg,
		reg:   NewRegistry(),
		sched: newScheduler(cfg.Scheduler),
		mux:   http.NewServeMux(),
		start: time.Now(),
		requests: map[string]*metrics.Counter{
			"classify":    {},
			"distinguish": {},
			"models":      {},
		},
		shedded:     &metrics.Counter{},
		timeouts:    &metrics.Counter{},
		latClassify: metrics.NewWindow(cfg.WindowSize, 4096),
		latDisting:  metrics.NewWindow(cfg.WindowSize, 4096),
	}
	s.mux.HandleFunc("POST /v1/classify", s.handleClassify)
	s.mux.HandleFunc("POST /v1/distinguish", s.handleDistinguish)
	s.mux.HandleFunc("GET /models", s.handleModelsList)
	s.mux.HandleFunc("POST /models", s.handleModelsLoad)
	s.mux.HandleFunc("DELETE /models/{name}", s.handleModelsDelete)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /ledger/anchor", s.handleLedgerAnchor)
	s.mux.HandleFunc("GET /ledger/proof", s.handleLedgerProof)
	return s
}

// Admit loads the distinguisher at path into the registry under name
// and, when a ledger is configured, appends the admission record — so
// every model the server will answer for is anchored before it serves
// its first request. Both the preload path in cmd/served and the
// POST /models handler go through here.
func (s *Server) Admit(name, path string) (*Entry, uint64, error) {
	e, err := s.reg.Load(name, path)
	if err != nil {
		return nil, 0, err
	}
	var seq uint64
	if s.cfg.Ledger != nil {
		seq, err = s.cfg.Ledger.Append(ledger.Record{
			Kind:     ledger.KindAdmit,
			Model:    e.Name,
			Version:  e.Version,
			Scenario: e.Dist.Scenario.Name(),
			Path:     e.Path,
			Accuracy: e.Dist.Accuracy,
		})
		if err != nil {
			// The model is loaded but unanchored: refuse the admission
			// rather than serve verdicts a ledger verifier cannot tie
			// to an admitted model.
			s.reg.Remove(name)
			return nil, 0, fmt.Errorf("serve: ledger append for %q: %w", name, err)
		}
	}
	return e, seq, nil
}

// Registry exposes the model registry for pre-loading models before
// the listener starts.
func (s *Server) Registry() *Registry { return s.reg }

// Handler returns the root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the scheduler. Call it after the HTTP listener has
// stopped accepting requests (http.Server.Shutdown), so no Submit
// races the drain.
func (s *Server) Close() { s.sched.Stop() }

// --- request/response shapes ---

type classifyResponse struct {
	Model   string `json:"model"`
	Version int    `json:"version"`
	Classes []int  `json:"classes"`
}

type distinguishResponse struct {
	Model           string  `json:"model"`
	Version         int     `json:"version"`
	Queries         int     `json:"queries"`
	Accuracy        float64 `json:"accuracy"`
	OfflineAccuracy float64 `json:"offlineAccuracy"`
	Verdict         string  `json:"verdict"`
	// LedgerSeq is the verdict's sequence number in the audit ledger
	// (present only when the server runs with one); GET
	// /ledger/proof?seq=N returns its offline-verifiable inclusion
	// proof.
	LedgerSeq uint64 `json:"ledgerSeq,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// DecodeBody decodes a JSON request body other than a classify or
// distinguish request (see decode.go for those) into v, reading at most
// maxBody bytes. On error it writes the response itself — 413 for an
// oversized body, 400 for anything else — and returns false. The
// cluster router reads its own JSON bodies with it too.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
	default:
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
	}
	return false
}

// --- handlers ---

// decodeRows reads, decodes and validates a classify or distinguish
// body (see request.validate for the order of the checks) and returns
// the model and the request with its rows packed. On error it writes
// the response itself and returns ok=false.
func (s *Server) decodeRows(w http.ResponseWriter, r *http.Request, distinguish bool) (*Entry, *request, bool) {
	q, err := readRequest(w, r, s.sched.MaxBatch())
	var entry *Entry
	if err == nil {
		entry, err = q.validate(s.reg.Get, s.sched.MaxBatch(), distinguish)
	}
	if err != nil {
		writeErr(w, err)
		return nil, nil, false
	}
	return entry, q, true
}

// submit routes rows through the scheduler and maps the failure modes
// onto HTTP codes. On error it writes the response itself.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, entry *Entry, x *nn.BitMatrix) ([]int, bool) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	classes, err := s.sched.SubmitBits(ctx, entry, x)
	switch {
	case err == nil:
		return classes, true
	case errors.Is(err, ErrOverloaded):
		s.shedded.Inc()
		secs := int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		writeError(w, http.StatusTooManyRequests, "server overloaded, retry after %ds", secs)
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Inc()
		writeError(w, http.StatusGatewayTimeout, "request deadline (%s) exceeded", s.cfg.RequestTimeout)
	case errors.Is(err, ErrStopped):
		writeError(w, http.StatusServiceUnavailable, "server draining")
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
	return nil, false
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	s.requests["classify"].Inc()
	started := time.Now()
	entry, q, ok := s.decodeRows(w, r, false)
	if !ok {
		return
	}
	classes, ok := s.submit(w, r, entry, &q.x)
	if !ok {
		return
	}
	s.latClassify.Observe(time.Since(started).Seconds())
	writeJSON(w, http.StatusOK, classifyResponse{
		Model:   entry.Name,
		Version: entry.Version,
		Classes: classes,
	})
}

// handleDistinguish is the online phase of Algorithm 2 over HTTP: the
// client queried an unknown oracle cycling the scenario's classes,
// and the server scores the classifier's agreement a′ against the
// intended labels and decides CIPHER vs RANDOM vs INCONCLUSIVE at the
// offline accuracy recorded in the model file.
func (s *Server) handleDistinguish(w http.ResponseWriter, r *http.Request) {
	s.requests["distinguish"].Inc()
	started := time.Now()
	entry, q, ok := s.decodeRows(w, r, true)
	if !ok {
		return
	}
	sigmas := q.sigmas
	if sigmas <= 0 {
		sigmas = 3
	}
	classes, ok := s.submit(w, r, entry, &q.x)
	if !ok {
		return
	}
	aPrime := stats.Accuracy(classes, q.labels)
	verdict, err := stats.Decide(entry.Dist.Accuracy, entry.Classes(), aPrime, q.x.Rows, sigmas)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	var seq uint64
	if s.cfg.Ledger != nil {
		seq, err = s.cfg.Ledger.Append(ledger.Record{
			Kind:            ledger.KindVerdict,
			Model:           entry.Name,
			Version:         entry.Version,
			Scenario:        entry.Dist.Scenario.Name(),
			Accuracy:        aPrime,
			OfflineAccuracy: entry.Dist.Accuracy,
			Queries:         q.x.Rows,
			Verdict:         verdict.String(),
			Sigmas:          sigmas,
		})
		if err != nil {
			// A verdict that cannot be anchored is not served: the
			// ledger's whole point is that every decision is in it.
			writeError(w, http.StatusInternalServerError, "ledger append: %v", err)
			return
		}
	}
	s.latDisting.Observe(time.Since(started).Seconds())
	writeJSON(w, http.StatusOK, distinguishResponse{
		Model:           entry.Name,
		Version:         entry.Version,
		Queries:         q.x.Rows,
		Accuracy:        aPrime,
		OfflineAccuracy: entry.Dist.Accuracy,
		Verdict:         verdict.String(),
		LedgerSeq:       seq,
	})
}

// handleLedgerAnchor serves the current anchor — the chain head a
// client should persist to later verify proofs offline.
func (s *Server) handleLedgerAnchor(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Ledger == nil {
		writeError(w, http.StatusNotFound, "this server runs without an audit ledger")
		return
	}
	// Seal pending records so the anchor covers everything served so
	// far, then hand it out.
	if err := s.cfg.Ledger.Flush(); err != nil {
		writeError(w, http.StatusInternalServerError, "ledger flush: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Ledger.Anchor())
}

// handleLedgerProof serves the inclusion proof for ?seq=N, verifiable
// offline against the anchor by cmd/ledgerverify.
func (s *Server) handleLedgerProof(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Ledger == nil {
		writeError(w, http.StatusNotFound, "this server runs without an audit ledger")
		return
	}
	seq, err := strconv.ParseUint(r.URL.Query().Get("seq"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "seq query parameter must be a decimal record sequence number")
		return
	}
	p, err := s.cfg.Ledger.Proof(seq)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, p)
}

// modelInfo is the /models listing shape.
type modelInfo struct {
	Name       string  `json:"name"`
	Path       string  `json:"path"`
	Version    int     `json:"version"`
	Scenario   string  `json:"scenario"`
	FeatureLen int     `json:"featureLen"`
	Classes    int     `json:"classes"`
	Accuracy   float64 `json:"accuracy"`
	LoadedAt   string  `json:"loadedAt"`
}

func infoOf(e *Entry) modelInfo {
	return modelInfo{
		Name:       e.Name,
		Path:       e.Path,
		Version:    e.Version,
		Scenario:   e.Dist.Scenario.Name(),
		FeatureLen: e.FeatureLen(),
		Classes:    e.Classes(),
		Accuracy:   e.Dist.Accuracy,
		LoadedAt:   e.LoadedAt.UTC().Format(time.RFC3339),
	}
}

func (s *Server) handleModelsList(w http.ResponseWriter, r *http.Request) {
	s.requests["models"].Inc()
	entries := s.reg.List()
	out := make([]modelInfo, len(entries))
	for i, e := range entries {
		out[i] = infoOf(e)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleModelsLoad hot-(re)loads a distinguisher file into the
// registry: POST {"name": "...", "path": "..."}. The swap is atomic;
// in-flight batches finish on the old weights.
func (s *Server) handleModelsLoad(w http.ResponseWriter, r *http.Request) {
	s.requests["models"].Inc()
	var req struct {
		Name string `json:"name"`
		Path string `json:"path"`
	}
	if !DecodeBody(w, r, &req) {
		return
	}
	if req.Name == "" || req.Path == "" {
		writeError(w, http.StatusBadRequest, "name and path must both be set")
		return
	}
	e, _, err := s.Admit(req.Name, req.Path)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, infoOf(e))
}

func (s *Server) handleModelsDelete(w http.ResponseWriter, r *http.Request) {
	s.requests["models"].Inc()
	name := r.PathValue("name")
	if !s.reg.Remove(name) {
		writeError(w, http.StatusNotFound, "unknown model %q", name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"models": s.reg.Len(),
		"uptime": time.Since(s.start).Seconds(),
	})
}

// handleMetrics renders the in-process instruments in the Prometheus
// text exposition format (rendered by hand; no client library).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	var b strings.Builder
	fmt.Fprintf(&b, "served_uptime_seconds %.3f\n", now.Sub(s.start).Seconds())
	fmt.Fprintf(&b, "served_models %d\n", s.reg.Len())
	for _, ep := range []string{"classify", "distinguish", "models"} {
		fmt.Fprintf(&b, "served_requests_total{endpoint=%q} %d\n", ep, s.requests[ep].Value())
	}
	fmt.Fprintf(&b, "served_shed_total %d\n", s.shedded.Value())
	fmt.Fprintf(&b, "served_timeout_total %d\n", s.timeouts.Value())
	fmt.Fprintf(&b, "served_queue_depth %d\n", s.sched.QueueLen())
	fmt.Fprintf(&b, "served_queue_capacity %d\n", s.sched.cfg.QueueDepth)
	fmt.Fprintf(&b, "served_batches_total %d\n", s.sched.Batches.Value())
	for _, lv := range s.sched.ModelRequests.Snapshot() {
		fmt.Fprintf(&b, "served_model_requests_total{model=%q} %d\n", lv.Label, lv.Value)
	}
	for _, lv := range s.sched.ModelRows.Snapshot() {
		fmt.Fprintf(&b, "served_model_rows_total{model=%q} %d\n", lv.Label, lv.Value)
	}
	for _, lv := range s.sched.ModelBatches.Snapshot() {
		fmt.Fprintf(&b, "served_model_batches_total{model=%q} %d\n", lv.Label, lv.Value)
	}
	if s.cfg.Ledger != nil {
		a := s.cfg.Ledger.Anchor()
		fmt.Fprintf(&b, "served_ledger_records_total %d\n", s.cfg.Ledger.Len())
		fmt.Fprintf(&b, "served_ledger_sealed_batches_total %d\n", a.Batches)
	}

	h := s.sched.BatchSizes.Snapshot()
	cum := uint64(0)
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(&b, "served_batch_size_bucket{le=%q} %d\n", fmt.Sprint(bound), cum)
	}
	fmt.Fprintf(&b, "served_batch_size_bucket{le=\"+Inf\"} %d\n", cum+h.Inf)
	fmt.Fprintf(&b, "served_batch_size_sum %d\n", h.Sum)
	fmt.Fprintf(&b, "served_batch_size_count %d\n", h.Count)

	for _, lw := range []struct {
		ep string
		w  *metrics.Window
	}{{"classify", s.latClassify}, {"distinguish", s.latDisting}} {
		qs, n := lw.w.Quantiles(now, 0.5, 0.99)
		fmt.Fprintf(&b, "served_latency_seconds{endpoint=%q,quantile=\"0.5\"} %.6f\n", lw.ep, qs[0])
		fmt.Fprintf(&b, "served_latency_seconds{endpoint=%q,quantile=\"0.99\"} %.6f\n", lw.ep, qs[1])
		fmt.Fprintf(&b, "served_latency_window_count{endpoint=%q} %d\n", lw.ep, n)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write([]byte(b.String()))
}
