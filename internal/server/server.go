// Package server is the network front end of the query engine: an HTTP
// handler exposing POST /query over a database, guarded by an admission
// controller so that overload degrades (bounded queueing, 503 + Retry-After
// shedding) instead of collapsing (unbounded goroutines, memory, tail
// latency).
//
// The package composes from primitives the engine already has: request
// deadlines thread straight into the engine's context checkpoints (a
// request that exceeds its budget gets its best-so-far answers, not an
// error), and every request is instrumented through the internal/obs
// registry the database already owns. Graceful shutdown stops admitting,
// drains in-flight queries up to a caller-chosen deadline, then cancels
// the stragglers' contexts and lets the partial-results machinery
// unwind them.
//
// The wire format is defined once, in package sama/client. Error bodies
// are encoded from its ErrorResponse; a 200 body is encoded straight
// from the engine's answers into the very bytes json.Marshal writes for
// its QueryResponse (appendResponse, checked against that oracle).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sama/client"
	"sama/internal/core"
	"sama/internal/obs"
)

// Options configure the handler. The zero value is usable: every field
// falls back to the documented default.
type Options struct {
	// MaxInflight bounds concurrent query execution (default
	// GOMAXPROCS).
	MaxInflight int
	// MaxQueue bounds the FIFO wait queue behind the execution slots: 0
	// takes the default (2×MaxInflight), a negative value means no queue
	// (shed the moment execution is saturated).
	MaxQueue int
	// QueueTimeout is how long a request may wait for a slot before it
	// is shed (default 2s).
	QueueTimeout time.Duration
	// MaxTimeout caps the per-request ?timeout parameter (default 30s).
	MaxTimeout time.Duration
	// DefaultTimeout applies when a request names no timeout (default
	// MaxTimeout).
	DefaultTimeout time.Duration
	// DefaultK is the answer count when ?k is absent (default 10);
	// MaxK caps the count, whether ?k, DefaultK or the query's LIMIT
	// sets it (default 1000).
	DefaultK int
	MaxK     int
	// MaxBodyBytes bounds the query text (default 1 MiB).
	MaxBodyBytes int64
}

// retryAfterSeconds is the backoff hint stamped on 503 responses.
const retryAfterSeconds = "1"

func (o Options) withDefaults() Options {
	if o.MaxInflight <= 0 {
		o.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if o.MaxQueue == 0 {
		o.MaxQueue = 2 * o.MaxInflight
	}
	if o.QueueTimeout <= 0 {
		o.QueueTimeout = 2 * time.Second
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 30 * time.Second
	}
	if o.DefaultTimeout <= 0 || o.DefaultTimeout > o.MaxTimeout {
		o.DefaultTimeout = o.MaxTimeout
	}
	if o.DefaultK <= 0 {
		o.DefaultK = 10
	}
	if o.MaxK <= 0 {
		o.MaxK = 1000
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	return o
}

// QueryOutcome is what the backend reports for one executed query — the
// engine-level result before wire encoding.
type QueryOutcome struct {
	Answers    []core.Answer
	Vars       []string
	Partial    bool
	StopReason string
	Stats      core.QueryStats
}

// BadRequestError marks a backend failure as the caller's fault (a
// malformed query), mapping to HTTP 400 instead of 500.
type BadRequestError struct{ Err error }

func (e *BadRequestError) Error() string { return e.Err.Error() }
func (e *BadRequestError) Unwrap() error { return e.Err }

// Backend is the handler's view of the database.
type Backend struct {
	// Query executes one SPARQL query under ctx for k answers (?k or
	// DefaultK). Whatever else sets the count, a LIMIT in src included,
	// it returns at most maxK (Options.MaxK) answers. Wrapping a parse
	// failure in *BadRequestError turns it into a 400. Required.
	Query func(ctx context.Context, src string, k, maxK int) (*QueryOutcome, error)
	// Debug, when set, is mounted at /metrics and /debug/ (the
	// database's DebugHandler).
	Debug http.Handler
	// Metrics, when set, receives the request-level metric families.
	Metrics *obs.Registry
}

// Handler is the query server's http.Handler: routing, admission
// control, deadline threading and graceful drain. Build one per
// database with New; it is safe for concurrent use.
type Handler struct {
	mux     *http.ServeMux
	adm     *admission
	opts    Options
	backend Backend
	met     *obs.ServerMetrics

	// stopCtx is cancelled by CancelInflight to reclaim queries that
	// outlive the drain deadline.
	stopCtx    context.Context
	stopCancel context.CancelFunc
	draining   atomic.Bool
}

// New builds the handler. A Backend without Query is a programming
// error and panics.
func New(b Backend, opts Options) *Handler {
	if b.Query == nil {
		panic("server: Backend.Query is required")
	}
	opts = opts.withDefaults()
	h := &Handler{
		adm:     newAdmission(opts.MaxInflight, opts.MaxQueue),
		opts:    opts,
		backend: b,
		met:     obs.NewServerMetrics(b.Metrics),
	}
	h.stopCtx, h.stopCancel = context.WithCancel(context.Background())
	h.met.SetAdmissionFuncs(
		func() float64 { r, _ := h.adm.counts(); return float64(r) },
		func() float64 { _, q := h.adm.counts(); return float64(q) },
	)
	mux := http.NewServeMux()
	mux.HandleFunc("/query", h.handleQuery)
	mux.HandleFunc("/healthz", h.handleHealthz)
	mux.HandleFunc("/readyz", h.handleReadyz)
	if b.Debug != nil {
		mux.Handle("/metrics", b.Debug)
		mux.Handle("/debug/", b.Debug)
	}
	mux.HandleFunc("/", h.handleIndex)
	h.mux = mux
	return h
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func (h *Handler) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprint(w, "sama query server\n\n"+
		"POST /query?k=10&timeout=2s   SPARQL text in, JSON answers out\n"+
		"GET  /healthz                 process liveness\n"+
		"GET  /readyz                  readiness (503 while draining)\n"+
		"GET  /metrics                 Prometheus metrics\n"+
		"GET  /debug/                  traces, expvar, pprof\n")
}

func (h *Handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	io.WriteString(w, "ok\n")
}

func (h *Handler) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if h.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ready\n")
}

// writeBody sends body, a JSON document, with the response status in
// one write behind a Content-Length header, counting the response.
func (h *Handler) writeBody(w http.ResponseWriter, status int, body []byte) {
	h.met.Requests(strconv.Itoa(status)).Inc()
	hdr := w.Header()
	hdr.Set("Content-Type", "application/json")
	hdr.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// writeErr sends an ErrorResponse; 503s carry the Retry-After backoff
// hint so well-behaved clients spread their retries.
func (h *Handler) writeErr(w http.ResponseWriter, status int, msg string) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	body, _ := json.Marshal(client.ErrorResponse{Error: msg}) // a string always encodes
	h.writeBody(w, status, body)
}

// respBufs recycles response buffers across requests; one grown past
// maxPooledResp (a response far beyond the usual k) is left to the
// collector instead.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledResp = 1 << 20

// writeOutcome is the 200 path: the response is encoded whole into a
// pooled buffer before the status line goes out, so an outcome that
// cannot be encoded is a 500, not a 200 cut short.
func (h *Handler) writeOutcome(w http.ResponseWriter, out *QueryOutcome, queueWait time.Duration, explain bool) {
	buf := respBufs.Get().(*[]byte)
	body, err := appendResponse((*buf)[:0], out, queueWait, explain)
	if err != nil {
		h.writeErr(w, http.StatusInternalServerError, "encoding response: "+err.Error())
	} else {
		h.writeBody(w, http.StatusOK, body)
	}
	if cap(body) <= maxPooledResp {
		*buf = body[:0]
		respBufs.Put(buf)
	}
}

// parseRequest extracts and validates the k / timeout / explain
// parameters and the SPARQL body. A non-nil error has already been
// written to w.
func (h *Handler) parseRequest(w http.ResponseWriter, r *http.Request) (src string, k int, timeout time.Duration, explain, ok bool) {
	params := r.URL.Query()
	k = h.opts.DefaultK
	if s := params.Get("explain"); s != "" && s != "0" && !strings.EqualFold(s, "false") {
		explain = true
	}
	if s := params.Get("k"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			h.writeErr(w, http.StatusBadRequest, fmt.Sprintf("invalid k %q: want a positive integer", s))
			return "", 0, 0, false, false
		}
		k = n
	}
	timeout = h.opts.DefaultTimeout
	if s := params.Get("timeout"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil || d <= 0 {
			h.writeErr(w, http.StatusBadRequest, fmt.Sprintf("invalid timeout %q: want a positive Go duration like 500ms", s))
			return "", 0, 0, false, false
		}
		timeout = d
	}
	if timeout > h.opts.MaxTimeout {
		timeout = h.opts.MaxTimeout
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, h.opts.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			h.writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("query text exceeds %d bytes", h.opts.MaxBodyBytes))
		} else {
			h.writeErr(w, http.StatusBadRequest, "reading request body: "+err.Error())
		}
		return "", 0, 0, false, false
	}
	src = strings.TrimSpace(string(body))
	if src == "" {
		h.writeErr(w, http.StatusBadRequest, "empty query: POST the SPARQL text as the request body")
		return "", 0, 0, false, false
	}
	return src, k, timeout, explain, true
}

func (h *Handler) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		h.writeErr(w, http.StatusMethodNotAllowed, "use POST with the SPARQL text as the body")
		return
	}
	start := time.Now()
	src, k, timeout, explain, ok := h.parseRequest(w, r)
	if !ok {
		return
	}

	// Admission: get an execution slot or degrade with an honest 503.
	admit := time.Now()
	if err := h.adm.acquire(r.Context(), h.opts.QueueTimeout); err != nil {
		h.shed(w, err)
		return
	}
	queueWait := time.Since(admit)
	h.met.Admitted.Inc()
	h.met.QueueSeconds.Observe(queueWait.Seconds())

	// The answers, or the failure mapped to a status: 400 for the
	// caller's fault, 500 otherwise.
	out, err := h.run(r.Context(), src, k, timeout)
	var bad *BadRequestError
	switch {
	case err == nil:
		h.writeOutcome(w, out, queueWait, explain)
	case errors.As(err, &bad):
		h.writeErr(w, http.StatusBadRequest, bad.Error())
	default:
		h.writeErr(w, http.StatusInternalServerError, err.Error())
	}
	h.met.RequestSeconds.Observe(time.Since(start).Seconds())
}

// run executes one admitted query and releases its slot before the
// response is encoded. The query context combines the client's
// disconnect signal, the per-request deadline, and the server's
// straggler reclamation at the drain deadline.
func (h *Handler) run(ctx context.Context, src string, k int, timeout time.Duration) (*QueryOutcome, error) {
	defer h.adm.release()
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	defer context.AfterFunc(h.stopCtx, cancel)()
	return h.backend.Query(ctx, src, k, h.opts.MaxK)
}

// shed maps an admission failure to a 503 (or notes a vanished client)
// and counts it by reason.
func (h *Handler) shed(w http.ResponseWriter, err error) {
	var reason, msg string
	switch {
	case errors.Is(err, ErrQueueFull):
		reason, msg = obs.ShedQueueFull, "server at capacity: concurrency limit and wait queue are full"
	case errors.Is(err, ErrQueueTimeout):
		reason, msg = obs.ShedQueueTimeout, "server busy: no execution slot freed within the queue timeout"
	case errors.Is(err, ErrDraining):
		reason, msg = obs.ShedDraining, "server is draining for shutdown"
	default: // context error: the client went away while queued
		reason, msg = obs.ShedClientGone, "client cancelled while queued: "+err.Error()
	}
	h.met.Shed(reason).Inc()
	h.writeErr(w, http.StatusServiceUnavailable, msg)
}

// stragglerGrace bounds the wait for cancelled queries to unwind through
// their checkpoints after the drain deadline fires.
const stragglerGrace = 2 * time.Second

// Drain begins graceful shutdown: /readyz flips to 503, new /query
// requests are shed, queued waiters are flushed, and the returned
// channel closes when the last in-flight query releases its slot.
// Idempotent.
func (h *Handler) Drain() <-chan struct{} {
	h.draining.Store(true)
	return h.adm.drain()
}

// CancelInflight cancels the context of every in-flight query. The
// engine's checkpoints stop the searches and the partial best-so-far
// answers flow back to the clients.
func (h *Handler) CancelInflight() { h.stopCancel() }

// Draining reports whether Drain has been called.
func (h *Handler) Draining() bool { return h.draining.Load() }

// Inflight returns the number of queries executing right now.
func (h *Handler) Inflight() int {
	r, _ := h.adm.counts()
	return r
}

// Limits reports the admission bounds the handler enforces once every
// default is applied: execution slots and wait-queue length.
func (h *Handler) Limits() (maxInflight, maxQueue int) {
	return h.adm.maxInflight, h.adm.maxQueue
}

// Shutdown drains gracefully: it stops admitting, waits for in-flight
// queries up to ctx's deadline, then cancels the stragglers and gives
// them a short grace to unwind. It returns nil when every query
// finished (including cancelled ones that returned partials), or an
// error naming the queries still stuck after the grace.
func (h *Handler) Shutdown(ctx context.Context) error {
	drained := h.Drain()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
	}
	h.CancelInflight()
	select {
	case <-drained:
		return nil
	case <-time.After(stragglerGrace):
		return fmt.Errorf("server: %d queries still running after drain cancellation", h.Inflight())
	}
}

// Server runs a Handler on a TCP listener with slow-loris-resistant
// http.Server settings (header read and idle timeouts; no write timeout
// so long queries under MaxTimeout can stream their responses).
type Server struct {
	h   *Handler
	srv *http.Server
	ln  net.Listener
}

// Serve binds addr (port 0 picks a free port; the result's Addr reports
// it) and serves the handler in a background goroutine.
func (h *Handler) Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go srv.Serve(ln)
	return &Server{h: h, srv: srv, ln: ln}, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Handler returns the underlying handler.
func (s *Server) Handler() *Handler { return s.h }

// Shutdown gracefully stops the server: drain in-flight queries up to
// ctx's deadline (cancelling stragglers past it), then close the
// listener and wait briefly for the connection handlers to flush their
// final responses.
func (s *Server) Shutdown(ctx context.Context) error {
	herr := s.h.Shutdown(ctx)
	cctx, cancel := context.WithTimeout(context.Background(), stragglerGrace)
	defer cancel()
	if err := s.srv.Shutdown(cctx); err != nil {
		s.srv.Close()
		if herr == nil {
			herr = err
		}
	}
	return herr
}

// Close stops the server immediately: in-flight queries are cancelled
// and connections closed without waiting.
func (s *Server) Close() error {
	s.h.Drain()
	s.h.CancelInflight()
	return s.srv.Close()
}
