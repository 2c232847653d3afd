package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// DebugVar is one extra section of the /debug/vars document, rendered
// next to the process-wide expvar globals (cmdline, memstats). Value is
// evaluated per request and must return a JSON-marshalable value —
// e.g. the database exposes its cache counters as {"sama_cache": {...}}.
type DebugVar struct {
	Name  string
	Value func() any
}

// DebugMux builds the debug HTTP handler tree:
//
//	/metrics            Prometheus text exposition of reg; OpenMetrics
//	                    (with exemplars) when Accept asks for it
//	/debug/vars         expvar JSON (cmdline, memstats) merged with extras
//	/debug/lastqueries  JSON array of the most recent query traces;
//	                    ?format=chrome renders them as a Chrome/Perfetto
//	                    trace instead
//	/debug/events       structured event ring, newest first (JSON);
//	                    ?stream=1 (or Accept: text/event-stream) switches
//	                    to SSE live streaming
//	/debug/pprof/*      net/http/pprof profiles
//	/                   plain-text index of the endpoints
//
// reg, log and events may be nil; their endpoints then serve empty
// documents.
func DebugMux(reg *Registry, log *QueryLog, events *EventLog, extras ...DebugVar) *http.ServeMux {
	mux := http.NewServeMux()
	// /metrics content-negotiates the exposition format: a scraper that
	// advertises OpenMetrics in Accept gets the 1.0 text format with
	// exemplars and a `# EOF` trailer; everyone else gets the classic
	// 0.0.4 format, which has no exemplar syntax and therefore none.
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			if reg != nil {
				reg.WriteOpenMetrics(w)
			} else {
				fmt.Fprint(w, "# EOF\n")
			}
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if reg != nil {
			reg.WritePrometheus(w)
		}
	})
	// The stdlib expvar handler renders a fixed document, so the extras
	// are merged by hand into one JSON object (expvar values stringify
	// to valid JSON by contract).
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprint(w, "{")
		first := true
		field := func(key string, val []byte) {
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			fmt.Fprintf(w, "\n%q: %s", key, val)
		}
		expvar.Do(func(kv expvar.KeyValue) {
			field(kv.Key, []byte(kv.Value.String()))
		})
		for _, ev := range extras {
			b, err := json.Marshal(ev.Value())
			if err != nil {
				b, _ = json.Marshal("marshal: " + err.Error())
			}
			field(ev.Name, b)
		}
		fmt.Fprint(w, "\n}\n")
	})
	mux.HandleFunc("/debug/lastqueries", func(w http.ResponseWriter, r *http.Request) {
		traces := log.Snapshot()
		if r.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Disposition", `attachment; filename="sama-trace.json"`)
			WriteChromeTrace(w, traces)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if traces == nil {
			traces = []*Trace{}
		}
		enc.Encode(traces)
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		stream := r.URL.Query().Get("stream") == "1" ||
			strings.Contains(r.Header.Get("Accept"), "text/event-stream")
		if stream {
			serveEventStream(w, r, events)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		evs := events.Snapshot()
		if evs == nil {
			evs = []Event{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Events []Event `json:"events"`
		}{evs})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "sama debug server\n\n"+
			"/metrics                          Prometheus metrics (exemplars with Accept: application/openmetrics-text)\n"+
			"/debug/vars                       expvar JSON\n"+
			"/debug/lastqueries                recent query traces (JSON)\n"+
			"/debug/lastqueries?format=chrome  recent traces as Chrome/Perfetto trace\n"+
			"/debug/events                     structured event ring (JSON)\n"+
			"/debug/events?stream=1            live event stream (SSE)\n"+
			"/debug/pprof/                     pprof profiles\n")
	})
	return mux
}

// serveEventStream streams events over Server-Sent Events until the
// client hangs up. Each event is one `data:` frame of the Event JSON.
// A slow client drops events (the subscription is lossy by design)
// rather than backing up the engine's log writers.
func serveEventStream(w http.ResponseWriter, r *http.Request, events *EventLog) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	ch, cancel := events.Subscribe(256)
	defer cancel()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			b, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "data: %s\n\n", b)
			fl.Flush()
		}
	}
}

// DebugServer is a running debug HTTP server.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeDebug starts handler on addr (e.g. "localhost:6060"; port 0
// picks a free port) in a background goroutine and returns the running
// server. Header-read and idle timeouts are set so a slow-loris client
// cannot pin listener goroutines; there is deliberately no write
// timeout, because /debug/pprof/profile and /debug/pprof/trace stream
// for their full sampling window.
func ServeDebug(addr string, handler http.Handler) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug server: %w", err)
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go srv.Serve(ln)
	return &DebugServer{ln: ln, srv: srv}, nil
}

// Addr returns the server's bound address (useful with port 0).
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down immediately.
func (s *DebugServer) Close() error { return s.srv.Close() }
