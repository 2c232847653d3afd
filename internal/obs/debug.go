package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugMux builds the debug HTTP handler tree:
//
//	/metrics            Prometheus text exposition (0.0.4) of reg
//	/debug/vars         the stdlib expvar document (cmdline, memstats)
//	/debug/lastqueries  JSON array of the most recent query traces;
//	                    ?format=chrome renders them as a Chrome/Perfetto
//	                    trace instead
//	/debug/events       structured event ring, newest first (JSON)
//	/debug/pprof/*      net/http/pprof profiles
//	/                   plain-text index of the endpoints
//
// reg, log and events may be nil; their endpoints then serve empty
// documents.
func DebugMux(reg *Registry, log *QueryLog, events *EventLog) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if reg != nil {
			reg.WritePrometheus(w)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
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
			"/metrics                          Prometheus metrics\n"+
			"/debug/vars                       expvar JSON\n"+
			"/debug/lastqueries                recent query traces (JSON)\n"+
			"/debug/lastqueries?format=chrome  recent traces as Chrome/Perfetto trace\n"+
			"/debug/events                     structured event ring (JSON)\n"+
			"/debug/pprof/                     pprof profiles\n")
	})
	return mux
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
