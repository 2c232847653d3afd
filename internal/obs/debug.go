package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
)

// DebugMux builds the debug HTTP handler tree:
//
//	/metrics            Prometheus text exposition (0.0.4) of reg
//	/debug/vars         the stdlib expvar document (cmdline, memstats)
//	/debug/lastqueries  JSON array of the most recent query traces;
//	                    ?format=chrome renders them as a Chrome/Perfetto
//	                    trace instead
//	/debug/pprof/*      net/http/pprof profiles
//	/                   plain-text index of the endpoints
//
// reg and log may be nil; their endpoints then serve empty documents.
func DebugMux(reg *Registry, log *QueryLog) *http.ServeMux {
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
			"/debug/pprof/                     pprof profiles\n")
	})
	return mux
}
