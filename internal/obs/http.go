package obs

import (
	"net/http"
	"net/http/pprof"
)

// PromHandler serves the registry in Prometheus text exposition format.
func PromHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// ResponseWriter errors mean the client went away; nothing to do.
		_ = r.Snapshot().WritePrometheus(w)
	})
}

// DebugMux bundles the debug surface served behind srmd's -debug-addr flag:
//
//	/metrics      Prometheus text format
//	/debug/pprof  CPU, heap, goroutine, block, mutex profiles
//
// pprof handlers are mounted explicitly rather than via the net/http/pprof
// side-effect import so they never leak onto http.DefaultServeMux (which the
// main service listener could otherwise expose).
func DebugMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", PromHandler(r))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
