package obs

import (
	"net/http"
	"net/http/pprof"
)

// ContentTypePrometheus is the Content-Type of the Prometheus text
// exposition format served at /metrics.
const ContentTypePrometheus = "text/plain; version=0.0.4; charset=utf-8"

// HTTPConfig configures the shared observability HTTP surface.
type HTTPConfig struct {
	// Registry backs /metrics (Prometheus text). nil serves an empty
	// (still valid) exposition.
	Registry *Registry
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
}

// NewHTTPHandler builds the shared observability mux: Prometheus text at
// /metrics and (behind the Pprof flag) the standard profiling endpoints
// under /debug/pprof/. A daemon mounts its own endpoints on the returned
// mux.
func NewHTTPHandler(cfg HTTPConfig) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ContentTypePrometheus)
		_ = cfg.Registry.WritePrometheus(w)
	})
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}
