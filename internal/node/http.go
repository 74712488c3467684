package node

import (
	"net/http"
	"net/http/pprof"
	"time"
)

// Slowloris guards on the daemons' HTTP listeners: a client gets this
// long to finish its request headers, and a keep-alive connection this
// long between requests, before the server reclaims the connection.
// Bodies and responses stay unbounded (a pprof profile streams for 30 s).
const (
	httpReadHeaderTimeout = 5 * time.Second
	httpIdleTimeout       = 2 * time.Minute
)

// NewHTTPServer wraps a daemon mux in a server with the timeouts set,
// mounting net/http/pprof on it first when asked. The daemons build their
// own muxes (the default mux would expose pprof on every listener
// unconditionally), so the handlers are mounted by hand — the same routes
// the package's init would claim on http.DefaultServeMux.
func NewHTTPServer(mux *http.ServeMux, withPprof bool) *http.Server {
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return &http.Server{Handler: mux, ReadHeaderTimeout: httpReadHeaderTimeout, IdleTimeout: httpIdleTimeout}
}
