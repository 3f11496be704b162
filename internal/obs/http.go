package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// NewHandler returns the exposition mux for a registry: /metrics
// (Prometheus text), /healthz, /debug/traces (the default tracer's ring),
// and /debug/pprof/.
func NewHandler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/debug/traces", TracesHandler(DefaultTracer()))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running exposition server.
type Server struct {
	ln          net.Listener
	srv         *http.Server
	stopRuntime func()
}

// Serve starts the exposition server on addr (e.g. ":9100" or
// "127.0.0.1:0") and returns once it is listening. The server runs until
// Close. Starting the server also starts the runtime collector (the
// irtl_runtime_* gauges) against the registry.
func Serve(addr string, r *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: NewHandler(r), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv, stopRuntime: StartRuntimeCollector(r, 0)}, nil
}

// Addr returns the bound address, useful when addr requested port 0.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down and stops its runtime collector.
func (s *Server) Close() error {
	if s.stopRuntime != nil {
		s.stopRuntime()
	}
	return s.srv.Close()
}
