package telemetry

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
)

// StatusServer is the embryo of the ROADMAP's sweep service: an HTTP
// server exposing the runner-stats document, expvar, and pprof while a
// sweep runs.
//
//	GET /status        the tssim-runnerstats/v2 Report so far (never blocks workers)
//	GET /debug/vars    expvar: the Go runtime's own variables (memstats, cmdline)
//	GET /debug/pprof/  net/http/pprof index (CPU, heap, goroutines…)
type StatusServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeStatus binds addr (":0" picks a free port) and serves status
// for c in a background goroutine. Close the returned server when the
// sweep ends.
func ServeStatus(addr string, c *Collector) (*StatusServer, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := WriteJSON(w, c.Report()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &StatusServer{ln: ln, srv: &http.Server{Handler: mux}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address ("127.0.0.1:43210"), which is how
// callers discover the port after ":0".
func (s *StatusServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server immediately (in-flight handlers are not
// drained; the process is exiting anyway).
func (s *StatusServer) Close() error { return s.srv.Close() }
