package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"
)

// DebugServer is the live observability endpoint every command exposes
// behind -listen: Prometheus metrics, a health probe, the live span
// tree, and the stdlib pprof handlers. It serves for the duration of
// the run and is the substrate the ROADMAP's atomd daemon plugs into.
//
//	/metrics      Prometheus text exposition of the registry
//	/healthz      JSON liveness: status, tool, uptime, goroutines
//	/runreport    the live RunReport (span tree + metric snapshot)
//	/debug/pprof  the standard pprof index (profile, heap, trace, ...)
type DebugServer struct {
	// Addr is the bound address ("127.0.0.1:43210"), resolved after
	// listening so ":0" reports the kernel-assigned port.
	Addr string

	ln    net.Listener
	srv   *http.Server
	start time.Time
	done  chan struct{} // closed when the Serve goroutine exits
}

// ServeDebug binds addr and serves the observability surface in a
// background goroutine until Close. The tool name and args flow into
// /healthz and /runreport; root and reg may be nil (endpoints then
// serve empty-but-valid documents). When extra is non-nil it runs
// against the mux before the server starts accepting, so an embedding
// service (atomd's /atoms endpoints) can mount its own handlers beside
// the standard surface. Hooked paths must not collide with the
// built-ins; later registrations panic, exactly as http.ServeMux always
// does.
func ServeDebug(addr, tool string, args []string, root *Span, reg *Registry, extra func(*http.ServeMux)) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &DebugServer{Addr: ln.Addr().String(), ln: ln, start: clockNow()}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status":     "ok",
			"tool":       tool,
			"uptime_ms":  clockNow().Sub(d.start).Milliseconds(),
			"goroutines": runtime.NumGoroutine(),
		})
	})
	mux.HandleFunc("/runreport", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		BuildReport(tool, args, root, reg).WriteJSON(w)
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
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "%s live observability\n\n/metrics\n/healthz\n/runreport\n/debug/pprof/\n", tool)
	})

	if extra != nil {
		extra(mux)
	}

	d.srv = &http.Server{Handler: mux}
	d.done = make(chan struct{})
	go func() {
		defer close(d.done)
		d.srv.Serve(ln)
	}()
	return d, nil
}

// Close stops the server, releases the listener, and joins the Serve
// goroutine: when Close returns, the port is free and no goroutine
// remains. Nil-safe.
func (d *DebugServer) Close() error {
	if d == nil {
		return nil
	}
	err := d.srv.Close()
	d.ln.Close() // idempotent: srv.Close tears down its listeners too
	<-d.done
	return err
}
