// Package cli holds the plumbing shared by the repo's commands: fatal
// error handling, MRT source loading with collector-name derivation,
// and the observability flag bundle that turns any command into a
// traced run. Exit-report flags (-trace, -v, -cpuprofile, -memprofile)
// capture a run after the fact; live flags (-listen, -sample,
// -progress, -trace-out) expose it while it happens — a debug HTTP
// server with Prometheus /metrics and pprof, a runtime-health sampler,
// JSON progress lines on stderr, and a Perfetto-loadable trace file
// (see internal/obs).
package cli

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/bgp"
	"repro/internal/bgpstream"
	"repro/internal/obs"
)

// Fatal prints "<tool>: <err>" to stderr and exits 1.
func Fatal(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(1)
}

// Usage prints a usage line to stderr and exits 2.
func Usage(line string) {
	fmt.Fprintln(os.Stderr, "usage:", line)
	os.Exit(2)
}

// CollectorName derives the collector name from an archive path:
// everything before the first dot of the base name ("rrc00.rib.mrt" →
// "rrc00").
func CollectorName(path string) string {
	name := filepath.Base(path)
	if i := strings.IndexByte(name, '.'); i > 0 {
		name = name[:i]
	}
	return name
}

// LoadSources reads MRT archives into byte-backed stream sources,
// attributing each to its derived collector name. Any read error is
// fatal under the tool's name.
func LoadSources(tool string, paths []string) []bgpstream.Source {
	var out []bgpstream.Source
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			Fatal(tool, err)
		}
		out = append(out, bgpstream.BytesSource(CollectorName(p), data, bgp.Options{}))
	}
	return out
}

// NewWorkers registers the shared -workers flag on the default flag
// set: the worker-pool bound for every parallel pipeline stage. The
// default is one worker per CPU; 1 forces the sequential path. Output
// is byte-identical at any value, so the flag only trades wall-clock
// for cores.
func NewWorkers() *int {
	return flag.Int("workers", runtime.NumCPU(),
		"worker pool size for parallel pipeline stages (1 = sequential)")
}

// Obs bundles a command's observability surface. Typical lifecycle:
//
//	o := cli.NewObs("atomize")      // registers flags
//	flag.Parse()
//	o.Start()                       // root span, registry, profiles
//	defer o.Finish()                // write trace/report, stop profiles
//	... pass o.Root / o.Registry down the pipeline ...
//
// When no observability flag is given, Root and Registry stay nil and
// the entire instrumented pipeline runs on its no-op path; the pprof
// flags work independently of tracing.
type Obs struct {
	Tool string
	// Flag values.
	TracePath  string
	Verbose    bool
	CPUProfile string
	MemProfile string
	// Live observability flag values: Chrome trace output path, debug
	// HTTP listen address, runtime sampling interval, progress stream.
	TraceOut   string
	Listen     string
	Sample     time.Duration
	ProgressOn bool
	// Root / Registry are non-nil between Start and Finish when any
	// tracing surface is enabled.
	Root     *obs.Span
	Registry *obs.Registry
	// Progress is non-nil between Start and Finish when -progress is
	// given; pass it down via longitudinal.Config.Progress.
	Progress *obs.Progress
	// ExtraMux, when set before Start, registers additional handlers on
	// the debug server's mux (atomd mounts /atoms here). Only consulted
	// when -listen is given.
	ExtraMux func(*http.ServeMux)

	cpuFile *os.File
	sampler *obs.Sampler
	server  *obs.DebugServer
}

// NewObs registers the observability flags on the default flag set.
func NewObs(tool string) *Obs {
	o := &Obs{Tool: tool}
	flag.StringVar(&o.TracePath, "trace", "", "write a JSON run report (span tree + counters) to `file`")
	flag.BoolVar(&o.Verbose, "v", false, "print the run report as a text tree to stderr")
	flag.StringVar(&o.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to `file`")
	flag.StringVar(&o.MemProfile, "memprofile", "", "write a pprof heap profile to `file`")
	flag.StringVar(&o.TraceOut, "trace-out", "", "write a Chrome trace-event JSON (Perfetto-loadable) to `file`")
	flag.StringVar(&o.Listen, "listen", "", "serve /metrics, /healthz, /runreport and pprof on `addr` (e.g. :0) for the run's duration")
	flag.DurationVar(&o.Sample, "sample", 0, "sample runtime health (heap, GC, goroutines) into the registry every `interval` (e.g. 1s; 0 = off)")
	flag.BoolVar(&o.ProgressOn, "progress", false, "emit JSON progress events (per-era throughput, ETA) on stderr")
	return o
}

// Enabled reports whether any tracing surface is on — the exit report
// (-trace, -v), the trace file (-trace-out), the debug server
// (-listen), or the sampler (-sample, which needs a registry to feed).
func (o *Obs) Enabled() bool {
	return o.TracePath != "" || o.Verbose || o.TraceOut != "" || o.Listen != "" || o.Sample > 0
}

// Start begins the run: creates the root span and registry when
// tracing is enabled, starts the CPU profile, runtime sampler,
// progress stream and debug server when requested. Call after
// flag.Parse. The debug server's address is announced on stderr (with
// -listen=:0 the kernel picks the port, so the line is the only way to
// find it).
func (o *Obs) Start() {
	if o.Enabled() {
		o.Root = obs.Root(o.Tool)
		// A command may pre-seed Registry before Start so a long-lived
		// service (atomd) can register its metrics on the same registry
		// the debug server will scrape.
		if o.Registry == nil {
			o.Registry = obs.NewRegistry()
		}
	}
	if o.CPUProfile != "" {
		f, err := os.Create(o.CPUProfile)
		if err != nil {
			Fatal(o.Tool, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			Fatal(o.Tool, err)
		}
		o.cpuFile = f
	}
	if o.ProgressOn {
		o.Progress = obs.NewProgress(os.Stderr, o.Tool)
	}
	o.sampler = obs.StartSampler(o.Registry, o.Sample)
	if o.Listen != "" {
		srv, err := obs.ServeDebug(o.Listen, o.Tool, os.Args[1:], o.Root, o.Registry, o.ExtraMux)
		if err != nil {
			Fatal(o.Tool, err)
		}
		o.server = srv
		fmt.Fprintf(os.Stderr, "%s: observability on http://%s/ (metrics, healthz, runreport, debug/pprof)\n",
			o.Tool, srv.Addr)
	}
}

// Finish ends the run: flushes profiles, stops the sampler, closes the
// root span, writes the trace file and the JSON report and/or text
// tree, emits the final progress event, and shuts the debug server
// down. Safe to call when disabled.
func (o *Obs) Finish() {
	if o.cpuFile != nil {
		pprof.StopCPUProfile()
		o.cpuFile.Close()
		o.cpuFile = nil
	}
	if o.MemProfile != "" {
		f, err := os.Create(o.MemProfile)
		if err != nil {
			Fatal(o.Tool, err)
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			Fatal(o.Tool, err)
		}
		f.Close()
	}
	o.sampler.Stop() // take the run's final runtime sample off the board
	o.sampler = nil
	if o.Enabled() {
		o.Root.End()
		if o.TraceOut != "" {
			f, err := os.Create(o.TraceOut)
			if err != nil {
				Fatal(o.Tool, err)
			}
			err = obs.WriteTrace(f, o.Root.Report())
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				Fatal(o.Tool, err)
			}
		}
		if o.TracePath != "" || o.Verbose {
			report := obs.BuildReport(o.Tool, os.Args[1:], o.Root, o.Registry)
			if o.TracePath != "" {
				f, err := os.Create(o.TracePath)
				if err != nil {
					Fatal(o.Tool, err)
				}
				err = report.WriteJSON(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					Fatal(o.Tool, err)
				}
			}
			if o.Verbose {
				report.WriteText(os.Stderr)
			}
		}
	}
	o.Progress.End("run_done")
	o.Progress = nil
	o.server.Close()
	o.server = nil
}

// OnSignal runs fn once when the process receives SIGINT or SIGTERM —
// the graceful-shutdown hook for long-running commands (atomd drains
// its ingest sessions from it). The returned stop function unregisters
// the handler and joins the watcher goroutine; call it before exit so
// no goroutine outlives the command's main (the lifecycle analyzer
// holds cli to that).
func OnSignal(fn func()) (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := <-ch; ok {
			fn()
		}
	}()
	return func() {
		signal.Stop(ch) // no sends after Stop returns, so close is safe
		close(ch)
		<-done
	}
}
