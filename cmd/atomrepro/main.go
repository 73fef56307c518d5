// Command atomrepro regenerates the paper's tables and figures from the
// simulated substrate.
//
// Usage:
//
//	atomrepro -list
//	atomrepro -run table1,table3 -scale 0.02
//	atomrepro -run all -scale 0.01 -seed 7
//	atomrepro -run figure4 -workers 8
//	atomrepro -run figure4 -listen :0 -sample 1s -progress -trace-out run.trace.json
//
// Every run is deterministic in (-seed, -scale) alone: -workers (the
// pipeline's worker-pool bound, default one per CPU, 1 = sequential)
// changes wall-clock only, never a number. Larger scales approach
// the paper's absolute numbers at the cost of runtime; the default is
// laptop-friendly and preserves every shape comparison.
//
// Long runs can be watched live: -listen serves Prometheus /metrics,
// /healthz, /runreport and pprof for the run's duration (the bound
// address is announced on stderr), -sample feeds runtime health into
// the metrics, -progress streams per-era JSON progress events (with
// throughput and ETA) on stderr, and -trace-out writes a
// Perfetto-loadable trace of the stage tree on exit. None of them
// changes any output number.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/longitudinal"
)

const tool = "atomrepro"

func main() {
	var (
		list  = flag.Bool("list", false, "list experiment IDs and exit")
		run   = flag.String("run", "all", "comma-separated experiment IDs, or all | tables | figures")
		scale = flag.Float64("scale", 0.01, "world scale (1.0 = paper scale)")
		seed  = flag.Uint64("seed", 7, "simulation seed")
	)
	workers := cli.NewWorkers()
	o := cli.NewObs(tool)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	o.Start()
	defer o.Finish()

	cfg := longitudinal.DefaultConfig(*seed)
	cfg.Scale = *scale
	cfg.Workers = *workers
	cfg.Metrics = o.Registry
	cfg.Progress = o.Progress

	var selected []experiments.Experiment
	switch *run {
	case "all":
		selected = experiments.All()
	case "tables", "figures":
		for _, e := range experiments.All() {
			if (*run == "tables") == strings.HasPrefix(e.ID, "table") {
				selected = append(selected, e)
			}
		}
	default:
		for _, id := range strings.Split(*run, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	for _, e := range selected {
		sp := o.Root.Child("experiment")
		sp.SetAttr("id", e.ID)
		ecfg := cfg
		ecfg.Trace = sp // nest each experiment's era/stage spans
		start := time.Now()
		if err := e.Run(ecfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		sp.End()
		fmt.Printf("  [%s completed in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
