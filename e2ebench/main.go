// Command e2ebench is the repository's end-to-end benchmark. It drives
// the real programs — cmd/atomd over TCP and HTTP, cmd/atomize on the
// research path — with archives written by cmd/gensim as a separate
// generator process, checks every output against an in-process
// reference built from the same bytes, and prints one JSON result line.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	bash e2ebench/run.sh --workload ingest|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer split of the same paths. See
// e2ebench/README.md for what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool

	bin   string // directory holding atomd, atomize, gensim
	cache string // generated worlds, keyed by their parameters
	out   string // span dumps

	year, quarter int
	scale         float64
	hours         float64
	worldSeed     uint64
	workers       int

	qps       float64 // open-loop query rate on serve and in probes
	paceBytes float64 // serve's paced ingest rate, bytes/s
	probe     time.Duration

	// wrongRef perturbs the reference so every check that consults it
	// must fail: the negative test for failed_ratio.
	wrongRef bool
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// One world and one load shape for every run; see README.md for
	// why these values.
	cfg := &config{year: 2024, quarter: 4, worldSeed: 7, qps: 2000, paceBytes: 3e6, probe: 500 * time.Millisecond}
	fs.StringVar(&cfg.workload, "workload", "", "ingest or serve")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed: session order, query mix, check samples")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "least measured time: of all ingest passes; of each serve transport, open-loop and bursts, over all daemons")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.bin, "bin", filepath.Join(".bench_build", "bin"), "directory with the built atomd, atomize and gensim")
	fs.StringVar(&cfg.cache, "cache", filepath.Join(".bench_build", "worlds"), "generated-world cache directory")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "traces"), "directory for span dumps of traced runs")
	fs.Float64Var(&cfg.scale, "scale", 0.01, "gensim world scale")
	fs.Float64Var(&cfg.hours, "hours", 2, "update window length in hours")
	fs.BoolVar(&cfg.wrongRef, "wrong-reference", false, "perturb the reference (negative test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace == 1
	cfg.workers = runtime.GOMAXPROCS(0)
	switch cfg.workload {
	case "ingest", "serve":
	default:
		fmt.Fprintf(stderr, "e2ebench: unknown --workload %q (want ingest or serve)\n", cfg.workload)
		return 2
	}
	res, err := runWorkload(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runWorkload loads (or generates) the world, runs the workload or its
// traced split, and assembles the result. Host, census and harness
// records go to stdout before the result line.
func runWorkload(cfg *config, stdout io.Writer) (*result, error) {
	w, err := loadWorld(cfg)
	if err != nil {
		return nil, err
	}
	env := &runEnv{cfg: cfg, w: w, led: &ledger{}, harness: newHarness(), out: stdout,
		rng: rand.New(rand.NewPCG(cfg.seed, 0x61746f6d))}
	var m map[string]metric
	switch {
	case cfg.trace:
		m, err = runTraced(env)
	case cfg.workload == "ingest":
		m, err = runIngest(env)
	default:
		m, err = runServe(env)
	}
	if err != nil {
		return nil, err
	}
	printRecord(stdout, "host", hostRecord(cfg))
	printRecord(stdout, "census", env.census)
	printRecord(stdout, "harness", env.harness.record())
	led := env.led
	for _, f := range led.failures {
		fmt.Fprintln(stdout, "FAILED:", f)
	}
	printMetrics(stdout, m)
	if len(env.reported) > 0 {
		fmt.Fprintln(stdout, "reported, not gated:")
		printMetrics(stdout, env.reported)
	}
	fmt.Fprintf(stdout, "failed_ratio %.6f ratio (%d of %d operations)\n", led.ratio(), led.failed, led.attempted)
	return &result{Correct: led.failed == 0, Attempted: max(led.attempted, 1), Failed: led.failed, Metrics: m}, nil
}

// runEnv is the state one run threads through its phases.
type runEnv struct {
	cfg     *config
	w       *world
	led     *ledger
	harness *harness
	out     io.Writer
	rng     *rand.Rand
	census  map[string]any
	// reported holds metrics printed with the run but not part of the
	// result line.
	reported map[string]metric
}

// ledger counts operations and failures. A failure is an errored or
// refused query, a quarantined session, a NAK rewind, or a failed
// correctness check. Ingest sessions and query phases record into it
// from different goroutines.
type ledger struct {
	mu                sync.Mutex
	attempted, failed int64
	failures          []string
}

// op records n attempted operations of which bad failed.
func (l *ledger) op(n, bad int64, what string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted += n
	l.failed += bad
	if bad > 0 && len(l.failures) < 20 {
		l.failures = append(l.failures, fmt.Sprintf("%s (%d of %d)", what, bad, n))
	}
}

// check records one correctness check.
func (l *ledger) check(ok bool, format string, args ...any) {
	bad := int64(0)
	if !ok {
		bad = 1
	}
	l.op(1, bad, fmt.Sprintf(format, args...))
}

func (l *ledger) ratio() float64 {
	if l.attempted == 0 {
		return 0
	}
	return float64(l.failed) / float64(l.attempted)
}

func printRecord(out io.Writer, name string, v any) {
	b, err := json.Marshal(map[string]any{name: v})
	if err != nil {
		fmt.Fprintf(out, "%s: %v\n", name, err)
		return
	}
	fmt.Fprintln(out, string(b))
}

// printMetrics prints one "name value unit" line per metric, sorted.
func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "%-36s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// hostRecord describes the machine the numbers came from.
func hostRecord(cfg *config) map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cores":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  model,
		"workers":    cfg.workers,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
	}
}
