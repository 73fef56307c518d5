package main

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/atomd"
)

// runIngest measures closed-loop ingest capacity: fresh daemons, each
// fed the whole update window one collector session at a time, then
// probed with idle queries. One atomize run gives the research path's
// time.
func runIngest(env *runEnv) (map[string]metric, error) {
	cfg := env.cfg
	ref, bref, err := loadRefs(env)
	if err != nil {
		return nil, err
	}
	env.census = env.w.census(ref)
	order := env.w.order(env.rng)
	qs := makeMix(env.rng, ref, 1<<14)
	freeMemory()

	var setups, rates, rss []float64
	var cost queryCost
	measured := 0.0
	for pass := 0; pass < 4 || (measured < cfg.seconds && pass < 6); pass++ {
		d, err := startDaemon(env)
		if err != nil {
			return nil, err
		}
		var dur time.Duration
		var n int
		var bin, web float64
		err = d.quiesce()
		if err == nil {
			dur, err = ingestClosed(env, nil, d.ingestAddr, order)
		}
		if err == nil {
			n, err = verifyDrained(env, d, ref)
		}
		if err == nil {
			bin, web, err = probe(env, d, ref, qs)
		}
		if err == nil && pass == 0 {
			err = checkAnswers(env, d, ref)
		}
		if err != nil {
			d.kill()
			return nil, err
		}
		peak, err := d.stop()
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.setup.Seconds())
		rates = append(rates, float64(n)/dur.Seconds())
		rss = append(rss, peak)
		cost.add(bin, web)
		measured += dur.Seconds()
		env.harness.sample("ingest_updates_per_s", rates[pass])
		env.harness.sample("peak_rss_mb", peak)
	}
	batchS, err := atomizeRun(env, bref)
	if err != nil {
		return nil, err
	}
	return endToEnd(env, setups, median(rates), &cost, batchS, median(rss)), nil
}

// runServe measures queries under ingest. Each of three or more
// daemons streams the window in at a fixed byte rate on one connection
// while queries run on a second, first over the binary port and then
// over keep-alive HTTP: open-loop at a fixed rate for the first half
// of each transport's share of the stream, then in back-to-back bursts
// for the second. One atomize run gives the research path's time.
func runServe(env *runEnv) (map[string]metric, error) {
	cfg := env.cfg
	ref, bref, err := loadRefs(env)
	if err != nil {
		return nil, err
	}
	env.census = env.w.census(ref)
	qs := makeMix(env.rng, ref, 1<<16)
	freeMemory()

	// Each daemon gives each transport two phases: open-loop and bursts.
	daemons := max(3, int(math.Ceil(cfg.seconds/(2*servePhase(env).Seconds()))))
	var setups, rates, rss []float64
	var cost queryCost
	var bin, web []float64 // open-loop latencies, all daemons pooled
	for i := 0; i < daemons; i++ {
		d, err := startDaemon(env)
		if err != nil {
			return nil, err
		}
		ss, dur, err := serveLoad(env, d, ref, qs, 0)
		var n int
		if err == nil {
			n, err = verifyDrained(env, d, ref)
		}
		if err == nil && i == 0 {
			err = checkAnswers(env, d, ref)
		}
		if err != nil {
			d.kill()
			return nil, err
		}
		peak, err := d.stop()
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.setup.Seconds())
		rates = append(rates, float64(n)/dur.Seconds())
		rss = append(rss, peak)
		cost.add(ss.binCost, ss.webCost)
		bin = append(bin, ss.bin.lat...)
		web = append(web, ss.web.lat...)
	}
	batchS, err := atomizeRun(env, bref)
	if err != nil {
		return nil, err
	}
	env.reported = map[string]metric{
		"query_bin_p50_us":  {quantile(bin, 0.5), "us"},
		"query_bin_p99_us":  {quantile(bin, 0.99), "us"},
		"query_http_p50_us": {quantile(web, 0.5), "us"},
		"query_http_p99_us": {quantile(web, 0.99), "us"},
	}
	return endToEnd(env, setups, median(rates), &cost, batchS, median(rss)), nil
}

// atomizeRun runs the research path once, checks its output and
// returns its wall time.
func atomizeRun(env *runEnv, bref *batchRef) (float64, error) {
	freeMemory()
	wall, out, err := runAtomize(env)
	if err != nil {
		return 0, err
	}
	checkAtomize(env, out, bref)
	return wall, nil
}

// queryCost collects, per transport, the median µs per query of each
// burst phase, one phase per daemon.
type queryCost struct {
	bin, web []float64
}

func (c *queryCost) add(bin, web float64) {
	c.bin = append(c.bin, bin)
	c.web = append(c.web, web)
}

// endToEnd assembles the gated metrics; each sample behind a median
// goes to the harness record.
func endToEnd(env *runEnv, setups []float64, rate float64, cost *queryCost, batchS, rss float64) map[string]metric {
	for _, s := range setups {
		env.harness.sample("setup_s", s)
	}
	for i := range cost.bin {
		env.harness.sample("query_bin_us", cost.bin[i])
		env.harness.sample("query_http_us", cost.web[i])
	}
	return map[string]metric{
		"setup_s":              {median(setups), "s"},
		"ingest_updates_per_s": {rate, "updates/s"},
		"query_bin_us":         {median(cost.bin), "us"},
		"query_http_us":        {median(cost.web), "us"},
		"batch_s":              {batchS, "s"},
		"peak_rss_mb":          {rss, "MB"},
	}
}

// ingestClosed streams every collector's window, one session at a
// time, each as fast as the client's ack window allows and then
// drained. It returns the wall time from the first hello to the last
// drained ack. A tracer records a span per session.
func ingestClosed(env *runEnv, tr *tracer, addr string, order []string) (time.Duration, error) {
	root := tr.begin(0, "tcp_ingest")
	defer tr.end(root, 0)
	// The client's own collections would take a core from the daemon.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	start := time.Now()
	for _, c := range order {
		sp := tr.begin(root, "atomd.session")
		err := session(env, addr, c, func(cl *atomd.Client) error {
			return cl.Send(env.w.updData[c])
		})
		tr.end(sp, int64(len(env.w.updData[c])))
		if err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// ingestPaced streams the window at a fixed byte rate in one-millisecond
// steps — a few records each, never bursts — one collector session at a
// time.
func ingestPaced(env *runEnv, addr string, order []string, rate float64) (time.Duration, error) {
	start := time.Now()
	base := 0
	for _, c := range order {
		data := env.w.updData[c]
		err := session(env, addr, c, func(cl *atomd.Client) error {
			sent := 0
			for tick := 0; sent < len(data); tick++ {
				due := min(max(int(time.Since(start).Seconds()*rate)-base, sent), len(data))
				if due > sent {
					if err := cl.Send(data[sent:due]); err != nil {
						return err
					}
					sent = due
				}
				if tick%100 == 0 {
					env.harness.sampleThreads()
				}
				if sent < len(data) {
					nap(time.Millisecond)
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		base += len(data)
	}
	return time.Since(start), nil
}

// session runs one ingest session: hello, send, drain. A session the
// daemon refuses or quarantines is a failed operation, not an error.
func session(env *runEnv, addr, collector string, send func(*atomd.Client) error) error {
	env.harness.conns(+1)
	defer env.harness.conns(-1)
	cl, err := atomd.Dial(addr, collector)
	if err != nil {
		return fmt.Errorf("ingest session %s: %w", collector, err)
	}
	defer cl.Close()
	err = send(cl)
	if err == nil {
		err = cl.Drain()
	}
	env.led.op(1, b2i(err != nil), fmt.Sprintf("ingest session %s: %v", collector, err))
	return nil
}

// serveStats is one loaded daemon's query phases.
type serveStats struct {
	bin, web         *loadStats // open-loop phases
	binCost, webCost float64    // burst phases: median µs per query
}

// serveLoad streams the window paced on one connection while queries
// run on another, in four equal phases: binary open-loop, binary
// bursts, HTTP open-loop (carrying the scrapes), HTTP bursts. It
// returns the phases and the paced stream's wall time.
func serveLoad(env *runEnv, d *daemon, ref *daemonRef, qs []query, scrapeEvery time.Duration) (*serveStats, time.Duration, error) {
	cfg := env.cfg
	if err := warmUp(env, d, ref, qs); err != nil {
		return nil, 0, err
	}
	var (
		wg        sync.WaitGroup
		ingest    time.Duration
		ingestErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Sessions go in collector-name order, so each phase sees the
		// same quarter of the window on every run.
		ingest, ingestErr = ingestPaced(env, d.ingestAddr, env.w.collectors, cfg.paceBytes)
	}()
	ss := &serveStats{}
	rows, phase := len(ref.prefixes), servePhase(env)
	bin, err := queryPhase(env, d, "bin", rows, qs, phase, 0)
	if err == nil {
		ss.bin = bin
		ss.binCost, err = burstPhase(env, d, "bin", rows, qs, phase)
	}
	if err == nil {
		ss.web, err = queryPhase(env, d, "http", rows, qs, phase, scrapeEvery)
	}
	if err == nil {
		ss.webCost, err = burstPhase(env, d, "http", rows, qs, phase)
	}
	wg.Wait()
	if err == nil {
		err = ingestErr
	}
	return ss, ingest, err
}

// servePhase is how long each of serveLoad's four query phases runs: a
// quarter of the paced stream, so each sees the same quarter of the
// window on every run.
func servePhase(env *runEnv) time.Duration {
	return time.Duration(float64(env.w.updBytes) / env.cfg.paceBytes / 4 * float64(time.Second))
}

// dialProto opens a counted connection to transport tr ("bin" or
// "http") of d.
func dialProto(env *runEnv, d *daemon, tr string) (proto, net.Conn, error) {
	addr := d.queryAddr
	if tr == "http" {
		addr = d.httpAddr
	}
	conn, err := env.harness.dial(addr)
	if err != nil {
		return nil, nil, err
	}
	if tr == "http" {
		return newHTTPProto(conn), conn, nil
	}
	return newBinProto(conn), conn, nil
}

// burstSize is how many queries a burst phase writes at once: enough
// that the query path's own work, not the two wake-ups each burst
// pays, sets a burst's time even on the binary port.
const burstSize = 256

// burstPhase runs back-to-back bursts for dur on a fresh connection to
// transport tr and returns the median over the bursts of µs per query.
func burstPhase(env *runEnv, d *daemon, tr string, rows int, qs []query, dur time.Duration) (float64, error) {
	p, conn, err := dialProto(env, d, tr)
	if err != nil {
		return 0, err
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	perQuery, sent, failed := burstLoop(p, conn, qs, rows, burstSize, dur)
	env.harness.hangup(conn)
	env.led.op(int64(max(sent, 1)), int64(failed), tr+" burst queries errored, refused, malformed or with a falling epoch")
	if len(perQuery) == 0 {
		return 0, fmt.Errorf("%s: no burst of queries completed", tr)
	}
	return median(perQuery), nil
}

// queryPhase runs one open-loop phase of dur on a fresh connection to
// transport tr ("bin" or "http").
func queryPhase(env *runEnv, d *daemon, tr string, rows int, qs []query, dur, scrapeEvery time.Duration) (*loadStats, error) {
	p, conn, err := dialProto(env, d, tr)
	if err != nil {
		return nil, err
	}
	// The generator's own collections would stall its reader and show
	// up as query latency; a phase allocates a few tens of MB at most.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	st := openLoop(env, p, conn, qs, rows, dur, scrapeEvery)
	env.harness.hangup(conn)
	env.led.op(int64(st.scheduled), int64(st.failed), fmt.Sprintf("%s queries errored, refused, malformed or with a falling epoch (%d epoch regressions)", tr, st.regress))
	env.harness.phase(st, env.cfg.qps)
	return st, nil
}

// warmUp collects the daemon's garbage, then runs a quarter second of
// untimed queries on each transport: the first queries after an ingest
// or a boot meet stalls (memory being returned to the OS, first use of
// each path) that a long-running daemon has behind it.
func warmUp(env *runEnv, d *daemon, ref *daemonRef, qs []query) error {
	if err := d.quiesce(); err != nil {
		return err
	}
	for _, tr := range []string{"bin", "http"} {
		if _, err := queryPhase(env, d, tr, len(ref.prefixes), qs, 250*time.Millisecond, 0); err != nil {
			return err
		}
	}
	return nil
}

// probe runs an idle burst phase on each transport, for the query
// metrics of the ingest workload.
func probe(env *runEnv, d *daemon, ref *daemonRef, qs []query) (bin, web float64, err error) {
	if err := warmUp(env, d, ref, qs); err != nil {
		return 0, 0, err
	}
	if bin, err = burstPhase(env, d, "bin", len(ref.prefixes), qs, env.cfg.probe); err != nil {
		return 0, 0, err
	}
	web, err = burstPhase(env, d, "http", len(ref.prefixes), qs, env.cfg.probe)
	return bin, web, err
}

// checkAnswers compares a seeded sample of post-drain answers on the
// binary port with the reference.
func checkAnswers(env *runEnv, d *daemon, ref *daemonRef) error {
	env.harness.conns(+1)
	defer env.harness.conns(-1)
	qc, err := atomd.DialQuery(d.queryAddr)
	if err != nil {
		return err
	}
	defer qc.Close()
	rows := len(ref.prefixes)
	bad := int64(0)
	const n = 256
	for i := 0; i < n; i++ {
		p, q := env.rng.IntN(rows), env.rng.IntN(rows)
		_, atom, count, _, err := qc.PrefixAtom(ref.prefixes[p])
		if err != nil {
			return err
		}
		same, _, err := qc.SameAtom(p, q)
		if err != nil {
			return err
		}
		if int(atom) != ref.byPrefix[p] || count != ref.counts[p] || same != (ref.byPrefix[p] == ref.byPrefix[q]) {
			bad++
		}
	}
	env.led.op(n, bad, "post-drain answers differ from the reference")
	return nil
}

// runAtomize runs the research path once and returns its wall time
// and stdout.
func runAtomize(env *runEnv) (float64, []byte, error) {
	cfg := env.cfg
	args := []string{"-workers", strconv.Itoa(cfg.workers),
		"-updates", filepath.Join(env.w.dir, "*.updates.mrt"),
		"-formation", "-replay", "-replay-verify"}
	cmd := exec.Command(filepath.Join(cfg.bin, "atomize"), append(args, env.w.ribPaths...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start).Seconds()
	if err != nil {
		return 0, nil, fmt.Errorf("atomize: %v: %s", err, stderr.Bytes())
	}
	return wall, stdout.Bytes(), nil
}

// checkAtomize requires every reference row in atomize's output.
func checkAtomize(env *runEnv, out []byte, ref *batchRef) {
	have := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		have[normalize(line)] = true
	}
	bad := int64(0)
	missing := ""
	for _, want := range ref.lines {
		if !have[want] {
			bad++
			missing = want
		}
	}
	env.led.op(int64(len(ref.lines)), bad, "atomize rows differ from the in-process reference, e.g. "+strconv.Quote(missing))
}

// freeMemory returns the reference's garbage to the OS before the
// program under test starts, so the two do not stack up.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// nap sleeps with microsecond precision (see waitUntil).
func nap(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
