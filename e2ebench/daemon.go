package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one atomd process booted on the world's RIB archives.
type daemon struct {
	cmd        *exec.Cmd
	lines      chan string // stderr lines, closed at EOF
	httpAddr   string
	ingestAddr string
	queryAddr  string
	setup      time.Duration // exec → both ports announced
	log        []string
}

// startDaemon execs atomd and waits until it has announced its HTTP,
// ingest and binary query addresses. setup covers sanitize and
// NewServer, exactly what an operator waits for.
func startDaemon(env *runEnv, extra ...string) (*daemon, error) {
	cfg, w := env.cfg, env.w
	args := append([]string{"-workers", strconv.Itoa(cfg.workers)}, extra...)
	args = append(args, w.ribPaths...)
	d := &daemon{cmd: exec.Command(filepath.Join(cfg.bin, "atomd"), args...), lines: make(chan string, 16)}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		defer close(d.lines)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			d.lines <- sc.Text()
		}
	}()
	timeout := time.NewTimer(120 * time.Second)
	defer timeout.Stop()
	for d.ingestAddr == "" || d.httpAddr == "" {
		select {
		case line, ok := <-d.lines:
			if !ok {
				d.cmd.Wait()
				return nil, fmt.Errorf("atomd exited during bootstrap: %s", strings.Join(d.log, "; "))
			}
			d.log = append(d.log, line)
			if _, rest, ok := strings.Cut(line, "observability on http://"); ok {
				d.httpAddr = strings.TrimSuffix(strings.Fields(rest)[0], "/")
			}
			if _, rest, ok := strings.Cut(line, "ingest on "); ok {
				ing, q, _ := strings.Cut(rest, ", binary queries on ")
				d.ingestAddr, d.queryAddr = ing, strings.TrimSpace(q)
			}
		case <-timeout.C:
			d.kill()
			return nil, fmt.Errorf("atomd did not announce its ports within 120s")
		}
	}
	d.setup = time.Since(start)
	go func() {
		// Keep draining stderr so the daemon never blocks on it.
		for range d.lines {
		}
	}()
	return d, nil
}

// stop reads the daemon's peak RSS in MB, then drains it with SIGTERM
// and waits for it. A non-zero exit is an error.
//
// atomd announces its ports a moment before it installs its signal
// handler, so a SIGTERM straight after the announcement can end it
// by the default action. One HTTP round trip first makes that
// unlikely, and an exit by SIGTERM itself is accepted: every check
// has already read what it needs from the daemon by then.
func (d *daemon) stop() (float64, error) {
	d.get("/atoms/epoch")
	peak, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		d.kill()
		return 0, err
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if ws, ok := d.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			err = nil
		}
		if err != nil {
			return 0, fmt.Errorf("atomd: %v", err)
		}
	case <-time.After(60 * time.Second):
		d.kill()
		return 0, fmt.Errorf("atomd did not drain within 60s of SIGTERM")
	}
	return peak, nil
}

// kill ends the process without a drain (error paths only).
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// peakRSSMB reads a running process's resident-set high-water mark
// (VmHWM). The rusage of a reaped child is no use here: Linux carries
// the parent's own peak into a child that it forks and execs, so the
// benchmark's memory would show up as the daemon's.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("pid %d: no VmHWM in /proc status", pid)
}

// get fetches one HTTP path on a connection of its own that closes
// with the call.
func (d *daemon) get(path string) ([]byte, error) {
	c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 60 * time.Second}
	resp, err := c.Get("http://" + d.httpAddr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// quiesce makes the daemon collect its garbage now, through the pprof
// heap endpoint's gc=1, so a timed phase does not pay for collecting
// what bootstrap or an earlier phase left behind, at a moment that
// differs from run to run. It collects twice: sync.Pool contents
// survive one collection, and whether bootstrap had already run one
// more than usual would otherwise leave the live heap at 300 MB or at
// 40 MB, and the collector's pace during the phase with it.
func (d *daemon) quiesce() error {
	for i := 0; i < 2; i++ {
		if _, err := d.get("/debug/pprof/heap?gc=1"); err != nil {
			return err
		}
	}
	return nil
}

// ingestLedger is /atoms/ingest.
type ingestLedger struct {
	Sources []struct {
		Collector string `json:"collector"`
		Bytes     uint64 `json:"bytes"`
		Elems     int    `json:"elems"`
		Updates   int    `json:"updates"`
		Applied   int    `json:"applied"`
		NoOps     int    `json:"noops"`
	} `json:"sources"`
	Quarantined []string `json:"quarantined"`
}

func (d *daemon) ledger() (*ingestLedger, error) {
	body, err := d.get("/atoms/ingest")
	if err != nil {
		return nil, err
	}
	var l ingestLedger
	if err := json.Unmarshal(body, &l); err != nil {
		return nil, fmt.Errorf("/atoms/ingest: %w", err)
	}
	return &l, nil
}

func (l *ingestLedger) updates() int {
	n := 0
	for _, s := range l.Sources {
		n += s.Updates
	}
	return n
}

// scrape reads /metrics into a name → value map (labels kept in the
// name as exposed).
func (d *daemon) scrape() (map[string]float64, error) {
	body, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(body), nil
}

func parseProm(body []byte) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// verifyDrained runs the post-drain checks every workload shares: the
// ledger's mapped-update total, no quarantines, no NAK rewinds, and the
// materialized snapshot byte for byte. It returns the mapped updates.
func verifyDrained(env *runEnv, d *daemon, ref *daemonRef) (int, error) {
	led := env.led
	l, err := d.ledger()
	if err != nil {
		return 0, err
	}
	n := l.updates()
	led.check(n == ref.stats.Updates, "mapped updates %d, reference %d", n, ref.stats.Updates)
	led.op(int64(len(env.w.collectors)), int64(len(l.Quarantined)), "quarantined sessions "+strings.Join(l.Quarantined, ","))
	m, err := d.scrape()
	if err != nil {
		return 0, err
	}
	naks := int64(m["atom_atomd_naks"])
	led.op(naks, naks, "NAK rewinds")
	snap, err := d.get("/atoms/snapshot")
	if err != nil {
		return 0, err
	}
	led.check(string(snap) == string(ref.text), "/atoms/snapshot differs from the in-process reference (%d vs %d bytes)", len(snap), len(ref.text))
	return n, nil
}
