package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func startTestServer(t *testing.T, root *Span, reg *Registry) *DebugServer {
	t.Helper()
	d, err := ServeDebug("127.0.0.1:0", "atomtest", []string{"-run", "x"}, root, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func get(t *testing.T, d *DebugServer, path string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get("http://" + d.Addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp, string(body)
}

func TestServeDebugEndpoints(t *testing.T) {
	root := Root("run")
	defer root.End()
	reg := NewRegistry()
	reg.Counter("bgpstream.records").Add(9)
	reg.Histogram("mrt.msg_bytes").Observe(64)
	d := startTestServer(t, root, reg)

	resp, body := get(t, d, "/metrics")
	if ct := resp.Header.Get("Content-Type"); ct != PromContentType {
		t.Errorf("/metrics Content-Type = %q, want %q", ct, PromContentType)
	}
	if problems := LintPromText(body); len(problems) != 0 {
		t.Errorf("/metrics fails promlint-lite: %v", problems)
	}
	if !strings.Contains(body, "atom_bgpstream_records 9") {
		t.Errorf("/metrics missing counter sample:\n%s", body)
	}
	if !strings.Contains(body, `atom_mrt_msg_bytes{quantile="0.99"} 64`) {
		t.Errorf("/metrics missing summary quantile:\n%s", body)
	}

	resp, body = get(t, d, "/healthz")
	if resp.Header.Get("Content-Type") != "application/json" {
		t.Errorf("/healthz Content-Type = %q", resp.Header.Get("Content-Type"))
	}
	var health struct {
		Status     string `json:"status"`
		Tool       string `json:"tool"`
		UptimeMS   *int64 `json:"uptime_ms"`
		Goroutines int    `json:"goroutines"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, body)
	}
	if health.Status != "ok" || health.Tool != "atomtest" || health.UptimeMS == nil || health.Goroutines <= 0 {
		t.Errorf("/healthz = %+v", health)
	}

	_, body = get(t, d, "/runreport")
	var report RunReport
	if err := json.Unmarshal([]byte(body), &report); err != nil {
		t.Fatalf("/runreport not JSON: %v\n%s", err, body)
	}
	if report.Tool != "atomtest" || report.Span == nil || report.Span.Name != "run" {
		t.Errorf("/runreport = tool %q span %+v", report.Tool, report.Span)
	}
	if report.Metrics.CounterValue("bgpstream.records") != 9 {
		t.Errorf("/runreport metrics = %+v", report.Metrics)
	}

	resp, body = get(t, d, "/debug/pprof/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ status %d", resp.StatusCode)
	}

	resp, body = get(t, d, "/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index status %d body %q", resp.StatusCode, body)
	}
	resp, _ = get(t, d, "/no-such-page")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status %d, want 404", resp.StatusCode)
	}
}

// TestServeDebugNilSources: endpoints must serve valid (empty) documents
// when the command wired no span tree or registry.
func TestServeDebugNilSources(t *testing.T) {
	d := startTestServer(t, nil, nil)
	resp, body := get(t, d, "/metrics")
	if resp.StatusCode != http.StatusOK || body != "" {
		t.Errorf("/metrics on nil registry: status %d body %q", resp.StatusCode, body)
	}
	_, body = get(t, d, "/runreport")
	var report RunReport
	if err := json.Unmarshal([]byte(body), &report); err != nil {
		t.Fatalf("/runreport on nil sources not JSON: %v", err)
	}
	_, body = get(t, d, "/healthz")
	if !strings.Contains(body, `"status":"ok"`) {
		t.Errorf("/healthz = %s", body)
	}
}

func TestServeDebugBadAddr(t *testing.T) {
	if _, err := ServeDebug("256.0.0.1:99999", "t", nil, nil, nil, nil); err == nil {
		t.Error("bad address should fail to listen")
	}
	var d *DebugServer
	if err := d.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

// TestScrapeUnderLoad hammers /metrics while the sampler ticks and the
// pipeline writes instruments — the -race configuration this suite runs
// under in verify.sh is the real assertion.
func TestScrapeUnderLoad(t *testing.T) {
	reg := NewRegistry()
	root := Root("run")
	defer root.End()
	s := StartSampler(reg, time.Millisecond)
	defer s.Stop()
	d := startTestServer(t, root, reg)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // a "pipeline" mutating instruments and spans
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			reg.Counter("load.events", "worker", "w0").Inc()
			reg.Histogram("load.sizes").Observe(int64(i % 1000))
			c := root.Child("tick")
			c.End()
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Get("http://" + d.Addr + "/metrics")
				if err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if problems := LintPromText(string(body)); len(problems) != 0 {
					t.Errorf("scrape under load fails lint: %v", problems)
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestCloseJoinsServeGoroutine pins the teardown contract the lifecycle
// analyzer enforces: Close must join the background Serve goroutine and
// release the listener, so a caller (atomd restarting its debug
// endpoint, a test rebinding the port) can rely on "Close returned"
// meaning "nothing is left running and the port is free".
func TestCloseJoinsServeGoroutine(t *testing.T) {
	d, err := ServeDebug("127.0.0.1:0", "atomtest", nil, nil, NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The Serve goroutine must have fully exited by the time Close
	// returns — the done channel is closed, not merely closing.
	select {
	case <-d.done:
	default:
		t.Fatal("Close returned before the Serve goroutine exited")
	}
	// The port is released: rebinding the exact address succeeds.
	d2, err := ServeDebug(d.Addr, "atomtest", nil, nil, NewRegistry(), nil)
	if err != nil {
		t.Fatalf("rebinding %s after Close: %v", d.Addr, err)
	}
	if err := d2.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// Requests after Close fail: the server really stopped.
	if _, err := http.Get("http://" + d.Addr + "/healthz"); err == nil {
		t.Fatal("GET after Close succeeded; server still serving")
	}
}
