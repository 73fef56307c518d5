package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// tiny is a world small enough for a test: a few seconds per run.
var tiny = []string{"--scale", "0.002", "--hours", "0.5", "--seconds", "1"}

var binDir, cacheDir string

func TestMain(m *testing.M) {
	tmp, err := os.MkdirTemp("", "e2ebench-test")
	if err != nil {
		panic(err)
	}
	binDir, cacheDir = filepath.Join(tmp, "bin"), filepath.Join(tmp, "worlds")
	build := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/atomd", "./cmd/atomize", "./cmd/gensim")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		os.RemoveAll(tmp)
		panic("building the programs under test: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(tmp)
	os.Exit(code)
}

// declared reads BENCHMARK.json's metric names and units.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// bench runs one invocation in process and decodes its result line.
func bench(t *testing.T, args ...string) *result {
	t.Helper()
	args = append(append([]string{"--bin", binDir, "--cache", cacheDir, "--out", t.TempDir()}, tiny...), args...)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
	}
	for _, want := range []string{`{"host":`, `{"census":`, `{"harness":`, "failed_ratio "} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output lacks %s", want)
		}
	}
	return &res
}

// TestSmoke runs every workload in both modes on a tiny world and
// checks that each declared metric is emitted with its unit.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, wl := range []string{"ingest", "serve"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace"+trace, func(t *testing.T) {
				res := bench(t, "--workload", wl, "--seed", "3", "--trace", trace)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case m.Unit != unit:
						t.Errorf("metric %s unit %q, want %q", name, m.Unit, unit)
					case trace == "0" && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
			})
		}
	}
}

// TestWrongReference shows that failed_ratio rises when outputs do not
// match the reference.
func TestWrongReference(t *testing.T) {
	for _, wl := range []string{"ingest", "serve"} {
		t.Run(wl, func(t *testing.T) {
			res := bench(t, "--workload", wl, "--seed", "4", "--trace", "0", "--wrong-reference")
			if res.Correct || res.Failed == 0 {
				t.Errorf("correct=%v failed=%d of %d; want failures", res.Correct, res.Failed, res.Attempted)
			}
		})
	}
}

// TestBareDirectory checks that the benchmark refuses to run without
// the repository around it: run.sh must fail before printing a result.
func TestBareDirectory(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "e2ebench"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"run.sh", "go.mod", "main.go"} {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "e2ebench", f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("bash", "e2ebench/run.sh", "--workload", "ingest", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("run.sh succeeded in a bare directory: %s", out)
	}
	if bytes.Contains(out, []byte(`"correct"`)) {
		t.Fatalf("run.sh printed a result in a bare directory: %s", out)
	}
}
