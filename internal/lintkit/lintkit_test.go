package lintkit

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/parallel"
)

// The fixtures under testdata/src mark each expected finding with a
// trailing `// want "substring"` comment on the diagnostic's line. The
// harness demands an exact match both ways: every diagnostic must hit
// an unclaimed want, and every want must be claimed — so a disabled or
// regressed analyzer fails the test with the exact missing line.

var wantRe = regexp.MustCompile(`want "([^"]+)"`)

type wantDiag struct {
	file    string
	line    int
	substr  string
	matched bool
}

var (
	fixtureMu    sync.Mutex
	fixtureCache = map[string]*Package{}
)

// loadFixtureT loads testdata/src/<dir> type-checked under the given
// (synthetic) import path, memoized — the GOROOT source importer makes
// each cold load cost real time.
func loadFixtureT(t *testing.T, dir, importPath string) *Package {
	t.Helper()
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	key := dir + "|" + importPath
	if p, ok := fixtureCache[key]; ok {
		return p
	}
	pkg, err := LoadFixture(filepath.Join("testdata", "src", dir), importPath)
	if err != nil {
		t.Fatalf("load fixture %s as %s: %v", dir, importPath, err)
	}
	fixtureCache[key] = pkg
	return pkg
}

func collectWants(pkg *Package) []*wantDiag {
	var wants []*wantDiag
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					pos := pkg.Fset.Position(c.Pos())
					wants = append(wants, &wantDiag{file: pos.Filename, line: pos.Line, substr: m[1]})
				}
			}
		}
	}
	return wants
}

func checkFixture(t *testing.T, dir, importPath string, analyzers []*Analyzer) {
	t.Helper()
	pkg := loadFixtureT(t, dir, importPath)
	wants := collectWants(pkg)
	diags := RunAnalyzers([]*Package{pkg}, analyzers)
	for _, d := range diags {
		claimed := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && strings.Contains(d.Message, w.substr) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: want diagnostic containing %q, got none", w.file, w.line, w.substr)
		}
	}
}

// The fixtures run under the full suite: the scoped analyzers must not
// bleed into each other's fixtures, and the target analyzer must produce
// exactly the marked findings.

// The determinism fixture loads as internal/metrics: a deterministic-
// scope package with no requiredHotpaths entry, so the hotpath sweep's
// per-package kernel table (which now pins internal/core's AtomIndex
// kernels) cannot bleed findings into this fixture.
func TestDeterminismFixture(t *testing.T) {
	checkFixture(t, "determinism", "repro/internal/metrics", All)
}

func TestHotpathFixture(t *testing.T) {
	checkFixture(t, "hotpath", "repro/internal/hotfix", All)
}

func TestHotpathRequiredFixture(t *testing.T) {
	checkFixture(t, "hotreq", "repro/internal/bgpstream", All)
}

// TestHotpathRequiredScope pins the required-kernel sweep's package
// matching: the same fixture under an unlisted path is silent — the
// table binds names to specific packages, not the whole tree.
func TestHotpathRequiredScope(t *testing.T) {
	pkg := loadFixtureT(t, "hotreq", "repro/internal/textplot")
	if diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{Hotpath}); len(diags) != 0 {
		t.Errorf("hotreq fixture under internal/textplot: %d diagnostic(s), want 0 (first: %s)", len(diags), diags[0])
	}
}

// The wiresafety fixture loads as internal/bgp (also in the wire
// scope): under internal/mrt the hotpath analyzer's required-kernel
// table would demand (*BytesReader).Next.
func TestWireSafetyFixture(t *testing.T) {
	checkFixture(t, "wiresafety", "repro/internal/bgp", All)
}

func TestLocksFixture(t *testing.T) {
	checkFixture(t, "locks", "repro/internal/lockfix", All)
}

var vetDiagRe = regexp.MustCompile(`^(.+\.go):(\d+):\d+: (.*)$`)

// TestVetCopyLocksFixture pins the locks analyzer's division of labour
// with go vet: the by-value lock copies it does not check (params,
// receivers, assignments, range variables, a lock two levels deep
// through an array, a sync/atomic field) must each be a `go vet
// -copylocks` diagnostic on its `// want` line, and vet must report
// nothing else there. The explicit testdata path makes vet load the
// package, which ./... skips.
func TestVetCopyLocksFixture(t *testing.T) {
	dir := filepath.Join("testdata", "src", "lockcopy")
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("lockcopy fixture: %v (%d files)", err, len(files))
	}
	var wants []*wantDiag
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				wants = append(wants, &wantDiag{file: filepath.Base(f), line: i + 1, substr: m[1]})
			}
		}
	}

	out, err := exec.Command("go", "vet", "-copylocks", "./"+filepath.ToSlash(dir)).CombinedOutput()
	if _, ok := err.(*exec.ExitError); err != nil && !ok {
		t.Fatalf("go vet: %v", err)
	}
	for _, line := range strings.Split(string(out), "\n") {
		m := vetDiagRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		n, _ := strconv.Atoi(m[2])
		claimed := false
		for _, w := range wants {
			if !w.matched && w.file == filepath.Base(m[1]) && w.line == n && strings.Contains(m[3], w.substr) {
				w.matched, claimed = true, true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected vet diagnostic: %s", line)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: want vet diagnostic containing %q, got none\nvet output:\n%s", w.file, w.line, w.substr, out)
		}
	}
}

func TestAliasingFixture(t *testing.T) {
	checkFixture(t, "aliasing", "repro/internal/aliasfix", All)
}

// The required-producer fixture loads as internal/bgp — a package the
// requiredBorrowed table pins — with one registered producer present but
// unannotated and one absent entirely.
func TestAliasingRequiredFixture(t *testing.T) {
	checkFixture(t, "borrowedreq", "repro/internal/bgp", All)
}

func TestLifecycleFixture(t *testing.T) {
	checkFixture(t, "lifecycle", "repro/internal/lifefix", All)
}

// TestAliasingDirectives pins the owned/scratch directive grammar and
// the one-directive-many-findings ignore contract. Checked without want
// markers: a malformed directive's finding lands on the directive's own
// comment line, which cannot carry a marker comment too.
func TestAliasingDirectives(t *testing.T) {
	pkg := loadFixtureT(t, "aliasdir", "repro/internal/aliasfix")
	diags := RunAnalyzers([]*Package{pkg}, All)

	var malformed, escapes int
	for _, d := range diags {
		if d.Analyzer != "aliasing" {
			t.Errorf("unexpected analyzer %q in %s", d.Analyzer, d)
			continue
		}
		switch {
		case strings.Contains(d.Message, "malformed atomlint:"):
			malformed++
		case strings.Contains(d.Message, "heap-reachable"):
			escapes++
		default:
			t.Errorf("unexpected aliasing diagnostic: %s", d)
		}
		// The ignored() line held a field store and a package-var store;
		// one //atomlint:ignore aliasing must have silenced both.
		if strings.Contains(d.Message, "package variable") {
			t.Errorf("ignore directive failed to suppress: %s", d)
		}
	}
	if malformed != 2 {
		t.Errorf("malformed-directive diagnostics = %d, want 2 (bare owned + bare scratch): %v", malformed, diags)
	}
	// Malformed directives register nothing, so the escapes they sat
	// above must still be reported.
	if escapes != 2 {
		t.Errorf("surviving escape diagnostics = %d, want 2: %v", escapes, diags)
	}

	// Inversion: with aliasing disabled the fixture is silent.
	var rest []*Analyzer
	for _, a := range All {
		if a != Aliasing {
			rest = append(rest, a)
		}
	}
	if diags := RunAnalyzers([]*Package{pkg}, rest); len(diags) != 0 {
		t.Errorf("aliasdir fixture with aliasing disabled: %d diagnostic(s), want 0 (first: %s)", len(diags), diags[0])
	}
}

func TestClockSeamFixture(t *testing.T) {
	checkFixture(t, "clockseam", "repro/internal/obs", All)
}

// TestClockSeamScope pins the sweep's package allowlist: the same
// violation-riddled fixture under internal/cli is swept, under an
// unscoped path it is silent.
func TestClockSeamScope(t *testing.T) {
	pkg := loadFixtureT(t, "clockseam", "repro/internal/cli")
	if diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{Determinism}); len(diags) == 0 {
		t.Error("clockseam fixture under internal/cli: no diagnostics, want findings")
	} else {
		// The exemption key is "obs.clockNow", so under internal/cli even
		// the seam declaration itself is a finding.
		want := 7
		if len(diags) != want {
			t.Errorf("clockseam fixture under internal/cli: %d diagnostic(s), want %d", len(diags), want)
		}
	}
	pkg = loadFixtureT(t, "clockseam", "repro/internal/textplot")
	if diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{Determinism}); len(diags) != 0 {
		t.Errorf("clockseam fixture under internal/textplot: %d diagnostic(s), want 0 (first: %s)", len(diags), diags[0])
	}
}

// TestFixtureSilentWithAnalyzerDisabled is the golden inversion: running
// a fixture with its analyzer removed must produce zero diagnostics —
// proving every marked finding is attributable to that one check (and
// that the fixture test above genuinely fails if the check is disabled).
func TestFixtureSilentWithAnalyzerDisabled(t *testing.T) {
	cases := []struct {
		dir, path string
		disabled  *Analyzer
	}{
		{"determinism", "repro/internal/metrics", Determinism},
		{"clockseam", "repro/internal/obs", Determinism},
		{"hotpath", "repro/internal/hotfix", Hotpath},
		{"hotreq", "repro/internal/bgpstream", Hotpath},
		{"wiresafety", "repro/internal/bgp", WireSafety},
		{"locks", "repro/internal/lockfix", Locks},
		{"aliasing", "repro/internal/aliasfix", Aliasing},
		{"borrowedreq", "repro/internal/bgp", Aliasing},
		{"lifecycle", "repro/internal/lifefix", Lifecycle},
	}
	for _, tc := range cases {
		var rest []*Analyzer
		for _, a := range All {
			if a != tc.disabled {
				rest = append(rest, a)
			}
		}
		pkg := loadFixtureT(t, tc.dir, tc.path)
		if diags := RunAnalyzers([]*Package{pkg}, rest); len(diags) != 0 {
			t.Errorf("%s fixture with %s disabled: %d diagnostic(s), want 0 (first: %s)",
				tc.dir, tc.disabled.Name, len(diags), diags[0])
		}
	}
}

// TestScopedAnalyzersRespectPackagePaths loads the violation-riddled
// fixture sources under paths outside the analyzer's scope: the
// allowlist must silence everything. (internal/obs is no longer a
// silent path for determinism — the clock-seam sweep covers it — so
// the determinism fixture relocates to internal/textplot.)
func TestScopedAnalyzersRespectPackagePaths(t *testing.T) {
	pkg := loadFixtureT(t, "determinism", "repro/internal/textplot")
	if diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{Determinism}); len(diags) != 0 {
		t.Errorf("determinism fixture under internal/textplot: %d diagnostic(s), want 0 (first: %s)", len(diags), diags[0])
	}
	pkg = loadFixtureT(t, "wiresafety", "repro/internal/obs")
	if diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{WireSafety}); len(diags) != 0 {
		t.Errorf("wiresafety fixture under internal/obs: %d diagnostic(s), want 0 (first: %s)", len(diags), diags[0])
	}
	pkg = loadFixtureT(t, "aliasing", "repro/internal/textplot")
	if diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{Aliasing}); len(diags) != 0 {
		t.Errorf("aliasing fixture under internal/textplot: %d diagnostic(s), want 0 (first: %s)", len(diags), diags[0])
	}
	pkg = loadFixtureT(t, "lifecycle", "repro/internal/textplot")
	if diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{Lifecycle}); len(diags) != 0 {
		t.Errorf("lifecycle fixture under internal/textplot: %d diagnostic(s), want 0 (first: %s)", len(diags), diags[0])
	}
}

// TestIgnoreSuppression pins down //atomlint:ignore semantics: a valid
// directive silences its analyzer on its own line and the line below,
// a directive for another analyzer suppresses nothing, and malformed or
// unknown-analyzer directives are themselves findings.
func TestIgnoreSuppression(t *testing.T) {
	pkg := loadFixtureT(t, "ignore", "repro/internal/core")
	diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{Determinism})

	var det, kit []Diag
	for _, d := range diags {
		switch d.Analyzer {
		case "determinism":
			det = append(det, d)
		case "lintkit":
			kit = append(kit, d)
		default:
			t.Errorf("unexpected analyzer %q in %s", d.Analyzer, d)
		}
	}
	// Six time.Now calls; the two properly-suppressed ones must vanish,
	// the other four (unsuppressed, wrong analyzer, malformed directive,
	// unknown analyzer) must survive.
	if len(det) != 4 {
		t.Errorf("determinism diagnostics = %d, want 4: %v", len(det), det)
	}
	if len(kit) != 2 {
		t.Fatalf("lintkit directive diagnostics = %d, want 2: %v", len(kit), kit)
	}
	if !strings.Contains(kit[0].Message, "malformed atomlint:ignore") {
		t.Errorf("first directive diagnostic = %q, want malformed-directive finding", kit[0].Message)
	}
	if !strings.Contains(kit[1].Message, "unknown analyzer") {
		t.Errorf("second directive diagnostic = %q, want unknown-analyzer finding", kit[1].Message)
	}
}

// writeTree writes a map of relative path → contents under dir.
func writeTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, content := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

const fixtureGoMod = "module fixturemod\n\ngo 1.22\n"

func TestMainExitCleanModule(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod": fixtureGoMod,
		"ok.go":  "package cleanmod\n\n// OK is fine.\nfunc OK() int { return 1 }\n",
	})
	var out bytes.Buffer
	if got := Main(&out, dir, nil, All); got != ExitClean {
		t.Fatalf("Main = %d, want %d; output:\n%s", got, ExitClean, out.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run produced output:\n%s", out.String())
	}
}

func TestMainExitFindings(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod":                fixtureGoMod,
		"internal/core/core.go": "package core\n\nimport \"time\"\n\n// Stamp is nondeterministic on purpose.\nfunc Stamp() int64 { return time.Now().Unix() }\n",
	})
	var out bytes.Buffer
	if got := Main(&out, dir, nil, All); got != ExitFindings {
		t.Fatalf("Main = %d, want %d; output:\n%s", got, ExitFindings, out.String())
	}
	if s := out.String(); !strings.Contains(s, "time.Now") || !strings.Contains(s, "finding(s)") {
		t.Errorf("findings output missing diagnostic or summary:\n%s", s)
	}

	// Pattern filtering: naming the offending package still finds it,
	// a disjoint pattern filters everything out and exits clean.
	out.Reset()
	if got := Main(&out, dir, []string{"./internal/core"}, All); got != ExitFindings {
		t.Errorf("Main(./internal/core) = %d, want %d", got, ExitFindings)
	}
	out.Reset()
	if got := Main(&out, dir, []string{"./internal/other/..."}, All); got != ExitClean {
		t.Errorf("Main(./internal/other/...) = %d, want %d; output:\n%s", got, ExitClean, out.String())
	}
}

// findingsTree is a small module with deterministic findings spread
// over three scoped packages — enough tasks to exercise the grid merge.
// The package names sit in the determinism scope but outside the
// hotpath/aliasing required tables, so the count is exact.
func findingsTree(t *testing.T) string {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod":                        fixtureGoMod,
		"internal/routing/routing.go":   "package routing\n\nimport \"time\"\n\n// Stamp is nondeterministic on purpose.\nfunc Stamp() int64 { return time.Now().Unix() }\n",
		"internal/sanitize/sanitize.go": "package sanitize\n\nimport \"time\"\n\n// When is nondeterministic on purpose.\nfunc When() int64 { return time.Now().UnixNano() }\n",
		"internal/metrics/metrics.go":   "package metrics\n\nimport \"time\"\n\n// Tick is nondeterministic on purpose.\nfunc Tick() int64 { return time.Now().UnixMilli() }\n",
	})
	return dir
}

// TestMainOptsWorkersDeterministic pins the grid driver's core
// guarantee: findings output is byte-identical at any worker count.
func TestMainOptsWorkersDeterministic(t *testing.T) {
	parallel.ForceParallel(true)
	defer parallel.ForceParallel(false)
	dir := findingsTree(t)

	var seq, par, timings bytes.Buffer
	if got := MainOpts(&seq, dir, nil, All, Options{Workers: 1}); got != ExitFindings {
		t.Fatalf("MainOpts(workers=1) = %d, want %d; output:\n%s", got, ExitFindings, seq.String())
	}
	if got := MainOpts(&par, dir, nil, All, Options{Workers: 8, Timings: &timings}); got != ExitFindings {
		t.Fatalf("MainOpts(workers=8) = %d, want %d; output:\n%s", got, ExitFindings, par.String())
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Errorf("workers=1 and workers=8 output differ:\n--- 1:\n%s--- 8:\n%s", seq.String(), par.String())
	}
	// One wall-time line per analyzer, on the timings writer only.
	lines := strings.Count(timings.String(), "\n")
	if lines != len(All) {
		t.Errorf("timings lines = %d, want %d:\n%s", lines, len(All), timings.String())
	}
	for _, a := range All {
		if !strings.Contains(timings.String(), a.Name) {
			t.Errorf("timings output missing analyzer %s:\n%s", a.Name, timings.String())
		}
	}
}

// TestMainOptsJSON pins the -json contract: a JSON array of findings
// with stable fields, an empty array on a clean tree, and exit codes
// unchanged.
func TestMainOptsJSON(t *testing.T) {
	dir := findingsTree(t)
	var out bytes.Buffer
	if got := MainOpts(&out, dir, nil, All, Options{Workers: 1, JSON: true}); got != ExitFindings {
		t.Fatalf("MainOpts(json) = %d, want %d; output:\n%s", got, ExitFindings, out.String())
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("json output does not parse: %v\n%s", err, out.String())
	}
	if len(findings) != 3 {
		t.Fatalf("json findings = %d, want 3: %s", len(findings), out.String())
	}
	for _, f := range findings {
		if f.Analyzer != "determinism" || f.File == "" || f.Line == 0 || !strings.Contains(f.Message, "time.") {
			t.Errorf("unexpected json finding: %+v", f)
		}
	}

	// Clean tree: an empty array, not empty output.
	clean := t.TempDir()
	writeTree(t, clean, map[string]string{
		"go.mod": fixtureGoMod,
		"ok.go":  "package cleanmod\n\n// OK is fine.\nfunc OK() int { return 1 }\n",
	})
	out.Reset()
	if got := MainOpts(&out, clean, nil, All, Options{Workers: 1, JSON: true}); got != ExitClean {
		t.Fatalf("MainOpts(json, clean) = %d, want %d", got, ExitClean)
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Errorf("clean json output = %q, want []", out.String())
	}
}

func TestMainExitLoadError(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod": fixtureGoMod,
		"bad.go": "package broken\n\nfunc (\n",
	})
	var out bytes.Buffer
	if got := Main(&out, dir, nil, All); got != ExitError {
		t.Fatalf("Main = %d, want %d; output:\n%s", got, ExitError, out.String())
	}
	if !strings.Contains(out.String(), "atomlint:") {
		t.Errorf("load-error output missing atomlint prefix:\n%s", out.String())
	}

	// A directory that is not a module at all is also a load error.
	out.Reset()
	if got := Main(&out, t.TempDir(), nil, All); got != ExitError {
		t.Errorf("Main on non-module dir = %d, want %d", got, ExitError)
	}
}
