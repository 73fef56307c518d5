//go:build ignore

// atomdsmoke drives one live atomd daemon the way an operator would:
// build the binary, boot it over the golden RIB archives, wait for the
// announce lines on stderr, stream the golden update archives through
// real TCP ingest sessions, query the HTTP and binary ports while the
// daemon is live, then SIGTERM it and demand a clean drain and exit.
// A second boot is signalled the moment it announces its first address
// and must drain just the same. Everything asserted here is the
// operator-facing contract from the README quick start.
//
// Usage: go run scripts/atomdsmoke.go
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
	"strings"
	"syscall"
	"time"

	"repro/internal/atomd"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "atomdsmoke: FAIL: "+format+"\n", args...)
	os.Exit(1)
}

func get(url string) string {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		fail("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fail("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fail("GET %s: read: %v", url, err)
	}
	return string(body)
}

// epochDoc decodes one /atoms/epoch body.
func epochDoc(body string) (epoch uint64, atoms int) {
	var doc struct {
		Epoch uint64 `json:"epoch"`
		Atoms int    `json:"atoms"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		fail("/atoms/epoch not JSON: %v\n%s", err, body)
	}
	return doc.Epoch, doc.Atoms
}

func main() {
	tmp, err := os.MkdirTemp("", "atomdsmoke")
	if err != nil {
		fail("mkdtemp: %v", err)
	}
	defer os.RemoveAll(tmp)
	bin := filepath.Join(tmp, "atomd")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/atomd").CombinedOutput(); err != nil {
		fail("go build ./cmd/atomd: %v\n%s", err, out)
	}

	collectors := []string{"route-views2", "rrc00"}
	var ribArgs []string
	for _, c := range collectors {
		ribArgs = append(ribArgs, filepath.Join("testdata", "golden", c+".rib.mrt"))
	}
	cmd, sc := boot(bin, ribArgs)

	// Stderr carries the obs announce line (HTTP address) and atomd's
	// own "ingest on X, binary queries on Y" line; the drive sequence
	// fires once both are known. After SIGTERM the drain summary lines
	// must appear.
	const announce = ": observability on http://"
	const ports = ": ingest on "
	var httpBase, ingestAddr, queryAddr string
	driven, drained := false, false
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, announce); i >= 0 {
			addr := line[i+len(announce):]
			if j := strings.Index(addr, "/"); j >= 0 {
				addr = addr[:j]
			}
			httpBase = "http://" + addr
		}
		if i := strings.Index(line, ports); i >= 0 {
			rest := line[i+len(ports):]
			ingestAddr, queryAddr, _ = strings.Cut(rest, ", binary queries on ")
		}
		if strings.Contains(line, "drained at epoch") {
			drained = true
		}
		if !driven && httpBase != "" && ingestAddr != "" && queryAddr != "" {
			driven = true
			drive(httpBase, ingestAddr, queryAddr, collectors)
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				fail("SIGTERM: %v", err)
			}
		}
	}
	if err := cmd.Wait(); err != nil {
		fail("atomd exited uncleanly: %v", err)
	}
	if !driven {
		fail("announce lines never appeared on stderr")
	}
	if !drained {
		fail("no drain summary after SIGTERM")
	}
	earlySignal(bin, ribArgs)
	fmt.Println("atomdsmoke: OK (live ingest over TCP, HTTP + binary queries answered, SIGTERM drained cleanly, also on first announce)")
}

// boot starts atomd over ribArgs and returns it with a scanner over its
// stderr.
func boot(bin string, ribArgs []string) (*exec.Cmd, *bufio.Scanner) {
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0", "-workers", "1"}, ribArgs...)...)
	cmd.Stdout = io.Discard
	stderr, err := cmd.StderrPipe()
	if err != nil {
		fail("stderr pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		fail("start: %v", err)
	}
	sc := bufio.NewScanner(stderr)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	return cmd, sc
}

// earlySignal boots a fresh daemon and sends SIGTERM on the first line
// that announces an address: a client may act on any announced port at
// once, so the drain handler must already be installed by then.
func earlySignal(bin string, ribArgs []string) {
	cmd, sc := boot(bin, ribArgs)
	signalled, drained := false, false
	for sc.Scan() {
		line := sc.Text()
		if !signalled && (strings.Contains(line, ": observability on http://") || strings.Contains(line, ": ingest on ")) {
			signalled = true
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				fail("early SIGTERM: %v", err)
			}
		}
		if strings.Contains(line, "drained at epoch 0") {
			drained = true
		}
	}
	if err := cmd.Wait(); err != nil {
		fail("atomd signalled on its first announce exited uncleanly: %v", err)
	}
	if !signalled || !drained {
		fail("early signal: signalled=%v drained=%v, want both", signalled, drained)
	}
}

// drive ingests the golden update archives and queries both surfaces.
func drive(httpBase, ingestAddr, queryAddr string, collectors []string) {
	epoch0, atoms0 := epochDoc(get(httpBase + "/atoms/epoch"))
	if epoch0 != 0 || atoms0 == 0 {
		fail("boot state: epoch=%d atoms=%d, want epoch 0 and atoms > 0", epoch0, atoms0)
	}

	for _, c := range collectors {
		data, err := os.ReadFile(filepath.Join("testdata", "golden", c+".updates.mrt"))
		if err != nil {
			fail("updates: %v", err)
		}
		cl, err := atomd.Dial(ingestAddr, c)
		if err != nil {
			fail("dial ingest %s: %v", c, err)
		}
		if err := cl.Send(data); err != nil {
			fail("send %s: %v", c, err)
		}
		if err := cl.Drain(); err != nil {
			fail("drain %s: %v", c, err)
		}
		cl.Close()
	}

	epoch1, atoms1 := epochDoc(get(httpBase + "/atoms/epoch"))
	if epoch1 == 0 || atoms1 == 0 {
		fail("post-ingest state: epoch=%d atoms=%d, want an advanced epoch", epoch1, atoms1)
	}

	var ingest struct {
		Sources []struct {
			Collector string `json:"collector"`
			Updates   int    `json:"updates"`
		} `json:"sources"`
		Quarantined []string `json:"quarantined"`
	}
	if err := json.Unmarshal([]byte(get(httpBase+"/atoms/ingest")), &ingest); err != nil {
		fail("/atoms/ingest not JSON: %v", err)
	}
	if len(ingest.Sources) != len(collectors) || len(ingest.Quarantined) != 0 {
		fail("/atoms/ingest = %+v, want %d clean sources", ingest, len(collectors))
	}

	qc, err := atomd.DialQuery(queryAddr)
	if err != nil {
		fail("dial query: %v", err)
	}
	defer qc.Close()
	qe, qa, _, err := qc.Epoch()
	if err != nil {
		fail("binary epoch: %v", err)
	}
	if qe != epoch1 || qa != atoms1 {
		fail("binary epoch (%d,%d) disagrees with HTTP (%d,%d)", qe, qa, epoch1, atoms1)
	}
	same, _, err := qc.SameAtom(0, 0)
	if err != nil || !same {
		fail("binary sameatom(0,0) = (%v,%v), want true", same, err)
	}
	if !strings.Contains(get(httpBase+"/atoms/snapshot?workers=1"), "atom 0 ") {
		fail("/atoms/snapshot missing atom lines")
	}
}
