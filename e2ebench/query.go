package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/netip"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/atomd"
)

// Query kinds of the serve mix.
const (
	qPrefix = iota // prefix → row, atom, size
	qSame          // do two rows share an atom
	qCount         // size of a row's atom
)

// query is one request of the seeded mix.
type query struct {
	kind int
	pfx  netip.Prefix
	row  int // qPrefix: expected row (-1 outside the universe); else the first row
	q    int // qSame: the second row
}

// makeMix draws n queries: 80% prefix→atom (a tenth of them for
// prefixes outside the universe), 10% SameAtom, 10% MemberCount.
func makeMix(rng *rand.Rand, ref *daemonRef, n int) []query {
	rows := len(ref.prefixes)
	qs := make([]query, n)
	for i := range qs {
		switch x := rng.IntN(10); {
		case x < 8 && rng.IntN(10) == 0:
			qs[i] = query{kind: qPrefix, pfx: outsidePrefix(rng, ref), row: -1}
		case x < 8:
			r := rng.IntN(rows)
			qs[i] = query{kind: qPrefix, pfx: ref.prefixes[r], row: r}
		case x == 8:
			qs[i] = query{kind: qSame, row: rng.IntN(rows), q: rng.IntN(rows)}
		default:
			qs[i] = query{kind: qCount, row: rng.IntN(rows)}
		}
	}
	return qs
}

// outsidePrefix draws a prefix from reserved space that the universe
// does not hold.
func outsidePrefix(rng *rand.Rand, ref *daemonRef) netip.Prefix {
	for {
		a := netip.AddrFrom4([4]byte{240 + byte(rng.IntN(15)), byte(rng.IntN(256)), byte(rng.IntN(256)), 0})
		p := netip.PrefixFrom(a, 16+rng.IntN(9)).Masked()
		if _, ok := ref.rows[p]; !ok {
			return p
		}
	}
}

// reply is one decoded answer, transport-independent.
type reply struct {
	status  string // "" when well formed
	seq     uint64 // the echoed request ID (binary port only; 0 on HTTP)
	epoch   uint64
	row     int64
	atom    int64
	count   int64
	same    bool
	metrics map[string]float64 // a /metrics scrape riding the HTTP connection
}

// proto is one query transport on one connection.
type proto interface {
	encode(buf []byte, seq uint64, q *query) []byte
	read(q *query) (reply, error)
}

// binProto speaks atomd's binary query port.
type binProto struct {
	conn net.Conn
	fp   atomd.FrameParser
	rbuf []byte
}

func newBinProto(conn net.Conn) *binProto { return &binProto{conn: conn, rbuf: make([]byte, 64<<10)} }

func (b *binProto) encode(buf []byte, seq uint64, q *query) []byte {
	var p [17]byte
	switch q.kind {
	case qPrefix:
		addr := q.pfx.Addr().AsSlice()
		p[0] = byte(q.pfx.Bits())
		copy(p[1:], addr)
		return atomd.AppendFrame(buf, atomd.FramePrefixAtom, seq, p[:1+len(addr)])
	case qSame:
		binary.BigEndian.PutUint32(p[:4], uint32(q.row))
		binary.BigEndian.PutUint32(p[4:8], uint32(q.q))
		return atomd.AppendFrame(buf, atomd.FrameSameAtom, seq, p[:8])
	default:
		binary.BigEndian.PutUint32(p[:4], uint32(q.row))
		return atomd.AppendFrame(buf, atomd.FrameMemberCount, seq, p[:4])
	}
}

func (b *binProto) read(q *query) (reply, error) {
	for {
		fr, ok, err := b.fp.Next()
		if err != nil {
			return reply{}, err
		}
		if ok {
			return decodeBin(fr, q), nil
		}
		n, err := b.conn.Read(b.rbuf)
		if n > 0 {
			b.fp.Feed(b.rbuf[:n])
			continue
		}
		if err != nil {
			return reply{}, err
		}
	}
}

func decodeBin(fr atomd.Frame, q *query) reply {
	if fr.Type != atomd.FrameReply {
		return reply{status: fmt.Sprintf("frame type %d: %q", fr.Type, fr.Payload)}
	}
	want := [...]int{qPrefix: 20, qSame: 9, qCount: 12}[q.kind]
	if len(fr.Payload) != want {
		return reply{status: fmt.Sprintf("payload %d bytes, want %d", len(fr.Payload), want)}
	}
	pl := fr.Payload
	r := reply{seq: fr.Seq, epoch: binary.BigEndian.Uint64(pl[:8])}
	switch q.kind {
	case qPrefix:
		r.row = int64(int32(binary.BigEndian.Uint32(pl[8:12])))
		r.atom = int64(int32(binary.BigEndian.Uint32(pl[12:16])))
		r.count = int64(binary.BigEndian.Uint32(pl[16:20]))
	case qSame:
		r.same = pl[8] == 1
	default:
		r.count = int64(binary.BigEndian.Uint32(pl[8:12]))
	}
	return r
}

// httpProto speaks HTTP/1.1 on one keep-alive connection, pipelining
// requests so the arrival schedule never waits for a response.
type httpProto struct {
	br *bufio.Reader
}

func newHTTPProto(conn net.Conn) *httpProto { return &httpProto{br: bufio.NewReaderSize(conn, 64<<10)} }

func (h *httpProto) encode(buf []byte, _ uint64, q *query) []byte {
	buf = append(buf, "GET "...)
	switch q.kind {
	case qPrefix:
		buf = append(buf, "/atoms/prefix?prefix="...)
		buf = append(buf, url.QueryEscape(q.pfx.String())...)
	case qSame:
		buf = fmt.Appendf(buf, "/atoms/sameatom?p=%d&q=%d", q.row, q.q)
	default:
		buf = fmt.Appendf(buf, "/atoms/membercount?p=%d", q.row)
	}
	return append(buf, " HTTP/1.1\r\nHost: atomd\r\n\r\n"...)
}

// scrapeRequest reads the daemon's /metrics on the query connection.
const scrapeRequest = "GET /metrics HTTP/1.1\r\nHost: atomd\r\n\r\n"

func (h *httpProto) read(q *query) (reply, error) {
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		return reply{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{status: resp.Status}, nil
	}
	if q == nil {
		return reply{metrics: parseProm(body)}, nil
	}
	var doc struct {
		Epoch uint64 `json:"epoch"`
		Row   *int64 `json:"row"`
		Atom  int64  `json:"atom"`
		Count int64  `json:"count"`
		Same  bool   `json:"same"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return reply{status: "bad JSON: " + err.Error()}, nil
	}
	r := reply{epoch: doc.Epoch, atom: doc.Atom, count: doc.Count, same: doc.Same}
	if q.kind == qPrefix {
		if doc.Row == nil {
			return reply{status: "prefix reply without a row"}, nil
		}
		r.row = *doc.Row
	}
	return r, nil
}

// wellFormed checks the answer to request seq against what any epoch
// may say: the request's own ID echoed (binary port), the prefix's row,
// an atom inside the universe, a positive size.
func wellFormed(seq uint64, q *query, r *reply, rows int) bool {
	if r.status != "" || (r.seq != 0 && r.seq != seq) {
		return false
	}
	switch q.kind {
	case qPrefix:
		if q.row < 0 {
			return r.row == -1 && r.atom == -1 && r.count == 0
		}
		return r.row == int64(q.row) && r.atom >= 0 && r.atom < int64(rows) && r.count >= 1
	case qCount:
		return r.count >= 1 && r.count <= int64(rows)
	}
	return true
}

// missUS stands in for the latency of a failed query: it misses every
// latency limit.
const missUS = 1e9

// loadStats is one open-loop phase.
type loadStats struct {
	lat       []float64 // µs from each request's due time; failures count as missUS
	late      []float64 // µs the generator sent after the due time
	scheduled int
	sent      int           // requests the writer got onto the wire
	sendSpan  time.Duration // first due time to one interval past the last send
	failed    int
	regress   int // replies whose epoch went backwards on the connection
	scrapes   []map[string]float64
}

// openLoop sends qs at env.cfg.qps for dur on one connection, each
// request at its due time whatever the replies are doing, and times
// every reply from that due time. With scrapeEvery > 0 (HTTP only) a
// /metrics scrape rides the connection at that interval, untimed.
func openLoop(env *runEnv, p proto, conn net.Conn, qs []query, rows int, dur, scrapeEvery time.Duration) *loadStats {
	rate := env.cfg.qps
	n := max(1, int(dur.Seconds()*rate))
	interval := time.Duration(float64(time.Second) / rate)
	st := &loadStats{scheduled: n, lat: make([]float64, 0, n), late: make([]float64, n)}
	scrapes := 0
	if scrapeEvery > 0 {
		scrapes = int(dur/scrapeEvery) + 1
	}
	// One slot per request the writer can send, so it never blocks.
	sent := make(chan int, n+scrapes)
	start := time.Now().Add(time.Millisecond)
	conn.SetReadDeadline(start.Add(dur + 30*time.Second))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(sent)
		defer preciseThread()()
		var buf []byte
		next := start
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(i) * interval)
			waitUntil(due)
			st.late[i] = float64(time.Since(due)) / 1e3
			buf = p.encode(buf[:0], uint64(i+1), &qs[i%len(qs)])
			scrape := scrapeEvery > 0 && !due.Before(next)
			if scrape {
				buf = append(buf, scrapeRequest...)
				next = next.Add(scrapeEvery)
			}
			if _, err := conn.Write(buf); err != nil {
				return
			}
			sent <- i
			if scrape {
				sent <- -1
			}
			st.sent, st.sendSpan = i+1, time.Since(start)+interval
			if i%1024 == 0 {
				env.harness.sampleThreads()
			}
		}
	}()
	var last uint64
	got := 0
	for idx := range sent {
		var q *query
		if idx >= 0 {
			q = &qs[idx%len(qs)]
		}
		r, err := p.read(q)
		now := time.Now()
		if err != nil {
			break
		}
		if q == nil {
			st.scrapes = append(st.scrapes, r.metrics)
			continue
		}
		got++
		ok := wellFormed(uint64(idx+1), q, &r, rows)
		if ok && r.epoch < last {
			st.regress++
			ok = false
		}
		if r.epoch > last {
			last = r.epoch
		}
		if !ok {
			st.failed++
			st.lat = append(st.lat, missUS)
			continue
		}
		st.lat = append(st.lat, float64(now.Sub(start.Add(time.Duration(idx)*interval)))/1e3)
	}
	// Whatever never came back (write or read error) failed.
	for range sent {
	}
	wg.Wait()
	for ; got < n; got++ {
		st.failed++
		st.lat = append(st.lat, missUS)
	}
	return st
}

// closedLoop sends qs one at a time and returns each round trip in µs
// (failures as missUS): the idle latency floor of a transport.
func closedLoop(p proto, conn net.Conn, qs []query, n int, rows int) ([]float64, int) {
	conn.SetReadDeadline(time.Now().Add(60 * time.Second))
	var buf []byte
	out := make([]float64, 0, n)
	failed := 0
	for i := 0; i < n; i++ {
		q := &qs[i%len(qs)]
		t0 := time.Now()
		buf = p.encode(buf[:0], uint64(i+1), q)
		if _, err := conn.Write(buf); err != nil {
			return out, failed + n - i
		}
		r, err := p.read(q)
		if err != nil {
			return out, failed + n - i
		}
		if !wellFormed(uint64(i+1), q, &r, rows) {
			failed++
			out = append(out, missUS)
			continue
		}
		out = append(out, float64(time.Since(t0))/1e3)
	}
	return out, failed
}

// burstLoop sends qs on one connection in bursts of burst queries for
// dur: each burst goes out in one write, then its replies are read and
// checked. It returns each burst's wall time per query in µs: the
// query path's own cost per request, with the wake-ups that an idle
// round trip pays on each side amortized over the burst.
func burstLoop(p proto, conn net.Conn, qs []query, rows, burst int, dur time.Duration) (perQuery []float64, sent, failed int) {
	conn.SetReadDeadline(time.Now().Add(dur + 60*time.Second))
	var buf []byte
	var last uint64
	end := time.Now().Add(dur)
	for i := 0; time.Now().Before(end); {
		t0 := time.Now()
		buf = buf[:0]
		for j := i; j < i+burst; j++ {
			buf = p.encode(buf, uint64(j+1), &qs[j%len(qs)])
		}
		if _, err := conn.Write(buf); err != nil {
			return perQuery, sent, failed + burst
		}
		sent += burst
		for j := i; j < i+burst; j++ {
			q := &qs[j%len(qs)]
			r, err := p.read(q)
			if err != nil {
				return perQuery, sent, failed + i + burst - j
			}
			ok := wellFormed(uint64(j+1), q, &r, rows) && r.epoch >= last
			last = max(last, r.epoch)
			if !ok {
				failed++
			}
		}
		perQuery = append(perQuery, float64(time.Since(t0))/1e3/float64(burst))
		i += burst
	}
	return perQuery, sent, failed
}

// waitUntil returns at t. time.Sleep wakes about a millisecond late
// on Linux (the runtime's poller has millisecond resolution), which
// would put generator lateness into every latency; nanosleep on a
// thread without timer slack (see preciseThread) wakes within tens of
// microseconds, and a short spin covers the rest.
func waitUntil(t time.Time) {
	const spin = 60 * time.Microsecond
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > spin {
			ts := syscall.NsecToTimespec(int64(d - spin))
			syscall.Nanosleep(&ts, nil)
		}
	}
}

// harness records the load generator's own behaviour, so a result can
// show that it measured the program and not the generator.
type harness struct {
	mu         sync.Mutex
	open       int
	maxOpen    int
	maxThreads int
	late       []float64
	achieved   []float64 // queries/s sent per phase
	scheduled  float64
	samples    map[string][]float64 // every sample behind a reported median or sum
	cpu0       [2]float64           // host steal and total jiffies at start
}

// newHarness starts the record, including the host's CPU accounting,
// so the result can show how much time the hypervisor took.
func newHarness() *harness { return &harness{cpu0: hostCPU()} }

// hostCPU reads the steal and total jiffies of /proc/stat's cpu line.
func hostCPU() [2]float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]float64{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var steal, total float64
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user … steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return [2]float64{steal, total}
}

// sample records one of the values a reported median or sum is taken over.
func (h *harness) sample(name string, v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.samples == nil {
		h.samples = map[string][]float64{}
	}
	h.samples[name] = append(h.samples[name], round4(v))
}

// conns adjusts the count of open connections.
func (h *harness) conns(d int) {
	h.mu.Lock()
	h.open += d
	h.maxOpen = max(h.maxOpen, h.open)
	h.mu.Unlock()
}

// dial opens a counted TCP connection.
func (h *harness) dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err == nil {
		h.conns(+1)
	}
	return c, err
}

func (h *harness) hangup(c net.Conn) {
	c.Close()
	h.conns(-1)
}

// sampleThreads records the process's OS thread count.
func (h *harness) sampleThreads() {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "Threads:"); ok {
			if n, err := strconv.Atoi(strings.TrimSpace(v)); err == nil {
				h.mu.Lock()
				h.maxThreads = max(h.maxThreads, n)
				h.mu.Unlock()
			}
		}
	}
}

// phase folds one open-loop phase into the record and returns the
// rate the generator achieved.
func (h *harness) phase(st *loadStats, rate float64) float64 {
	achieved := 0.0
	if st.sendSpan > 0 {
		achieved = float64(st.sent) / st.sendSpan.Seconds()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.late = append(h.late, st.late[:st.sent]...)
	h.achieved = append(h.achieved, round4(achieved))
	h.scheduled = rate
	return achieved
}

func (h *harness) record() map[string]any {
	h.sampleThreads()
	h.mu.Lock()
	defer h.mu.Unlock()
	rec := map[string]any{
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"nproc":              runtime.NumCPU(),
		"max_os_threads":     h.maxThreads,
		"max_open_conns":     h.maxOpen,
		"within_conn_limit":  h.maxOpen <= 2,
		"within_proc_limit":  runtime.GOMAXPROCS(0) <= runtime.NumCPU(),
		"scheduled_qps":      h.scheduled,
		"gen_late_p99_us":    round4(quantile(h.late, 0.99)),
		"achieved_qps_phase": h.achieved,
	}
	if len(h.samples) > 0 {
		rec["samples"] = h.samples
	}
	if c := hostCPU(); c[1] > h.cpu0[1] {
		rec["host_steal_share"] = round4((c[0] - h.cpu0[0]) / (c[1] - h.cpu0[1]))
	}
	return rec
}

// preciseThread pins the calling goroutine to its OS thread and sets
// the thread's timer slack to 1ns (the default 50µs would be added to
// every nanosleep). The returned function undoes both.
func preciseThread() func() {
	runtime.LockOSThread()
	const prSetTimerSlack, prGetTimerSlack = 29, 30
	old, _, _ := syscall.Syscall(syscall.SYS_PRCTL, prGetTimerSlack, 0, 0)
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	return func() {
		syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, old, 0)
		runtime.UnlockOSThread()
	}
}
