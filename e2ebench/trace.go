package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"repro/internal/aspath"
	"repro/internal/atomd"
	"repro/internal/bgp"
	"repro/internal/bgpstream"
	"repro/internal/core"
	"repro/internal/mrt"
	"repro/internal/replay"
)

// span is one timed call (or batch of calls) into a layer, made from
// the benchmark's own code.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count"` // the layer's unit of work in this span
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so the reference code runs untraced too.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.origin))})
	return len(t.spans)
}

func (t *tracer) end(id int, count int64) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.origin))
	s.Count = count
}

// layer sums every span of one name: total time, the time not covered
// by its child spans, and the work counted.
type layer struct {
	total, self time.Duration
	count       int64
	spans       int
}

func (t *tracer) layer(name string) layer {
	child := map[int]time.Duration{}
	for _, s := range t.spans {
		child[s.Parent] += time.Duration(s.End - s.Start)
	}
	var l layer
	for _, s := range t.spans {
		if s.Name == name {
			d := time.Duration(s.End - s.Start)
			l.total += d
			l.self += d - child[s.ID]
			l.count += s.Count
			l.spans++
		}
	}
	return l
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// perUnit is a layer's time per unit of work, in the given unit.
func perUnit(l layer, d time.Duration, unit time.Duration) float64 {
	if l.count == 0 {
		return 0
	}
	return float64(d) / float64(unit) / float64(l.count)
}

// runTraced splits each end-to-end path into its layers. Every traced
// run covers all three paths, so every workload reports every layer;
// the README maps each layer metric to the workload it should move.
func runTraced(env *runEnv) (map[string]metric, error) {
	cfg, w := env.cfg, env.w
	tr := newTracer()
	ref, err := buildDaemonRef(cfg, w)
	if err != nil {
		return nil, err
	}
	if cfg.wrongRef {
		ref.perturb()
	}
	env.census = w.census(ref)
	order := w.order(env.rng)
	qs := makeMix(env.rng, ref, 1<<16)
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	// Ingest, in process: the daemon's path one layer at a time.
	snap, ing, err := traceIngestPath(env, tr, order)
	if err != nil {
		return nil, err
	}
	// In-process serve layers, on the universe after the window.
	if err := traceLookups(tr, snap, qs); err != nil {
		return nil, err
	}
	snap = nil
	freeMemory()

	// Ingest over TCP, untraced and traced, for the residual and the
	// tracing overhead.
	var rates [2]float64
	var tracedWall time.Duration
	for i, traced := range []bool{false, true} {
		var extra []string
		if traced {
			extra = []string{"-sample", "100ms"}
		}
		d, err := startDaemon(env, extra...)
		if err != nil {
			return nil, err
		}
		var dur time.Duration
		switch err = d.quiesce(); {
		case err != nil:
		case traced:
			dur, err = ingestClosed(env, tr, d.ingestAddr, order)
			tracedWall = dur
		default:
			dur, err = ingestClosed(env, nil, d.ingestAddr, order)
		}
		var n int
		if err == nil {
			n, err = verifyDrained(env, d, ref)
		}
		if err != nil {
			d.kill()
			return nil, err
		}
		if _, err := d.stop(); err != nil {
			return nil, err
		}
		rates[i] = float64(n) / dur.Seconds()
	}

	// Serve against the daemon: idle round trips, then the HTTP phase
	// under paced ingest with /metrics scrapes riding the connection.
	if err := traceServe(env, tr, ref, qs, put); err != nil {
		return nil, err
	}

	// Batch, in process, then atomize once for the residual.
	bref, err := buildBatchRef(cfg, w, tr)
	if err != nil {
		return nil, err
	}
	if cfg.wrongRef {
		bref.perturb()
	}
	freeMemory()
	wall, out, err := runAtomize(env)
	if err != nil {
		return nil, err
	}
	checkAtomize(env, out, bref)

	// Ingest layers.
	client, parse := tr.layer("atomd.client"), tr.layer("atomd.frame_parse")
	walk, bgpl, intern := tr.layer("mrt.walk"), tr.layer("bgp.parse"), tr.layer("aspath.intern")
	dec, mapl := tr.layer("bgpstream.decode"), tr.layer("replay.map")
	apply, pub := tr.layer("core.apply"), tr.layer("core.publish")
	decSelf := dec.total - walk.total - bgpl.total - intern.total
	put("atomd.client_ns_per_record", "ns", perUnit(client, client.self, time.Nanosecond))
	put("atomd.frame_parse_ns_per_record", "ns", perUnit(parse, parse.self, time.Nanosecond))
	put("atomd.acks_per_record", "ratio", float64(ing.acks)/float64(max(1, ing.records)))
	put("mrt.ns_per_record", "ns", perUnit(walk, walk.self, time.Nanosecond))
	put("bgp.parse_ns_per_update", "ns", perUnit(bgpl, bgpl.self, time.Nanosecond))
	put("aspath.intern_ns_per_path", "ns", perUnit(intern, intern.self, time.Nanosecond))
	put("aspath.intern_hit_ratio", "ratio", float64(ing.hits)/float64(max(1, intern.count)))
	put("bgpstream.decode_ns_per_elem", "ns", perUnit(dec, decSelf, time.Nanosecond))
	put("bgpstream.allocs_per_elem", "count", float64(ing.decodeAllocs)/float64(max(1, dec.count)))
	put("replay.map_ns_per_elem", "ns", perUnit(mapl, mapl.self, time.Nanosecond))
	put("replay.mapped_ratio", "ratio", float64(ing.mapped)/float64(max(1, mapl.count)))
	put("replay.skipped_prefix", "count", float64(ing.skipped[replay.SkipPrefix]))
	put("replay.skipped_vp", "count", float64(ing.skipped[replay.SkipVP]))
	put("core.apply_ns_per_update", "ns", perUnit(apply, apply.self, time.Nanosecond))
	put("core.noop_ratio", "ratio", float64(ing.noops)/float64(max(1, apply.count)))
	put("core.atoms_created", "count", float64(ing.created))
	put("core.atoms_retired", "count", float64(ing.retired))
	put("core.publish_us_per_epoch", "us", perUnit(pub, pub.self, time.Microsecond))
	put("core.publish_kb_per_epoch", "KB", float64(ing.publishBytes)/1024/float64(max(1, pub.count)))
	put("core.epochs", "count", float64(pub.count))
	selfSum := client.self + parse.self + walk.self + bgpl.self + intern.self + decSelf + mapl.self + apply.self + pub.self
	put("atomd.traced_ingest_s", "s", tracedWall.Seconds())
	put("atomd.layers_self_s", "s", selfSum.Seconds())
	put("atomd.residual_share", "ratio", 1-selfSum.Seconds()/tracedWall.Seconds())
	put("bench.tracing_overhead", "ratio", (rates[0]-rates[1])/rates[0])

	// Batch layers.
	ribDec, clean := tr.layer("bgpstream.rib_decode"), tr.layer("sanitize.clean")
	scan, compute := tr.layer("bgpstream.update_scan"), tr.layer("core.compute_atoms")
	form, corr := tr.layer("metrics.formation"), tr.layer("metrics.updatecorr")
	run, mat := tr.layer("replay.run"), tr.layer("core.materialize")
	put("bgpstream.rib_decode_s", "s", ribDec.self.Seconds())
	put("sanitize.clean_s", "s", (clean.self - ribDec.self).Seconds())
	put("sanitize.alloc_mb", "MB", float64(clean.count)/1e6)
	put("core.compute_atoms_ms", "ms", float64(compute.self)/1e6/float64(max(1, compute.spans)))
	put("core.materialize_ms", "ms", float64(mat.self)/1e6)
	put("metrics.formation_s", "s", form.self.Seconds())
	put("metrics.updatecorr_s", "s", corr.self.Seconds())
	put("replay.run_s", "s", run.self.Seconds())
	batchSelf := scan.self + clean.self + compute.self + form.self + run.self + mat.self
	put("bench.batch_residual_share", "ratio", 1-batchSelf.Seconds()/wall)

	printBreakdown(env.out, "ingest", tracedWall, []named{
		{"atomd.client", client.self}, {"atomd.frame_parse", parse.self}, {"mrt.walk", walk.self},
		{"bgp.parse", bgpl.self}, {"aspath.intern", intern.self}, {"bgpstream.decode (self)", decSelf},
		{"replay.map", mapl.self}, {"core.apply", apply.self}, {"core.publish", pub.self},
	})
	printBreakdown(env.out, "batch", time.Duration(wall*float64(time.Second)), []named{
		{"bgpstream.update_scan", scan.self}, {"bgpstream.rib_decode", ribDec.self},
		{"sanitize.clean (self)", clean.self - ribDec.self}, {"core.compute_atoms", compute.self},
		{"metrics.formation", form.self}, {"replay.run", run.self}, {"core.materialize", mat.self},
	})
	path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(env.out, "spans: %d written to %s\n", len(tr.spans), path)
	return m, nil
}

type named struct {
	name string
	d    time.Duration
}

// printBreakdown shows how the layers' self times and the residue add
// up to a path's wall time.
func printBreakdown(out io.Writer, path string, wall time.Duration, parts []named) {
	fmt.Fprintf(out, "%s path, wall %.3fs:\n", path, wall.Seconds())
	sum := time.Duration(0)
	for _, p := range parts {
		sum += p.d
		fmt.Fprintf(out, "  %-26s %9.3fs %6.1f%%\n", p.name, p.d.Seconds(), 100*p.d.Seconds()/wall.Seconds())
	}
	fmt.Fprintf(out, "  %-26s %9.3fs %6.1f%%\n", "residue", (wall - sum).Seconds(), 100*(wall-sum).Seconds()/wall.Seconds())
}

// ingestCounts is what the in-process ingest path counted.
type ingestCounts struct {
	records, acks    int64
	hits             int64
	decodeAllocs     uint64
	mapped           int64
	skipped          [8]int64
	noops            int64
	created, retired int64
	publishBytes     int64
}

// traceIngestPath pushes each collector's window through the daemon's
// layers in order, in process: client framing, frame parsing, then the
// decode (with MRT walk, BGP parse and interning also timed alone over
// the same bytes), mapping, and apply-then-publish in the daemon's
// flush batches. It returns the snapshot after the window.
func traceIngestPath(env *runEnv, tr *tracer, order []string) (*core.Snapshot, *ingestCounts, error) {
	cfg, w := env.cfg, env.w
	snap, err := daemonSnapshot(cfg, w)
	if err != nil {
		return nil, nil, err
	}
	ix := core.NewAtomIndex(snap)
	mapper := replay.NewMapper(snap)
	c := &ingestCounts{}
	root := tr.begin(0, "ingest_path")
	defer tr.end(root, 0)
	var (
		remap  []int32
		deltas []delta
		allocs = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	)
	flush := func(parent int) {
		if len(deltas) == 0 {
			return
		}
		sp := tr.begin(parent, "core.apply")
		for _, d := range deltas {
			del := ix.ApplyUpdate(int(d.p), int(d.v), d.id)
			c.noops += b2i(del.NoOp)
			c.created += b2i(del.Created)
			c.retired += b2i(del.Retired)
		}
		tr.end(sp, int64(len(deltas)))
		sp = tr.begin(parent, "core.publish")
		var part *core.Partition
		part, remap = ix.Partition(remap)
		tr.end(sp, 1)
		c.publishBytes += int64(4 * (len(part.ByPrefix) + len(part.Counts)))
		deltas = deltas[:0]
	}
	for _, name := range order {
		data := w.updData[name]
		cs := tr.begin(root, "collector")
		payload, err := traceWire(tr, cs, data, c)
		if err != nil {
			return nil, nil, err
		}
		if err := traceDecodeParts(tr, cs, payload, snap.Paths, c); err != nil {
			return nil, nil, err
		}
		st := bgpstream.NewStream(nil, bgpstream.Source{Collector: name, R: bytes.NewReader(payload)})
		st.SetWorkers(1)
		st.SetIntern(snap.Paths)
		for {
			metrics.Read(allocs)
			before := allocs[0].Value.Uint64()
			sp := tr.begin(cs, "bgpstream.decode")
			batch, err := st.NextBatch()
			if err == io.EOF {
				tr.end(sp, 0)
				break
			}
			if err != nil {
				return nil, nil, err
			}
			tr.end(sp, int64(len(batch)))
			metrics.Read(allocs)
			c.decodeAllocs += allocs[0].Value.Uint64() - before
			sp = tr.begin(cs, "replay.map")
			for i := range batch {
				p, v, id, reason := mapper.Map(&batch[i])
				if reason != replay.SkipNone {
					c.skipped[reason]++
					continue
				}
				deltas = append(deltas, delta{p: int32(p), v: int32(v), id: id})
			}
			tr.end(sp, int64(len(batch)))
			if len(deltas) >= 256 {
				flush(cs)
			}
		}
		flush(cs)
		tr.end(cs, int64(len(data)))
	}
	c.mapped = tr.layer("core.apply").count
	return snap, c, nil
}

// delta is one mapped update, as the daemon batches them.
type delta struct {
	p, v int32
	id   aspath.ID
}

// traceWire frames the window record by record as atomd.Client does
// and parses the frames back as the session does, in spans of 256
// records. It returns the reassembled payload.
func traceWire(tr *tracer, parent int, data []byte, c *ingestCounts) ([]byte, error) {
	framed := make([]byte, 0, 256*4096)
	payload := make([]byte, 0, len(data))
	var fp atomd.FrameParser
	off := 0
	c.acks += 2 // hello and EOF are answered too
	for off < len(data) {
		sp := tr.begin(parent, "atomd.client")
		framed = framed[:0]
		k := 0
		for ; k < 256 && off < len(data); k++ {
			n := recordLen(data[off:])
			framed = atomd.AppendFrame(framed, atomd.FrameData, uint64(off), data[off:off+n])
			off += n
		}
		tr.end(sp, int64(k))
		sp = tr.begin(parent, "atomd.frame_parse")
		fp.Feed(framed)
		frames := 0
		for {
			fr, ok, err := fp.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			payload = append(payload, fr.Payload...)
			frames++
		}
		tr.end(sp, int64(k))
		c.records += int64(k)
		c.acks += int64(frames)
	}
	if !bytes.Equal(payload, data) {
		return nil, fmt.Errorf("trace: reassembled payload differs from the archive")
	}
	return payload, nil
}

// recordLen is the client's frame payload choice: one whole MRT record
// when the bytes parse as one, a 4 KiB raw chunk otherwise.
func recordLen(b []byte) int {
	if len(b) >= 12 && mrt.PlausibleHeader(b[:12]) {
		if n := 12 + int(binary.BigEndian.Uint32(b[8:12])); n <= len(b) {
			return n
		}
	}
	return min(len(b), 4096)
}

// traceDecodeParts times, alone and over the same bytes, the three
// layers bgpstream's decode runs inside: the MRT record walk, BGP4MP +
// UPDATE parsing, and AS-path flatten + intern (once per announced
// prefix, as the stream interns per element). bgpstream's self time is
// its decode time minus these.
func traceDecodeParts(tr *tracer, parent int, payload []byte, tbl *aspath.Table, c *ingestCounts) error {
	type rec struct {
		typ, sub uint16
		body     []byte
	}
	var recs []rec
	r := mrt.NewBytesReader(payload)
	for done := false; !done; {
		sp := tr.begin(parent, "mrt.walk")
		k := 0
		for ; k < 256; k++ {
			x, err := r.Next()
			if err == io.EOF {
				done = true
				break
			}
			if err != nil {
				return fmt.Errorf("trace: MRT walk: %w", err)
			}
			recs = append(recs, rec{x.Type, x.Subtype, x.Body})
		}
		tr.end(sp, int64(k))
	}
	type ann struct {
		path aspath.Path
		n    int
	}
	var anns []ann
	var (
		msg   mrt.Message
		upd   bgp.Update
		cache = bgp.NewAttrCache()
	)
	for i := 0; i < len(recs); i += 256 {
		sp := tr.begin(parent, "bgp.parse")
		updates := 0
		for _, x := range recs[i:min(i+256, len(recs))] {
			if x.typ != mrt.TypeBGP4MP && x.typ != mrt.TypeBGP4MPET {
				continue
			}
			switch x.sub {
			case mrt.SubMessage, mrt.SubMessageAS4, mrt.SubMessageAP, mrt.SubMessageAS4AP:
			default:
				continue
			}
			if mrt.ParseMessageInto(&msg, x.sub, x.body) != nil {
				continue
			}
			if h, err := bgp.ParseHeader(msg.Data); err != nil || h.Type != bgp.MsgUpdate {
				continue
			}
			if bgp.ParseUpdateInto(&upd, msg.Data, bgp.Options{AS4: msg.AS4, AddPath: msg.AddPath, Cache: cache}) != nil {
				continue
			}
			updates++
			n := len(upd.Announced)
			if mp, ok := upd.Attr(bgp.AttrTypeMPReach).(bgp.MPReach); ok && mp.SAFI == bgp.SAFIUnicast {
				n += len(mp.NLRI)
			}
			if path, ok := upd.ASPathAttr(); ok && n > 0 {
				anns = append(anns, ann{path, n})
			}
		}
		tr.end(sp, int64(updates))
	}
	var seq aspath.Seq
	for i := 0; i < len(anns); i += 256 {
		sp := tr.begin(parent, "aspath.intern")
		paths := int64(0)
		for _, a := range anns[i:min(i+256, len(anns))] {
			for j := 0; j < a.n; j++ {
				s, err := a.path.AppendSequence(seq[:0])
				if err != nil {
					break
				}
				seq = s
				before := tbl.Len()
				tbl.Intern(seq)
				if tbl.Len() == before {
					c.hits++
				}
				paths++
			}
		}
		tr.end(sp, paths)
	}
	return nil
}

// traceLookups times the in-process halves of a query: the published
// view's lookups and the prefix → row map.
func traceLookups(tr *tracer, snap *core.Snapshot, qs []query) error {
	srv, err := atomd.NewServer(atomd.Config{Snapshot: snap})
	if err != nil {
		return err
	}
	defer srv.Shutdown()
	mapper := replay.NewMapper(snap)
	root := tr.begin(0, "serve_path")
	defer tr.end(root, 0)
	sink := 0
	for i := 0; i < len(qs); i += 4096 {
		part := qs[i:min(i+4096, len(qs))]
		sp := tr.begin(root, "atomd.view_lookup")
		for _, q := range part {
			switch q.kind {
			case qPrefix:
				if q.row >= 0 {
					sink += int(srv.PrefixAtom(q.row)) + srv.MemberCount(q.row)
				}
			case qSame:
				sink += int(b2i(srv.SameAtom(q.row, q.q)))
			default:
				sink += srv.MemberCount(q.row)
			}
		}
		tr.end(sp, int64(len(part)))
		sp = tr.begin(root, "replay.prefixrow")
		n := 0
		for _, q := range part {
			if q.kind == qPrefix {
				r, _ := mapper.PrefixRow(q.pfx)
				sink += r
				n++
			}
		}
		tr.end(sp, int64(n))
	}
	_ = sink
	return nil
}

// traceServe measures the serve layers against a sampling daemon: idle
// closed-loop round trips on both transports, then one HTTP phase under
// paced ingest with /metrics scraped on the same connection for the
// apply queue and the daemon's GC.
func traceServe(env *runEnv, tr *tracer, ref *daemonRef, qs []query, put func(string, string, float64)) error {
	look, row := tr.layer("atomd.view_lookup"), tr.layer("replay.prefixrow")
	put("atomd.view_lookup_ns", "ns", perUnit(look, look.self, time.Nanosecond))
	put("replay.prefixrow_ns", "ns", perUnit(row, row.self, time.Nanosecond))

	d, err := startDaemon(env, "-sample", "100ms")
	if err != nil {
		return err
	}
	fail := func(err error) error {
		d.kill()
		return err
	}
	if err := d.quiesce(); err != nil {
		return fail(err)
	}
	rows := len(ref.prefixes)
	for _, t := range []string{"bin", "http"} {
		p, conn, err := dialProto(env, d, t)
		if err != nil {
			return fail(err)
		}
		rtt, failed := closedLoop(p, conn, qs, 2000, rows)
		env.harness.hangup(conn)
		env.led.op(2000, int64(failed), t+" idle round trips failed")
		put("atomd.query_"+t+"_rtt_idle_us", "us", median(rtt))
	}
	ss, _, err := serveLoad(env, d, ref, qs, 100*time.Millisecond)
	if err == nil {
		_, err = verifyDrained(env, d, ref)
	}
	if err != nil {
		return fail(err)
	}
	if _, err := d.stop(); err != nil {
		return err
	}
	depth, heap := 0.0, 0.0
	bin, st := ss.bin, ss.web
	for _, s := range st.scrapes {
		depth = max(depth, s["atom_atomd_ingest_lag_batches"])
		heap = max(heap, s["atom_runtime_heap_objects_bytes"])
	}
	gc, pause := 0.0, 0.0
	if n := len(st.scrapes); n > 0 {
		gc = st.scrapes[n-1]["atom_runtime_gc_cycles_total"] - st.scrapes[0]["atom_runtime_gc_cycles_total"]
		pause = st.scrapes[n-1]["atom_runtime_gc_pause_p99_ns"] / 1e3
	}
	put("atomd.apply_queue_depth_max", "count", depth)
	put("atomd.gc_cycles", "count", gc)
	put("atomd.gc_pause_p99_us", "us", pause)
	put("atomd.heap_live_mb", "MB", heap/1e6)
	put("serve.query_bin_p50_us", "us", quantile(bin.lat, 0.5))
	put("serve.query_bin_p99_us", "us", quantile(bin.lat, 0.99))
	put("serve.query_http_p50_us", "us", quantile(st.lat, 0.5))
	put("serve.query_http_p99_us", "us", quantile(st.lat, 0.99))
	late := append(bin.late[:bin.sent:bin.sent], st.late[:st.sent]...)
	put("bench.gen_late_p99_us", "us", quantile(late, 0.99))
	put("bench.achieved_qps", "1/s", float64(bin.sent+st.sent)/(bin.sendSpan+st.sendSpan).Seconds())
	return nil
}

// heapAllocBytes is the cumulative bytes allocated on the heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
