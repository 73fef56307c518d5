package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/aspath"
	"repro/internal/atomd"
	"repro/internal/bgpstream"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/replay"
	"repro/internal/sanitize"
	"repro/internal/textplot"
)

// daemonRef is what atomd must serve once the whole update window has
// been drained: sanitize.Clean → replay.Run → Materialize over the same
// bytes, in process.
type daemonRef struct {
	text     []byte               // RenderAtoms after the window
	prefixes []netip.Prefix       // serving universe, by row
	rows     map[netip.Prefix]int // prefix → row
	byPrefix []int                // row → canonical atom after the window
	counts   []int                // row → atom size after the window
	stats    replay.Stats
	vps      int
}

// buildDaemonRef computes the reference the way atomd bootstraps (no
// update warnings feed sanitize) and the way replay applies.
func buildDaemonRef(cfg *config, w *world) (*daemonRef, error) {
	snap, err := daemonSnapshot(cfg, w)
	if err != nil {
		return nil, err
	}
	ref := &daemonRef{prefixes: append([]netip.Prefix(nil), snap.Prefixes...), vps: len(snap.VPs)}
	ref.index()
	mapper := replay.NewMapper(snap)
	for i, p := range ref.prefixes {
		if row, ok := mapper.PrefixRow(p); !ok || row != i {
			return nil, fmt.Errorf("reference: prefix %s does not map to its own row %d", p, i)
		}
	}
	ix := core.NewAtomIndex(snap)
	ref.stats, err = replay.Run(ix, w.upds, replay.Options{Workers: cfg.workers})
	if err != nil {
		return nil, fmt.Errorf("reference: replay: %w", err)
	}
	as := ix.Materialize(cfg.workers)
	ref.text = atomd.RenderAtoms(as)
	ref.byPrefix = as.ByPrefix
	ref.counts = make([]int, len(as.ByPrefix))
	for i, a := range as.ByPrefix {
		ref.counts[i] = as.Atoms[a].Size()
	}
	return ref, nil
}

// index fills the prefix → row map.
func (r *daemonRef) index() {
	r.rows = make(map[netip.Prefix]int, len(r.prefixes))
	for i, p := range r.prefixes {
		r.rows[p] = i
	}
}

// perturb makes the reference wrong in every part a check reads
// (--wrong-reference).
func (r *daemonRef) perturb() {
	r.text = append([]byte("wrong "), r.text...)
	for i := range r.byPrefix {
		r.byPrefix[i]++
	}
	r.stats.Updates++
}

// daemonSnapshot is atomd's bootstrap: sanitize over the RIB archives
// alone.
func daemonSnapshot(cfg *config, w *world) (*core.Snapshot, error) {
	opts := sanitize.Defaults()
	opts.Family = 4
	opts.Workers = cfg.workers
	snap, _, err := sanitize.Clean(w.ribs, nil, opts)
	if err != nil {
		return nil, fmt.Errorf("reference: sanitize: %w", err)
	}
	return snap, nil
}

// batchRef is what `atomize -updates -formation -replay -replay-verify`
// must print, computed in process with the same public calls.
type batchRef struct {
	lines []string // expected table rows, whitespace-normalized
}

// perturb makes one expected row wrong (--wrong-reference).
func (r *batchRef) perturb() { r.lines[0] = "wrong " + r.lines[0] }

// buildBatchRef mirrors cmd/atomize step by step. With a tracer it
// also records each step as a span of the batch path, and decodes the
// RIB archives once on their own so sanitize's self time can exclude
// the decode.
func buildBatchRef(cfg *config, w *world, tr *tracer) (*batchRef, error) {
	root := tr.begin(0, "batch_path")
	defer tr.end(root, 0)

	sp := tr.begin(root, "bgpstream.update_scan")
	us := bgpstream.NewStream(nil, w.upds...)
	us.SetWorkers(cfg.workers)
	elems, err := us.All()
	if err != nil {
		return nil, fmt.Errorf("batch reference: update scan: %w", err)
	}
	tr.end(sp, int64(len(elems)))
	elems = nil

	if tr != nil {
		sp = tr.begin(root, "bgpstream.rib_decode")
		rs := bgpstream.NewStream(nil, w.ribs...)
		rs.SetWorkers(cfg.workers)
		rs.SetIntern(aspath.NewTable())
		n := 0
		for {
			b, err := rs.NextBatch()
			if err != nil {
				break
			}
			n += len(b)
		}
		tr.end(sp, int64(n))
	}

	opts := sanitize.Defaults()
	opts.Family = 4
	opts.Workers = cfg.workers
	opts.SessionFlaps = us.StateFlaps()
	if q := us.Quarantined(); len(q) > 0 {
		opts.QuarantinedCollectors = map[string]bool{}
		for _, name := range q {
			opts.QuarantinedCollectors[name] = true
		}
	}
	sp = tr.begin(root, "sanitize.clean")
	alloc := heapAllocBytes()
	snap, rep, err := sanitize.Clean(w.ribs, us.Warnings(), opts)
	if err != nil {
		return nil, fmt.Errorf("batch reference: sanitize: %w", err)
	}
	tr.end(sp, int64(heapAllocBytes()-alloc))

	sp = tr.begin(root, "core.compute_atoms")
	atoms := core.ComputeAtomsWorkers(snap, cfg.workers)
	tr.end(sp, int64(len(atoms.Atoms)))
	st := atoms.Stats()
	pct := func(n, d int) float64 { return 100 * float64(n) / float64(max(1, d)) }
	var lines []string
	add := func(cells ...string) { lines = append(lines, normalize(strings.Join(cells, " "))) }
	add("Vantage points", fmt.Sprint(len(snap.VPs)))
	add("Full feeds", fmt.Sprint(rep.FullFeeds))
	add("Prefixes admitted", fmt.Sprintf("%d (of %d seen)", rep.PrefixesAdmitted, rep.PrefixesSeen))
	add("Prefixes", fmt.Sprint(st.Prefixes))
	add("ASes", fmt.Sprint(st.ASes))
	add("Atoms", fmt.Sprint(st.Atoms))
	add("Single-atom ASes", fmt.Sprintf("%d (%.1f%%)", st.SingleAtomASes, pct(st.SingleAtomASes, st.ASes)))
	add("Single-prefix atoms", fmt.Sprintf("%d (%.1f%%)", st.SinglePrefixAtoms, pct(st.SinglePrefixAtoms, st.Atoms)))
	add("Mean atom size", fmt.Sprintf("%.2f", st.MeanAtomSize))
	add("99th pct atom size", fmt.Sprint(st.P99AtomSize))
	add("Largest atom", fmt.Sprint(st.LargestAtom))
	add("MOAS prefixes", fmt.Sprintf("%d (%.2f%%)", st.MOASPrefixes, pct(st.MOASPrefixes, st.Prefixes)))

	sp = tr.begin(root, "metrics.formation")
	form := metrics.FormationDistances(atoms, metrics.DefaultFormationOptions())
	tr.end(sp, int64(form.TotalAtoms))
	for d := 1; d < len(form.AtomsAtDistance); d++ {
		if n := form.AtomsAtDistance[d]; n > 0 {
			add(fmt.Sprint(d), fmt.Sprint(n), textplot.Percent(float64(n)/float64(max(1, form.TotalAtoms))))
		}
	}

	if tr != nil {
		// Update correlation is the metrics package's other update-driven
		// analysis; atomize does not run it, so it stays out of the batch
		// residual.
		sp = tr.begin(root, "metrics.updatecorr")
		records, _, err := metrics.CollectRecordsObs(w.upds, nil, cfg.workers, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("batch trace: update records: %w", err)
		}
		metrics.CorrelateUpdates(atoms, records, 7)
		tr.end(sp, int64(len(records)))
	}

	ix := core.NewAtomIndex(snap)
	sp = tr.begin(root, "replay.run")
	rst, err := replay.Run(ix, w.upds, replay.Options{Workers: cfg.workers})
	if err != nil {
		return nil, fmt.Errorf("batch reference: replay: %w", err)
	}
	tr.end(sp, int64(rst.Updates))
	add("Elements", fmt.Sprint(rst.Elems))
	add("Deltas applied", fmt.Sprint(rst.Applied))
	add("Duplicate no-ops", fmt.Sprint(rst.NoOps))
	add("Atoms created", fmt.Sprint(rst.Created))
	add("Atoms retired", fmt.Sprint(rst.Retired))
	add("Skipped (prefix not admitted)", fmt.Sprint(rst.SkippedPrefix))
	add("Skipped (peer not a VP)", fmt.Sprint(rst.SkippedVP))
	add("Atoms before replay", fmt.Sprint(st.Atoms))
	add("Atoms after replay", fmt.Sprint(ix.AtomCount()))

	sp = tr.begin(root, "core.materialize")
	inc := ix.Materialize(cfg.workers)
	tr.end(sp, int64(len(inc.Atoms)))
	sp = tr.begin(root, "core.compute_atoms")
	bat := core.ComputeAtomsWorkers(snap, cfg.workers)
	tr.end(sp, int64(len(bat.Atoms)))
	if !bytes.Equal(atomd.RenderAtoms(inc), atomd.RenderAtoms(bat)) {
		return nil, fmt.Errorf("batch reference: incremental and batch atoms differ")
	}
	add("Replay verify: incremental == batch on the final snapshot")
	return &batchRef{lines: lines}, nil
}

// cachedRefs is both references as the cache stores them.
type cachedRefs struct {
	Text     []byte
	Prefixes []netip.Prefix
	ByPrefix []int
	Counts   []int
	Stats    replay.Stats
	VPs      int
	Lines    []string
}

// loadRefs returns the references an untraced run checks against,
// computing them only when the cache does not hold them yet: they take
// seconds to build and depend only on the world and the library code.
// The cache key is the world plus a hash of this binary, which
// compiles in that code. --wrong-reference perturbs what was loaded,
// never what is stored.
func loadRefs(env *runEnv) (*daemonRef, *batchRef, error) {
	cfg := env.cfg
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return nil, nil, err
	}
	sum := sha256.Sum256(bin)
	path := filepath.Join(env.w.dir, fmt.Sprintf("refs-%x.gob", sum[:8]))
	var c cachedRefs
	if f, err := os.Open(path); err == nil {
		err = gob.NewDecoder(f).Decode(&c)
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("reference cache %s: %w", path, err)
		}
	} else {
		d, err := buildDaemonRef(cfg, env.w)
		if err != nil {
			return nil, nil, err
		}
		b, err := buildBatchRef(cfg, env.w, nil)
		if err != nil {
			return nil, nil, err
		}
		c = cachedRefs{d.text, d.prefixes, d.byPrefix, d.counts, d.stats, d.vps, b.lines}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&c); err != nil {
			return nil, nil, err
		}
		if err := os.WriteFile(path+".tmp", buf.Bytes(), 0o644); err != nil {
			return nil, nil, err
		}
		if err := os.Rename(path+".tmp", path); err != nil {
			return nil, nil, err
		}
	}
	d := &daemonRef{text: c.Text, prefixes: c.Prefixes, byPrefix: c.ByPrefix, counts: c.Counts, stats: c.Stats, vps: c.VPs}
	d.index()
	b := &batchRef{lines: c.Lines}
	if cfg.wrongRef {
		d.perturb()
		b.perturb()
	}
	return d, b, nil
}

// normalize collapses runs of whitespace, so table padding does not
// matter when output rows are compared.
func normalize(s string) string {
	return strings.Join(strings.Fields(s), " ")
}
