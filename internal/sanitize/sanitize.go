// Package sanitize implements the paper's data-cleaning methodology
// (§2.4, §A8.3): full-feed peer inference, abnormal-peer removal
// (ADD-PATH parse trouble, private-ASN insertion, excessive duplicates),
// AS-SET handling, prefix-length admission, and the two-threshold
// visibility filter (≥ MinCollectors collectors, ≥ MinPeerASes peer
// ASes). Its output is the core.Snapshot that atom computation consumes,
// plus a Report documenting everything that was removed and why.
package sanitize

import (
	"errors"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/aspath"
	"repro/internal/bgpstream"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/prefixset"
)

// Options tunes the pipeline. ZeroOptions (all zero values) is invalid;
// start from Defaults.
type Options struct {
	// FullFeedFraction: a feed is full if its unique prefix count
	// exceeds this fraction of the maximum across feeds (§2.4.2).
	FullFeedFraction float64
	// MinCollectors / MinPeerASes are the visibility thresholds
	// (§2.4.3; Table 7 sweeps them).
	MinCollectors int
	MinPeerASes   int
	// LengthFilter admits only prefixes ≤ /24 (v4) or ≤ /48 (v6).
	LengthFilter bool
	// MaxParseWarnings: a peer AS accumulating more update-stream parse
	// warnings than this is removed (ADD-PATH damage, §A8.3.1).
	MaxParseWarnings int
	// PrivateASNShare: a peer AS whose paths carry a private ASN for
	// more than this share of its prefixes is removed (§A8.3.2).
	PrivateASNShare float64
	// DuplicateShare: a peer AS sending more than this share of its
	// prefixes in duplicate is removed (§2.4.4).
	DuplicateShare float64
	// MaxSessionFlaps: a peer AS whose BGP sessions flapped more than
	// this many times across the update window is removed — a flapping
	// session's RIB rows are stale snapshots of an unstable view. The
	// counts come from SessionFlaps. 0 disables the filter.
	MaxSessionFlaps int
	// SessionFlaps carries per-peer-ASN state-change counts observed on
	// the update streams (bgpstream.Stream.StateFlaps).
	SessionFlaps map[uint32]int
	// QuarantinedCollectors names feeds excluded wholesale before any
	// other stage — sources whose degradation budget was blown
	// (bgpstream.Stream.Quarantined). Clean merges its own RIB-stream
	// quarantine into this set.
	QuarantinedCollectors map[string]bool
	// DegradationMinRecords / DegradationMaxSkipRatio configure the RIB
	// stream's per-source degradation budget inside Clean. Zero values
	// keep bgpstream's defaults; a negative DegradationMinRecords
	// disables quarantine.
	DegradationMinRecords   int
	DegradationMaxSkipRatio float64
	// KeepAllPrefixes reproduces Afek et al.'s 2002 methodology:
	// no visibility thresholds, no length filter.
	KeepAllPrefixes bool
	// Family restricts the snapshot to one address family: 0 = both,
	// 4 = IPv4 only, 6 = IPv6 only. Atoms are computed per family, and
	// full-feed inference runs within the family's own table sizes.
	Family int
	// Workers bounds the worker pool for the parallel pipeline stages
	// (per-source MRT decode fan-out, per-feed route filtering, snapshot
	// assembly): 0 = one worker per CPU, 1 = fully sequential. Output is
	// identical at any value.
	Workers int
	// Intern, when non-nil, is the AS-path intern table the pipeline
	// uses instead of building a fresh one. Sharing one table across the
	// snapshots of an era (longitudinal does this) means the second and
	// later snapshots intern almost entirely on the allocation-free hit
	// path. IDs are only meaningful within one table, so callers must
	// scope a shared table to consumers that never compare IDs across
	// unrelated snapshots — the repo-wide invariant since PR2 is that
	// outputs depend on ID equality only.
	Intern *aspath.Table

	// Span, when non-nil, receives child spans for each pipeline stage
	// (ingest, intern, abnormal peers, full-feed inference, admission,
	// assembly). Nil disables stage tracing at no cost.
	Span *obs.Span
	// Metrics, when non-nil, receives per-filter admit/reject counters,
	// per-VP drop causes, and the stream's decode counters.
	Metrics *obs.Registry
}

// Defaults returns the paper's parameters.
func Defaults() Options {
	return Options{
		FullFeedFraction: 0.9,
		MinCollectors:    2,
		MinPeerASes:      4,
		LengthFilter:     true,
		MaxParseWarnings: 5,
		PrivateASNShare:  0.05,
		DuplicateShare:   0.10,
		MaxSessionFlaps:  12,
	}
}

// Afek2002 returns the reproduction-mode options (§3.1: all prefixes,
// every peer assumed full-feed by construction).
func Afek2002() Options {
	o := Defaults()
	o.KeepAllPrefixes = true
	o.LengthFilter = false
	o.MinCollectors = 1
	o.MinPeerASes = 1
	return o
}

// RemovalReason explains why a peer AS was dropped.
type RemovalReason string

// Removal reasons.
const (
	RemovedAddPath    RemovalReason = "add-path parse errors"
	RemovedPrivateASN RemovalReason = "private ASN in paths"
	RemovedDuplicates RemovalReason = "excessive duplicate prefixes"
	RemovedFlapStorm  RemovalReason = "session flap storm"
)

// ErrAllFeedsRemoved is returned when sanitization removes or
// quarantines every feed that had any data: an empty snapshot would be
// indistinguishable from a healthy era with nothing to show, so the
// pipeline refuses to emit one.
var ErrAllFeedsRemoved = errors.New("sanitize: all feeds removed or quarantined")

// FeedStat describes one feed (collector, peer AS) before filtering.
type FeedStat struct {
	VP             core.VP
	UniquePrefixes int
	Duplicates     int
	PrivateASN     int
	ASSetDropped   int
	LoopDropped    int
	FullFeed       bool
}

// Report documents the pipeline's decisions.
type Report struct {
	Feeds []FeedStat
	// MaxPrefixCount is the per-feed maximum unique prefix count — the
	// basis of the full-feed threshold (Fig 12).
	MaxPrefixCount int
	// FullFeedThreshold = FullFeedFraction × MaxPrefixCount.
	FullFeedThreshold int
	// FullFeeds counts feeds above the threshold (Fig 13).
	FullFeeds int
	// RemovedPeerASes maps peer ASN → reason (Table 5).
	RemovedPeerASes map[uint32]RemovalReason
	// QuarantinedCollectors lists collectors (sorted) whose feeds were
	// excluded wholesale — the caller's quarantine set plus any source
	// Clean's own RIB stream quarantined. Their feeds appear nowhere
	// else in the report.
	QuarantinedCollectors []string
	// QuarantinedFeeds counts feeds dropped by the quarantine.
	QuarantinedFeeds int
	// Prefix funnel.
	PrefixesSeen       int // distinct prefixes in full-feed data
	PrefixesAdmitted   int // after length + visibility filters
	DroppedByLength    int
	DroppedByCollector int
	DroppedByPeerASes  int
	// MOAS accounting (prefixes with >1 origin among admitted).
	MOASPrefixes int
}

// Feed is one peer feed's routing table — the unit of the pipeline.
// Feeds come either from MRT archives (Clean) or directly from the
// simulator's in-memory routes (the longitudinal fast path).
type Feed struct {
	VP   core.VP
	Time uint32
	// Routes maps each prefix to its observed AS path.
	Routes map[netip.Prefix]aspath.Seq
	// Duplicates counts repeated route entries seen during ingestion.
	Duplicates int
	// ASSetDropped counts paths dropped for multi-member AS_SETs.
	ASSetDropped int
}

// prefixIndex assigns each distinct prefix a dense index, once. Every
// per-feed table in the pipeline is a column over these indices.
type prefixIndex struct {
	ids      map[netip.Prefix]int32
	prefixes []netip.Prefix // dense index → prefix
}

func (x *prefixIndex) id(pfx netip.Prefix) int32 {
	if i, ok := x.ids[pfx]; ok {
		return i
	}
	x.ids[pfx] = int32(len(x.prefixes))
	x.prefixes = append(x.prefixes, pfx)
	return int32(len(x.prefixes) - 1)
}

// column is one feed in the dense prefix × feed layout: routes[p] holds
// 1 + the interned path ID of dense prefix p, or 0 where the feed has no
// route, so an empty AS path (aspath.Empty) stays distinct from absence.
type column struct {
	stat   FeedStat
	time   uint32
	stored int // routes stored before the family and loop filters
	routes []aspath.ID
}

// grow extends routes with absent cells up to length n.
func grow(routes []aspath.ID, n int) []aspath.ID {
	if n > len(routes) {
		routes = append(routes, make([]aspath.ID, n-len(routes))...)
	}
	return routes
}

// vpLess is the deterministic VP order: collector, then peer AS.
func vpLess(a, b core.VP) bool {
	if a.Collector != b.Collector {
		return a.Collector < b.Collector
	}
	return a.ASN < b.ASN
}

// Clean runs the full pipeline over RIB sources, consulting update-
// stream warnings for abnormal-peer detection, and produces the
// sanitized snapshot. The returned Report explains every removal.
func Clean(sources []bgpstream.Source, updateWarnings []bgpstream.Warning, opts Options) (*core.Snapshot, *Report, error) {
	// Pass 1: ingest RIB elements per feed.
	sp := opts.Span.Child("sanitize.ingest")
	elems := 0
	feeds := map[core.VP]*column{}
	var list []*column
	ix := &prefixIndex{ids: map[netip.Prefix]int32{}}
	filter := &bgpstream.Filter{
		Types:  map[bgpstream.ElemType]bool{bgpstream.ElemRIB: true},
		V4Only: opts.Family == 4,
		V6Only: opts.Family == 6,
	}
	stream := bgpstream.NewStream(filter, sources...)
	stream.SetMetrics(opts.Metrics)
	stream.SetWorkers(opts.Workers)
	// The stream's decode workers flatten and intern every RIB path into
	// the pipeline's table, so ingest below stores IDs as they come — and
	// any snapshot sharing this table (opts.Intern) hits the table warm.
	table := opts.Intern
	if table == nil {
		table = aspath.NewTable()
	}
	stream.SetIntern(table)
	degradeMin, degradeMax := opts.DegradationMinRecords, opts.DegradationMaxSkipRatio
	if degradeMin == 0 {
		degradeMin = bgpstream.DefaultDegradeMinRecords
	}
	if degradeMax == 0 {
		degradeMax = bgpstream.DefaultDegradeMaxSkipRatio
	}
	stream.SetDegradation(degradeMin, degradeMax)
	for {
		batch, err := stream.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		elems += len(batch)
		for i := range batch {
			e := &batch[i]
			vp := core.VP{Collector: e.Collector, ASN: e.PeerASN}
			fd := feeds[vp]
			if fd == nil {
				fd = &column{stat: FeedStat{VP: vp}, time: e.Timestamp}
				feeds[vp] = fd
				list = append(list, fd)
			}
			pfx := prefixset.Canonical(e.Prefix)
			if !pfx.IsValid() {
				continue
			}
			p := ix.id(pfx)
			fd.routes = grow(fd.routes, int(p)+1)
			switch {
			case fd.routes[p] != 0:
				fd.stat.Duplicates++
			case e.PathUnusable:
				// Multi-AS-set or confederation: the path is unusable; the
				// prefix is treated as unseen at this feed (§2.4.4).
				fd.stat.ASSetDropped++
			default:
				fd.routes[p] = e.InternedPath + 1
				fd.stored++
			}
		}
	}
	for _, fd := range list {
		fd.routes = grow(fd.routes, len(ix.prefixes))
	}
	// Feeds appear in stream order; sort by VP so the report and the
	// snapshot time see a process-stable sequence.
	sort.Slice(list, func(i, j int) bool { return vpLess(list[i].stat.VP, list[j].stat.VP) })
	// Merge the RIB stream's own quarantine verdicts (degradation
	// budgets blown while reading these archives) into the caller's set
	// before the feed pipeline runs. Copy: opts is the caller's value.
	if q := stream.Quarantined(); len(q) > 0 {
		merged := make(map[string]bool, len(opts.QuarantinedCollectors)+len(q))
		for name, v := range opts.QuarantinedCollectors {
			merged[name] = v
		}
		for _, name := range q {
			merged[name] = true
		}
		opts.QuarantinedCollectors = merged
	}
	sp.SetAttr("sources", len(sources))
	sp.SetAttr("rib_elems", elems)
	sp.SetAttr("feeds", len(list))
	sp.SetAttr("decode_workers", parallel.Workers(opts.Workers))
	sp.SetAttr("decode_bytes", int(stream.DecodedBytes()))
	sp.End()
	opts.Intern = table
	sp = opts.Span.Child("sanitize.clean_feeds")
	defer sp.End()
	return clean(sp, ix.prefixes, list, updateWarnings, opts)
}

// CleanFeeds runs the pipeline over already-ingested feeds: it interns
// their routes into the same dense columns Clean builds, then runs the
// same core.
func CleanFeeds(list []*Feed, updateWarnings []bgpstream.Warning, opts Options) (*core.Snapshot, *Report, error) {
	sp := opts.Span.Child("sanitize.clean_feeds")
	defer sp.End()
	stage := sp.Child("intern")
	if opts.Intern == nil {
		opts.Intern = aspath.NewTable()
	}
	ix := &prefixIndex{ids: map[netip.Prefix]int32{}}
	for _, f := range list {
		for pfx := range f.Routes {
			ix.id(pfx)
		}
	}
	cols := make([]*column, len(list))
	parallel.ForEach(opts.Workers, len(list), func(i int) error {
		f := list[i]
		c := &column{stat: FeedStat{VP: f.VP, Duplicates: f.Duplicates, ASSetDropped: f.ASSetDropped},
			time: f.Time, stored: len(f.Routes), routes: make([]aspath.ID, len(ix.prefixes))}
		for pfx, seq := range f.Routes {
			c.routes[ix.ids[pfx]] = opts.Intern.Intern(seq) + 1
		}
		cols[i] = c
		return nil
	})
	stage.SetAttr("paths_interned", opts.Intern.Len())
	stage.End()
	return clean(sp, ix.prefixes, cols, updateWarnings, opts)
}

// Path classes, computed once per interned path.
const loopPath, privatePath uint8 = 1, 2

// clean is the pipeline core over dense columns: every column has one
// cell per entry of prefixes, and opts.Intern resolves the cells' IDs.
func clean(sp *obs.Span, prefixes []netip.Prefix, list []*column, updateWarnings []bgpstream.Warning, opts Options) (*core.Snapshot, *Report, error) {
	reg := opts.Metrics
	rep := &Report{RemovedPeerASes: map[uint32]RemovalReason{}}
	// Remember whether any input feed carried routes: the
	// all-feeds-removed gate below distinguishes "filters ate real data"
	// (an error) from "there was nothing to see" (a legal empty era).
	hadData := false
	for _, c := range list {
		hadData = hadData || c.stored > 0
	}
	// Quarantine: feeds from collectors whose sources blew their
	// degradation budget are excluded wholesale before any other stage —
	// the same mechanism as abnormal-peer removal, one level up. Their
	// stats appear nowhere else in the report.
	if len(opts.QuarantinedCollectors) > 0 {
		kept := make([]*column, 0, len(list))
		for _, c := range list {
			if opts.QuarantinedCollectors[c.stat.VP.Collector] {
				rep.QuarantinedFeeds++
				if reg != nil {
					reg.Counter("sanitize.vp_dropped", "vp", c.stat.VP.String(), "cause", "quarantined").Inc()
				}
				continue
			}
			kept = append(kept, c)
		}
		list = kept
		names := make([]string, 0, len(opts.QuarantinedCollectors))
		for name := range opts.QuarantinedCollectors {
			names = append(names, name)
		}
		sort.Strings(names)
		rep.QuarantinedCollectors = names
		if reg != nil {
			reg.Counter("sanitize.quarantined_feeds").Add(int64(rep.QuarantinedFeeds))
		}
	}
	table := opts.Intern

	stage := sp.Child("routes")
	var snapTime uint32
	for _, c := range list {
		if snapTime == 0 {
			snapTime = c.time
		}
	}
	// Loop and private-ASN checks run once per distinct path, not once
	// per route.
	flags := make([]uint8, table.Len())
	parallel.Chunks(opts.Workers, len(flags), func(lo, hi int) error {
		for id := lo; id < hi; id++ {
			if seq := table.Seq(aspath.ID(id)); seq.HasLoop() {
				flags[id] = loopPath
			} else if len(seq) > 1 && seq[1:].HasPrivateASN() {
				flags[id] = privatePath
			}
		}
		return nil
	})
	// Each worker owns whole columns: it drops the routes outside the
	// requested family and the loops, and tallies what stays.
	parallel.ForEach(opts.Workers, len(list), func(i int) error {
		c := list[i]
		for p, r := range c.routes {
			if r == 0 {
				continue
			}
			if (opts.Family == 4 && !prefixes[p].Addr().Is4()) || (opts.Family == 6 && prefixes[p].Addr().Is4()) {
				c.routes[p] = 0
				continue
			}
			switch flags[r-1] {
			case loopPath:
				c.stat.LoopDropped++
				c.routes[p] = 0
				continue
			case privatePath:
				c.stat.PrivateASN++
			}
			c.stat.UniquePrefixes++
		}
		return nil
	})
	if reg != nil {
		reg.Counter("sanitize.feeds").Add(int64(len(list)))
		var loops, dups, assets int64
		for _, c := range list {
			loops += int64(c.stat.LoopDropped)
			dups += int64(c.stat.Duplicates)
			assets += int64(c.stat.ASSetDropped)
		}
		reg.Counter("sanitize.routes_dropped", "cause", "loop").Add(loops)
		reg.Counter("sanitize.routes_dropped", "cause", "duplicate").Add(dups)
		reg.Counter("sanitize.routes_dropped", "cause", "as-set").Add(assets)
	}
	stage.SetAttr("feeds", len(list))
	stage.SetAttr("paths", table.Len())
	stage.End()
	stage = sp.Child("abnormal_peers")

	// Abnormal peers from update-stream warnings.
	warnByPeer := map[uint32]int{}
	for _, w := range updateWarnings {
		if w.PeerASN != 0 {
			warnByPeer[w.PeerASN]++
		}
	}
	for asn, n := range warnByPeer {
		if n > opts.MaxParseWarnings {
			rep.RemovedPeerASes[asn] = RemovedAddPath
		}
	}

	// Session flap storms: a peer whose sessions bounced more than
	// MaxSessionFlaps times across the update window holds a RIB that is
	// a stale snapshot of an unstable view; remove the peer AS exactly
	// like the other abnormal-peer classes.
	if opts.MaxSessionFlaps > 0 {
		for asn, n := range opts.SessionFlaps {
			if n > opts.MaxSessionFlaps {
				rep.RemovedPeerASes[asn] = RemovedFlapStorm
			}
		}
	}

	// Abnormal peers from feed-level shares. Removal is by peer AS
	// (every feed of that AS goes), matching the paper.
	for _, c := range list {
		n := c.stat.UniquePrefixes
		if n == 0 {
			continue
		}
		if float64(c.stat.PrivateASN)/float64(n) > opts.PrivateASNShare {
			rep.RemovedPeerASes[c.stat.VP.ASN] = RemovedPrivateASN
		}
		if float64(c.stat.Duplicates)/float64(n+c.stat.Duplicates) > opts.DuplicateShare {
			rep.RemovedPeerASes[c.stat.VP.ASN] = RemovedDuplicates
		}
	}
	if reg != nil {
		for _, reason := range rep.RemovedPeerASes {
			reg.Counter("sanitize.removed_peer_ases", "reason", string(reason)).Inc()
		}
	}
	stage.SetAttr("removed_peer_ases", len(rep.RemovedPeerASes))
	stage.End()
	stage = sp.Child("full_feed")

	// Full-feed inference over surviving feeds.
	max := 0
	for _, c := range list {
		if _, gone := rep.RemovedPeerASes[c.stat.VP.ASN]; !gone && c.stat.UniquePrefixes > max {
			max = c.stat.UniquePrefixes
		}
	}
	rep.MaxPrefixCount = max
	rep.FullFeedThreshold = int(opts.FullFeedFraction * float64(max))

	var vpFeeds []*column
	for _, c := range list {
		n := c.stat.UniquePrefixes
		if _, gone := rep.RemovedPeerASes[c.stat.VP.ASN]; gone {
			if reg != nil {
				reg.Counter("sanitize.vp_dropped", "vp", c.stat.VP.String(), "cause", "abnormal-peer").Inc()
			}
			continue
		}
		if n > rep.FullFeedThreshold || (opts.KeepAllPrefixes && n > 0) {
			c.stat.FullFeed = n > rep.FullFeedThreshold
			if c.stat.FullFeed {
				rep.FullFeeds++
			}
			vpFeeds = append(vpFeeds, c)
		} else if reg != nil {
			reg.Counter("sanitize.vp_dropped", "vp", c.stat.VP.String(), "cause", "below-threshold").Inc()
		}
	}
	if reg != nil {
		reg.Counter("sanitize.vps_admitted").Add(int64(len(vpFeeds)))
	}
	// Deterministic VP order.
	sort.Slice(vpFeeds, func(i, j int) bool { return vpLess(vpFeeds[i].stat.VP, vpFeeds[j].stat.VP) })
	vps := make([]core.VP, len(vpFeeds))
	for i, c := range vpFeeds {
		vps[i] = c.stat.VP
	}
	for _, c := range list {
		rep.Feeds = append(rep.Feeds, c.stat)
	}
	sort.Slice(rep.Feeds, func(i, j int) bool { return vpLess(rep.Feeds[i].VP, rep.Feeds[j].VP) })

	stage.SetAttr("max_prefixes", rep.MaxPrefixCount)
	stage.SetAttr("threshold", rep.FullFeedThreshold)
	stage.SetAttr("full_feeds", rep.FullFeeds)
	stage.SetAttr("vps", len(vpFeeds))
	stage.End()

	// Refuse to emit an empty snapshot when sanitization itself removed
	// every feed that had data: downstream an empty era is
	// indistinguishable from a healthy one with nothing to show. An era
	// that was empty on arrival (or empty in the requested family, with
	// no removals) still passes through.
	if len(vpFeeds) == 0 && hadData &&
		(rep.QuarantinedFeeds > 0 || len(rep.RemovedPeerASes) > 0) {
		return nil, rep, fmt.Errorf("%w: %d feeds quarantined, %d peer ASes removed",
			ErrAllFeedsRemoved, rep.QuarantinedFeeds, len(rep.RemovedPeerASes))
	}
	stage = sp.Child("admission")

	// Prefix admission: length + visibility thresholds over VP feeds.
	// The candidates are the dense prefixes some VP feed holds, in
	// prefix order; visibility is a walk down each candidate's cells.
	uniq := make([]int32, 0, len(prefixes))
	for p := range prefixes {
		for _, c := range vpFeeds {
			if c.routes[p] != 0 {
				uniq = append(uniq, int32(p))
				break
			}
		}
	}
	sort.Slice(uniq, func(i, j int) bool { return prefixset.ComparePrefixes(prefixes[uniq[i]], prefixes[uniq[j]]) < 0 })
	rep.PrefixesSeen = len(uniq)

	vis := newVisCounter(vps)
	admitted := make([]int32, 0, len(uniq))
	for _, p := range uniq {
		if opts.LengthFilter && !prefixset.Admissible(prefixes[p]) {
			rep.DroppedByLength++
			continue
		}
		if !opts.KeepAllPrefixes {
			vis.reset()
			for v, c := range vpFeeds {
				if c.routes[p] != 0 {
					vis.add(v)
				}
			}
			if vis.colls < opts.MinCollectors {
				rep.DroppedByCollector++
				continue
			}
			if vis.ases < opts.MinPeerASes {
				rep.DroppedByPeerASes++
				continue
			}
		}
		admitted = append(admitted, p)
	}
	rep.PrefixesAdmitted = len(admitted)
	if reg != nil {
		reg.Counter("sanitize.prefixes_seen").Add(int64(rep.PrefixesSeen))
		reg.Counter("sanitize.prefixes_admitted").Add(int64(rep.PrefixesAdmitted))
		reg.Counter("sanitize.prefixes_dropped", "filter", "length").Add(int64(rep.DroppedByLength))
		reg.Counter("sanitize.prefixes_dropped", "filter", "min-collectors").Add(int64(rep.DroppedByCollector))
		reg.Counter("sanitize.prefixes_dropped", "filter", "min-peer-ases").Add(int64(rep.DroppedByPeerASes))
	}
	stage.SetAttr("seen", rep.PrefixesSeen)
	stage.SetAttr("admitted", rep.PrefixesAdmitted)
	stage.End()
	stage = sp.Child("assemble")

	// Assemble the snapshot; admitted inherits uniq's prefix order.
	rows := make([]netip.Prefix, len(admitted))
	for r, p := range admitted {
		rows[r] = prefixes[p]
	}
	// Share the interning table built during ingestion.
	snap := core.NewSnapshotWith(snapTime, vps, rows, table)
	// Each chunk owns a disjoint range of snapshot rows; only the MOAS
	// tally is shared, so it accumulates atomically. The tiny origins
	// scratch is reused across the chunk's prefixes (origin counts per
	// prefix are small; a linear scan beats a map).
	var moas atomic.Int64
	parallel.Chunks(opts.Workers, len(admitted), func(lo, hi int) error {
		origins := make([]uint32, 0, 8)
		for r := lo; r < hi; r++ {
			p := admitted[r]
			row := snap.Row(r)
			origins = origins[:0]
			for v, c := range vpFeeds {
				if c.routes[p] == 0 {
					continue
				}
				row[v] = c.routes[p] - 1
				if o, ok := table.Origin(row[v]); ok && !slices.Contains(origins, o) {
					origins = append(origins, o)
				}
			}
			if len(origins) > 1 {
				moas.Add(1)
			}
		}
		return nil
	})
	rep.MOASPrefixes = int(moas.Load())
	if reg != nil {
		reg.Counter("sanitize.moas_prefixes").Add(int64(rep.MOASPrefixes))
	}
	stage.End()
	sp.SetAttr("feeds", len(list))
	sp.SetAttr("vps", len(vpFeeds))
	sp.SetAttr("prefixes", rep.PrefixesAdmitted)
	return snap, rep, nil
}

// visCounter counts the distinct collectors and peer ASes among a set
// of VPs with two stamp arrays over dense collector / peer-AS IDs:
// reset moves to a new stamp, so nothing is cleared between sets.
type visCounter struct {
	coll, asn         []int32 // per VP: dense collector / peer-AS ID
	collSeen, asnSeen []int32 // per dense ID: the last stamp that counted it
	stamp             int32
	colls, ases       int
}

func newVisCounter(vps []core.VP) *visCounter {
	collID, asnID := map[string]int32{}, map[uint32]int32{}
	c := &visCounter{coll: make([]int32, len(vps)), asn: make([]int32, len(vps))}
	for i, vp := range vps {
		if _, ok := collID[vp.Collector]; !ok {
			collID[vp.Collector] = int32(len(collID))
		}
		if _, ok := asnID[vp.ASN]; !ok {
			asnID[vp.ASN] = int32(len(asnID))
		}
		c.coll[i], c.asn[i] = collID[vp.Collector], asnID[vp.ASN]
	}
	c.collSeen, c.asnSeen = make([]int32, len(collID)), make([]int32, len(asnID))
	return c
}

func (c *visCounter) reset() { c.stamp, c.colls, c.ases = c.stamp+1, 0, 0 }

// add counts VP v into the current set.
func (c *visCounter) add(v int) {
	if ci := c.coll[v]; c.collSeen[ci] != c.stamp {
		c.collSeen[ci] = c.stamp
		c.colls++
	}
	if ai := c.asn[v]; c.asnSeen[ai] != c.stamp {
		c.asnSeen[ai] = c.stamp
		c.ases++
	}
}

// CountAdmitted runs only the visibility portion of the pipeline for a
// threshold pair — the Table 7 sensitivity sweep — reusing a prepared
// visibility index built by VisibilityIndex.
type Visibility struct {
	collectors []uint8 // per prefix: distinct collector count (capped 255)
	peerASes   []uint16
	lengthOK   []bool
}

// VisibilityIndex precomputes per-prefix visibility over full feeds so
// threshold sweeps don't re-read the archives.
func VisibilityIndex(sources []bgpstream.Source, updateWarnings []bgpstream.Warning, opts Options) (*Visibility, error) {
	// Reuse Clean with thresholds of 1 to keep a single code path.
	sweep := opts
	sweep.MinCollectors = 1
	sweep.MinPeerASes = 1
	sweep.LengthFilter = false
	snap, _, err := Clean(sources, updateWarnings, sweep)
	if err != nil {
		return nil, err
	}
	v := &Visibility{
		collectors: make([]uint8, len(snap.Prefixes)),
		peerASes:   make([]uint16, len(snap.Prefixes)),
		lengthOK:   make([]bool, len(snap.Prefixes)),
	}
	vis := newVisCounter(snap.VPs)
	for p, pfx := range snap.Prefixes {
		vis.reset()
		for vi, id := range snap.Row(p) {
			if id != aspath.Empty {
				vis.add(vi)
			}
		}
		v.collectors[p] = uint8(min(vis.colls, 255))
		v.peerASes[p] = uint16(min(vis.ases, 65535))
		v.lengthOK[p] = prefixset.Admissible(pfx)
	}
	return v, nil
}

// Count returns the number of prefixes admitted under a threshold pair
// (with the length filter applied), reproducing one Table 7 cell.
func (v *Visibility) Count(minCollectors, minPeerASes int) int {
	n := 0
	for p := range v.collectors {
		if !v.lengthOK[p] {
			continue
		}
		if int(v.collectors[p]) >= minCollectors && int(v.peerASes[p]) >= minPeerASes {
			n++
		}
	}
	return n
}
