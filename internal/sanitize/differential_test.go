package sanitize_test

import (
	"net/netip"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/aspath"
	"repro/internal/bgp"
	"repro/internal/bgpstream"
	"repro/internal/core"
	"repro/internal/faultgen"
	"repro/internal/faultgen/harness"
	"repro/internal/prefixset"
	"repro/internal/sanitize"
	"repro/internal/topology"
)

// feedsFromSources restates Clean's ingest rules over a plain decode of
// the same RIB sources, as Feed maps: per (collector, peer AS) the first
// entry's time is the feed's time, the first usable entry per canonical
// prefix is stored, any later entry is a duplicate, and an entry whose
// path flattens to no sequence is an AS-set drop. It returns the feeds
// in VP order and the collectors the stream quarantined.
func feedsFromSources(t *testing.T, sources []bgpstream.Source, family int) ([]*sanitize.Feed, []string) {
	t.Helper()
	filter := &bgpstream.Filter{
		Types:  map[bgpstream.ElemType]bool{bgpstream.ElemRIB: true},
		V4Only: family == 4, V6Only: family == 6,
	}
	stream := bgpstream.NewStream(filter, sources...)
	elems, err := stream.All()
	if err != nil {
		t.Fatal(err)
	}
	byVP := map[core.VP]*sanitize.Feed{}
	var list []*sanitize.Feed
	for _, e := range elems {
		vp := core.VP{Collector: e.Collector, ASN: e.PeerASN}
		f := byVP[vp]
		if f == nil {
			f = &sanitize.Feed{VP: vp, Time: e.Timestamp, Routes: map[netip.Prefix]aspath.Seq{}}
			byVP[vp] = f
			list = append(list, f)
		}
		pfx := prefixset.Canonical(e.Prefix)
		if !pfx.IsValid() {
			continue
		}
		if _, dup := f.Routes[pfx]; dup {
			f.Duplicates++
			continue
		}
		seq, err := e.Path.Sequence()
		if err != nil {
			f.ASSetDropped++
			continue
		}
		f.Routes[pfx] = seq
	}
	sort.Slice(list, func(i, j int) bool {
		a, b := list[i].VP, list[j].VP
		if a.Collector != b.Collector {
			return a.Collector < b.Collector
		}
		return a.ASN < b.ASN
	})
	return list, stream.Quarantined()
}

// sameSnapshot compares two snapshots by path content: intern IDs are
// opaque tokens of each run's own table.
func sameSnapshot(t *testing.T, label string, a, b *core.Snapshot) {
	t.Helper()
	if a.Time != b.Time || !reflect.DeepEqual(a.VPs, b.VPs) || !reflect.DeepEqual(a.Prefixes, b.Prefixes) {
		t.Fatalf("%s: shape differs: time %d/%d, %d/%d VPs, %d/%d prefixes",
			label, a.Time, b.Time, len(a.VPs), len(b.VPs), len(a.Prefixes), len(b.Prefixes))
	}
	for p := range a.Prefixes {
		for v := range a.VPs {
			if x, y := a.Route(p, v), b.Route(p, v); !x.Equal(y) || (a.RouteID(p, v) == 0) != (b.RouteID(p, v) == 0) {
				t.Fatalf("%s: cell (%v, %v): %v vs %v", label, a.Prefixes[p], a.VPs[v], x, y)
			}
		}
	}
}

// TestCleanMatchesCleanFeeds is the differential between the two entry
// points: Clean over archive sets must equal CleanFeeds over the same
// routes built as Feed maps — same rows by path content, same Report —
// at one and at four workers.
func TestCleanMatchesCleanFeeds(t *testing.T) {
	type world struct {
		name     string
		sources  []bgpstream.Source
		warnings []bgpstream.Warning
		families []int
	}
	var worlds []world

	// Collector artifacts: duplicate, private-ASN and ADD-PATH peers.
	src, warn, _, _ := buildScenario(t, topology.EraOf(2022, 1), true)
	worlds = append(worlds, world{"collector artifacts", src, warn, []int{0}})

	// faultgen damage that leaves every RIB archive readable: flipped
	// bits, repeated and reordered records, a dropped shard.
	hw := harness.BuildWorld(harness.DefaultConfig(5))
	sched, err := faultgen.Plan(faultgen.Config{Seed: 5, Classes: []faultgen.Class{
		faultgen.ClassBitFlip, faultgen.ClassDuplicate, faultgen.ClassReorder, faultgen.ClassDropShard,
	}}, hw.Combined)
	if err != nil {
		t.Fatal(err)
	}
	damaged, err := faultgen.Apply(sched, hw.Combined)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range damaged {
		if strings.HasPrefix(name, "rib/") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var dsrc []bgpstream.Source
	for _, name := range names {
		dsrc = append(dsrc, bgpstream.BytesSource(strings.TrimPrefix(name, "rib/"), damaged[name], bgp.Options{}))
	}
	worlds = append(worlds, world{"faultgen damage", dsrc, nil, []int{0, 4}})

	for _, w := range worlds {
		for _, family := range w.families {
			feeds, quarantined := feedsFromSources(t, w.sources, family)
			for _, workers := range []int{1, 4} {
				opts := sanitize.Defaults()
				opts.Family, opts.Workers = family, workers
				snapA, repA, errA := sanitize.Clean(w.sources, w.warnings, opts)
				if len(quarantined) > 0 {
					opts.QuarantinedCollectors = map[string]bool{}
					for _, name := range quarantined {
						opts.QuarantinedCollectors[name] = true
					}
				}
				snapB, repB, errB := sanitize.CleanFeeds(feeds, w.warnings, opts)
				label := w.name
				if (errA == nil) != (errB == nil) {
					t.Fatalf("%s family=%d workers=%d: errors differ: %v vs %v", label, family, workers, errA, errB)
				}
				if !reflect.DeepEqual(repA, repB) {
					t.Fatalf("%s family=%d workers=%d: reports differ:\n%+v\n%+v", label, family, workers, repA, repB)
				}
				if errA != nil {
					continue
				}
				if len(snapA.Prefixes) == 0 {
					t.Fatalf("%s family=%d: empty snapshot makes the differential vacuous", label, family)
				}
				sameSnapshot(t, label, snapA, snapB)
			}
		}
	}
}
