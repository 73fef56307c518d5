package sanitize_test

import (
	"bytes"
	"net/netip"
	"testing"

	"repro/internal/aspath"
	"repro/internal/bgp"
	"repro/internal/bgpstream"
	"repro/internal/core"
	"repro/internal/mrt"
	"repro/internal/sanitize"
)

// ribEntry is one peer's route in a hand-built RIB record.
type ribEntry struct {
	peer int // index into the archive's peer table
	path aspath.Path
}

// ribRecord is one hand-built TABLE_DUMP_V2 RIB record.
type ribRecord struct {
	prefix  string
	entries []ribEntry
}

// seqPath is a plain AS_SEQUENCE path.
func seqPath(asns ...uint32) aspath.Path { return aspath.FromSeq(asns) }

// setPath ends in a multi-member AS_SET, which no sequence can
// represent: the decoder marks the element PathUnusable.
func setPath(asns ...uint32) aspath.Path {
	return aspath.Path{Segments: []aspath.Segment{
		{Type: aspath.SegSequence, ASNs: asns},
		{Type: aspath.SegSet, ASNs: []uint32{7001, 7002}},
	}}
}

// ribArchive encodes one collector's RIB dump: a peer index table for
// peers (by ASN) followed by records, all stamped ts.
func ribArchive(t *testing.T, name string, ts uint32, peers []uint32, records []ribRecord) bgpstream.Source {
	t.Helper()
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	pit := &mrt.PeerIndexTable{CollectorID: netip.MustParseAddr("192.0.2.1"), ViewName: name}
	for i, asn := range peers {
		addr := netip.AddrFrom4([4]byte{10, 255, 0, byte(i + 1)})
		pit.Peers = append(pit.Peers, mrt.Peer{BGPID: addr, Addr: addr, ASN: asn})
	}
	body, err := pit.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	w.WriteRecord(mrt.Record{Timestamp: ts, Type: mrt.TypeTableDumpV2, Subtype: mrt.SubPeerIndexTable, Body: body})
	for seq, rec := range records {
		rib := &mrt.RIB{Sequence: uint32(seq), Prefix: netip.MustParsePrefix(rec.prefix)}
		for _, e := range rec.entries {
			attrs, err := bgp.MarshalAttributes([]bgp.Attr{bgp.Origin(bgp.OriginIGP), bgp.ASPath{Path: e.path}}, bgp.Options{AS4: true})
			if err != nil {
				t.Fatal(err)
			}
			rib.Entries = append(rib.Entries, mrt.RIBEntry{PeerIndex: uint16(e.peer), Originated: ts, Attrs: attrs})
		}
		b, err := rib.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		w.WriteRecord(mrt.Record{Timestamp: ts, Type: mrt.TypeTableDumpV2, Subtype: rib.Subtype(), Body: b})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return bgpstream.BytesSource(name, buf.Bytes(), bgp.Options{})
}

// wideRecords gives peers 0 and 1 a clean route for each of n /24s, so
// both are full feeds and every record clears the visibility rules.
func wideRecords(n int) []ribRecord {
	out := make([]ribRecord, n)
	for i := range out {
		out[i] = ribRecord{
			prefix:  netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(i), 0}), 24).String(),
			entries: []ribEntry{{0, seqPath(1, 9)}, {1, seqPath(2, 9)}},
		}
	}
	return out
}

// TestCleanIngestSemantics pins how Clean stores RIB entries per feed:
// what counts as present, as a duplicate, as an AS-set drop and as a
// loop, and in which order those rules apply.
func TestCleanIngestSemantics(t *testing.T) {
	probe := "10.9.0.0/24"
	cases := []struct {
		name    string
		entries []ribEntry // the probe record's entries
		// want is peer 1's feed stat, less the fields every case shares
		// (VP, FullFeed) and wantPfx; wantRow is its probe cell.
		want     sanitize.FeedStat
		wantPfx  int // peer 1's unique prefixes
		admitted bool
		wantRow  aspath.Seq
	}{
		{
			// An empty AS path is a present route: it counts as a unique
			// prefix and towards visibility, and is stored as aspath.Empty.
			name:     "empty path is present",
			entries:  []ribEntry{{0, seqPath(1, 9)}, {1, aspath.Path{}}},
			wantPfx:  5,
			admitted: true,
			wantRow:  nil,
		},
		{
			// An unusable first entry is not stored, so the later usable
			// entry for the same prefix is stored and is no duplicate.
			name:     "unusable then usable",
			entries:  []ribEntry{{0, seqPath(1, 9)}, {1, setPath(2, 8)}, {1, seqPath(2, 8, 9)}},
			want:     sanitize.FeedStat{ASSetDropped: 1},
			wantPfx:  5,
			admitted: true,
			wantRow:  aspath.Seq{2, 8, 9},
		},
		{
			// A stored route makes every later entry a duplicate, usable
			// or not, and the first route stays.
			name:     "usable then unusable then usable",
			entries:  []ribEntry{{0, seqPath(1, 9)}, {1, seqPath(2, 8, 9)}, {1, setPath(2, 7)}, {1, seqPath(2, 7, 9)}},
			want:     sanitize.FeedStat{Duplicates: 2},
			wantPfx:  5,
			admitted: true,
			wantRow:  aspath.Seq{2, 8, 9},
		},
		{
			// A loop path is dropped before the private-ASN tally: the
			// private hop inside it is never counted.
			name:     "loop dropped before private tally",
			entries:  []ribEntry{{0, seqPath(1, 9)}, {1, seqPath(2, 64512, 3, 2, 9)}},
			want:     sanitize.FeedStat{LoopDropped: 1},
			wantPfx:  4,
			admitted: false,
		},
		{
			// A private ASN after the first hop is tallied; the route stays.
			name:     "private asn tallied",
			entries:  []ribEntry{{0, seqPath(1, 9)}, {1, seqPath(2, 64512, 9)}},
			want:     sanitize.FeedStat{PrivateASN: 1},
			wantPfx:  5,
			admitted: true,
			wantRow:  aspath.Seq{2, 64512, 9},
		},
		{
			// A loop stored first still makes a later entry a duplicate:
			// loops are dropped after ingest, not at it.
			name:     "loop then usable is a duplicate",
			entries:  []ribEntry{{0, seqPath(1, 9)}, {1, seqPath(2, 3, 2, 9)}, {1, seqPath(2, 9)}},
			want:     sanitize.FeedStat{LoopDropped: 1, Duplicates: 1},
			wantPfx:  4,
			admitted: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs := append(wideRecords(4), ribRecord{prefix: probe, entries: tc.entries})
			src := ribArchive(t, "c1", 500, []uint32{1, 2}, recs)
			opts := sanitize.Defaults()
			opts.MinCollectors, opts.MinPeerASes = 1, 2
			// The probe decides the duplicate share of a 5-prefix feed; keep
			// the abnormal-peer rules out of this test's way.
			opts.DuplicateShare, opts.PrivateASNShare = 1, 1
			opts.FullFeedFraction = 0.5
			for _, workers := range []int{1, 4} {
				opts.Workers = workers
				snap, rep, err := sanitize.Clean([]bgpstream.Source{src}, nil, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Feeds) != 2 {
					t.Fatalf("feeds = %+v, want 2", rep.Feeds)
				}
				got := rep.Feeds[1]
				want := tc.want
				want.VP, want.UniquePrefixes, want.FullFeed = core.VP{Collector: "c1", ASN: 2}, tc.wantPfx, true
				if got != want {
					t.Errorf("workers=%d: feed stat = %+v, want %+v", workers, got, want)
				}
				p := -1
				for i, pfx := range snap.Prefixes {
					if pfx.String() == probe {
						p = i
					}
				}
				if (p >= 0) != tc.admitted {
					t.Fatalf("workers=%d: probe admitted = %v, want %v (%v)", workers, p >= 0, tc.admitted, snap.Prefixes)
				}
				if p < 0 {
					continue
				}
				if id := snap.RouteID(p, 1); !snap.Paths.Seq(id).Equal(tc.wantRow) || (tc.wantRow == nil && id != aspath.Empty) {
					t.Errorf("workers=%d: probe row = %d %v, want %v", workers, id, snap.Paths.Seq(id), tc.wantRow)
				}
			}
		})
	}
}

// TestCleanSnapshotTimeFromFirstFeed pins that the first feed in VP
// order (collector, then peer AS) sets the snapshot time.
func TestCleanSnapshotTimeFromFirstFeed(t *testing.T) {
	srcs := []bgpstream.Source{
		ribArchive(t, "c2", 700, []uint32{3, 4}, wideRecords(3)),
		ribArchive(t, "c1", 600, []uint32{1, 2}, wideRecords(3)),
	}
	snap, _, err := sanitize.Clean(srcs, nil, sanitize.Afek2002())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Time != 600 {
		t.Errorf("snapshot time = %d, want 600 (feed c1 sorts first)", snap.Time)
	}
}

// TestCleanFeedsSemantics pins the feed-level rules CleanFeeds applies
// to already-ingested feeds.
func TestCleanFeedsSemantics(t *testing.T) {
	t.Run("family filter", func(t *testing.T) {
		feeds := edgeFeeds()
		for _, f := range feeds {
			f.Routes[netip.MustParsePrefix("2001:db8::/32")] = aspath.Seq{f.VP.ASN, 9}
		}
		for _, fam := range []int{0, 4, 6} {
			opts := edgeOpts()
			opts.Family = fam
			snap, rep, err := sanitize.CleanFeeds(feeds, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := map[int]int{0: 5, 4: 4, 6: 1}[fam]
			if len(snap.Prefixes) != want || rep.Feeds[0].UniquePrefixes != want || rep.PrefixesSeen != want {
				t.Errorf("family %d: %d prefixes, %d unique at feed 0, %d seen; want %d",
					fam, len(snap.Prefixes), rep.Feeds[0].UniquePrefixes, rep.PrefixesSeen, want)
			}
			for _, pfx := range snap.Prefixes {
				if (fam == 4 && !pfx.Addr().Is4()) || (fam == 6 && pfx.Addr().Is4()) {
					t.Errorf("family %d admitted %v", fam, pfx)
				}
			}
		}
	})
	t.Run("quarantine precedes full-feed inference", func(t *testing.T) {
		feeds := edgeFeeds()
		// A huge feed at a quarantined collector would set a threshold no
		// other feed reaches, if it took part in full-feed inference.
		big := edgeFeed("cq", 50, edgeWide...)
		for i := range 40 {
			big.Routes[netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 1, byte(i), 0}), 24)] = aspath.Seq{50, 9}
		}
		feeds = append(feeds, big)
		opts := edgeOpts()
		opts.QuarantinedCollectors = map[string]bool{"cq": true}
		snap, rep, err := sanitize.CleanFeeds(feeds, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.MaxPrefixCount != len(edgeWide) || rep.FullFeeds != 4 || len(snap.VPs) != 4 {
			t.Errorf("max %d, full feeds %d, VPs %d; want %d, 4, 4",
				rep.MaxPrefixCount, rep.FullFeeds, len(snap.VPs), len(edgeWide))
		}
		if rep.QuarantinedFeeds != 1 || len(rep.Feeds) != 4 {
			t.Errorf("quarantined %d, reported feeds %d; want 1, 4", rep.QuarantinedFeeds, len(rep.Feeds))
		}
	})
	t.Run("first feed time sets snapshot time", func(t *testing.T) {
		feeds := edgeFeeds()
		for i, ts := range []uint32{300, 0, 200, 100} {
			feeds[i].Time = ts
		}
		feeds[0].VP.Collector = "cq"
		opts := edgeOpts()
		opts.FullFeedFraction, opts.MinCollectors, opts.MinPeerASes = 0, 1, 1
		opts.QuarantinedCollectors = map[string]bool{"cq": true}
		snap, _, err := sanitize.CleanFeeds(feeds, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		// The quarantined feed goes first; the zero time is skipped.
		if snap.Time != 200 {
			t.Errorf("snapshot time = %d, want 200", snap.Time)
		}
	})
	t.Run("empty path is present", func(t *testing.T) {
		feeds := edgeFeeds()
		probe := netip.MustParsePrefix("10.9.0.0/24")
		feeds[0].Routes[probe] = aspath.Seq{1, 9}
		feeds[2].Routes[probe] = nil
		opts := edgeOpts()
		opts.MinPeerASes = 2
		snap, rep, err := sanitize.CleanFeeds(feeds, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Feeds[2].UniquePrefixes != len(edgeWide)+1 {
			t.Errorf("feed 2 unique prefixes = %d, want %d", rep.Feeds[2].UniquePrefixes, len(edgeWide)+1)
		}
		p := len(snap.Prefixes) - 1
		if p < 0 || snap.Prefixes[p] != probe {
			t.Fatalf("probe not admitted: %v", snap.Prefixes)
		}
		if snap.RouteID(p, 2) != aspath.Empty || snap.RouteID(p, 0) == aspath.Empty {
			t.Errorf("probe row = %v, want a path at VP 0 and the empty path at VP 2", snap.Row(p))
		}
	})
}
