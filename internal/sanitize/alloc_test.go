package sanitize_test

import (
	"net/netip"
	"testing"

	"repro/internal/aspath"
	"repro/internal/core"
	"repro/internal/sanitize"
)

// allocFixture is nFeeds full feeds over four collectors, each routing
// the same perFeed /24s through its own peer AS to one origin.
func allocFixture(nFeeds, perFeed int) []*sanitize.Feed {
	feeds := make([]*sanitize.Feed, nFeeds)
	for i := range feeds {
		asn := uint32(100 + i)
		f := &sanitize.Feed{
			VP:     core.VP{Collector: string(rune('a' + i%4)), ASN: asn},
			Time:   1,
			Routes: make(map[netip.Prefix]aspath.Seq, perFeed),
		}
		path := aspath.Seq{asn, 9}
		for p := range perFeed {
			f.Routes[netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(p >> 8), byte(p), 0}), 24)] = path
		}
		feeds[i] = f
	}
	return feeds
}

// TestCleanFeedsAllocsScaleWithFeedsNotRoutes pins the dense layout's
// allocation profile: CleanFeeds allocates per feed and per prefix
// index, never per route, so doubling the prefixes of every feed adds
// at most a small constant — less than one allocation per feed. A
// per-feed map (or any per-route allocation) fails this test.
func TestCleanFeedsAllocsScaleWithFeedsNotRoutes(t *testing.T) {
	const nFeeds = 64
	// One warm table across runs: interning is then on its
	// allocation-free hit path and only the pipeline's own work counts.
	opts := sanitize.Defaults()
	opts.Workers = 1
	opts.Intern = aspath.NewTable()
	allocs := func(perFeed int) float64 {
		feeds := allocFixture(nFeeds, perFeed)
		return testing.AllocsPerRun(3, func() {
			snap, _, err := sanitize.CleanFeeds(feeds, nil, opts)
			if err != nil || len(snap.Prefixes) != perFeed {
				t.Fatalf("CleanFeeds: %v, %d prefixes, want %d", err, len(snap.Prefixes), perFeed)
			}
		})
	}
	small, large := allocs(4096), allocs(8192)
	t.Logf("allocs: %d feeds x 4096 prefixes = %.0f, x 8192 = %.0f", nFeeds, small, large)
	if small > 8*nFeeds {
		t.Errorf("%d feeds x 4096 prefixes: %.0f allocs, want at most %d (8 per feed)", nFeeds, small, 8*nFeeds)
	}
	if large-small >= nFeeds {
		t.Errorf("doubling prefixes per feed added %.0f allocs, want fewer than %d: allocations grow with routes",
			large-small, nFeeds)
	}
}
