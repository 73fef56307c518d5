// atomd serves the atom partition live: it bootstraps the serving
// universe from RIB archives (the sanitize pipeline, exactly as
// atomize), then accepts per-collector update streams on the ingest
// port and answers point queries — SameAtom, MemberCount, prefix→atom,
// materialized snapshots — over HTTP (/atoms on the -listen debug
// server) and the binary query port, while the resident AtomIndex
// re-buckets each update in O(row). SIGINT/SIGTERM drains every
// session and exits cleanly.
//
// Usage:
//
//	atomd [flags] rib.mrt ...
//
// Quick start:
//
//	atomd -listen 127.0.0.1:8280 -ingest 127.0.0.1:8264 \
//	      -query 127.0.0.1:8265 rrc00.rib.mrt route-views2.rib.mrt
//	curl 'http://127.0.0.1:8280/atoms/epoch'
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/atomd"
	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/sanitize"
)

const tool = "atomd"

func main() {
	workers := cli.NewWorkers()
	ingest := flag.String("ingest", "127.0.0.1:0", "TCP `addr` for per-collector ingest sessions")
	query := flag.String("query", "127.0.0.1:0", "TCP `addr` for the binary query port")
	family := flag.Int("family", 4, "address family to admit (4 or 6)")
	o := cli.NewObs(tool)
	flag.Parse()
	if flag.NArg() == 0 {
		cli.Usage("atomd [flags] rib.mrt ...")
	}
	if o.Listen == "" {
		// The daemon's whole point is being queried; always expose the
		// HTTP surface even when the operator gave no -listen.
		o.Listen = "127.0.0.1:0"
	}
	// Pre-seed the registry so the server's instruments land on the
	// same registry the debug server scrapes.
	o.Registry = obs.NewRegistry()

	sources := cli.LoadSources(tool, flag.Args())
	opts := sanitize.Defaults()
	opts.Family = *family
	opts.Workers = *workers
	opts.Metrics = o.Registry
	snap, rep, err := sanitize.Clean(sources, nil, opts)
	if err != nil {
		cli.Fatal(tool, err)
	}

	srv, err := atomd.NewServer(atomd.Config{
		Snapshot:   snap,
		IngestAddr: *ingest,
		QueryAddr:  *query,
		Workers:    *workers,
		Metrics:    o.Registry,
	})
	if err != nil {
		cli.Fatal(tool, err)
	}
	// The drain handler goes in before any address is announced: a
	// client that signals as soon as it reads a port must get a drain,
	// not the default kill.
	done := make(chan struct{})
	stop := cli.OnSignal(func() {
		fmt.Fprintf(os.Stderr, "%s: draining ingest sessions\n", tool)
		srv.Shutdown()
		close(done)
	})
	defer stop()
	o.ExtraMux = srv.RegisterHTTP
	o.Start()
	defer o.Finish()

	fmt.Fprintf(os.Stderr, "%s: serving %d prefixes x %d vps (%d admitted of %d seen), %d atoms at epoch 0\n",
		tool, srv.PrefixCount(), len(snap.VPs), rep.PrefixesAdmitted, rep.PrefixesSeen, srv.AtomCount())
	fmt.Fprintf(os.Stderr, "%s: ingest on %s, binary queries on %s\n", tool, srv.Addr(), srv.QueryAddr())
	<-done

	st := srv.DeltaStats()
	fmt.Fprintf(os.Stderr, "%s: drained at epoch %d: %d updates (%d applied, %d no-ops), %d atoms\n",
		tool, srv.Epoch(), st.Updates, st.Applied, st.NoOps, srv.AtomCount())
	for _, src := range srv.IngestStats() {
		fmt.Fprintf(os.Stderr, "%s:   %s: %d sessions, %d bytes, %d elems, %d applied\n",
			tool, src.Collector, src.Sessions, src.Bytes, src.Elems, src.Applied)
	}
	if quar := srv.Quarantined(); len(quar) > 0 {
		fmt.Fprintf(os.Stderr, "%s: quarantined: %v\n", tool, quar)
	}
}
