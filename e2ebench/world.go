package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bgp"
	"repro/internal/bgpstream"
	"repro/internal/mrt"
)

// world is one generated era: a RIB dump and an update window per
// collector, as gensim wrote them.
type world struct {
	dir        string
	collectors []string // sorted
	ribPaths   []string // sorted by collector
	updPaths   []string // sorted by collector
	ribs       []bgpstream.Source
	upds       []bgpstream.Source
	updData    map[string][]byte
	ribBytes   int64
	updBytes   int64
	updRecords int
	genSeconds float64 // gensim wall time, 0 when the world came from the cache
}

// loadWorld returns the world for cfg's parameters, running gensim
// only when the cache does not hold it yet. The cache key is every
// parameter that changes gensim's output, so repeated runs pay
// generation once.
func loadWorld(cfg *config) (*world, error) {
	key := fmt.Sprintf("y%dq%d-scale%s-seed%d-h%s", cfg.year, cfg.quarter,
		strconv.FormatFloat(cfg.scale, 'g', -1, 64), cfg.worldSeed,
		strconv.FormatFloat(cfg.hours, 'g', -1, 64))
	dir := filepath.Join(cfg.cache, key)
	w := &world{dir: dir}
	if _, err := os.Stat(filepath.Join(dir, "complete")); err != nil {
		tmp := dir + ".tmp"
		if err := os.RemoveAll(tmp); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		cmd := exec.Command(filepath.Join(cfg.bin, "gensim"), "-out", tmp,
			"-year", strconv.Itoa(cfg.year), "-quarter", strconv.Itoa(cfg.quarter),
			"-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64),
			"-seed", strconv.FormatUint(cfg.worldSeed, 10),
			"-update-hours", strconv.FormatFloat(cfg.hours, 'g', -1, 64),
			"-workers", strconv.Itoa(cfg.workers))
		var log bytes.Buffer
		cmd.Stdout, cmd.Stderr = &log, &log
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("gensim: %v\n%s", err, log.Bytes())
		}
		w.genSeconds = time.Since(start).Seconds()
		if err := os.WriteFile(filepath.Join(tmp, "complete"), nil, 0o644); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := os.Rename(tmp, dir); err != nil {
			return nil, err
		}
	}
	var err error
	if w.ribPaths, err = filepath.Glob(filepath.Join(dir, "*.rib.mrt")); err != nil {
		return nil, err
	}
	if w.updPaths, err = filepath.Glob(filepath.Join(dir, "*.updates.mrt")); err != nil {
		return nil, err
	}
	sort.Strings(w.ribPaths)
	sort.Strings(w.updPaths)
	if len(w.ribPaths) == 0 || len(w.ribPaths) != len(w.updPaths) {
		return nil, fmt.Errorf("world %s: %d RIB and %d update archives", dir, len(w.ribPaths), len(w.updPaths))
	}
	w.updData = make(map[string][]byte)
	for i := range w.ribPaths {
		c := collectorOf(w.ribPaths[i])
		if collectorOf(w.updPaths[i]) != c {
			return nil, fmt.Errorf("world %s: archives do not pair up at %s", dir, c)
		}
		rib, err := os.ReadFile(w.ribPaths[i])
		if err != nil {
			return nil, err
		}
		upd, err := os.ReadFile(w.updPaths[i])
		if err != nil {
			return nil, err
		}
		w.collectors = append(w.collectors, c)
		w.ribs = append(w.ribs, bgpstream.BytesSource(c, rib, bgp.Options{}))
		w.upds = append(w.upds, bgpstream.BytesSource(c, upd, bgp.Options{}))
		w.updData[c] = upd
		w.ribBytes += int64(len(rib))
		w.updBytes += int64(len(upd))
		w.updRecords += countRecords(upd)
	}
	return w, nil
}

// collectorOf derives the collector name from an archive path the way
// the commands do: the base name up to its first dot.
func collectorOf(path string) string {
	name := filepath.Base(path)
	if i := strings.IndexByte(name, '.'); i > 0 {
		name = name[:i]
	}
	return name
}

// countRecords walks an archive's MRT records.
func countRecords(data []byte) int {
	r := mrt.NewBytesReader(data)
	n := 0
	for {
		if _, err := r.Next(); err != nil {
			return n
		}
		n++
	}
}

// order returns the collectors in a seeded order: the sequence in
// which ingest sessions stream them.
func (w *world) order(rng *rand.Rand) []string {
	out := append([]string(nil), w.collectors...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// census describes the inputs a later gain may depend on: the replay
// statistics of the window over the universe the daemon serves.
func (w *world) census(uni *daemonRef) map[string]any {
	st := uni.stats
	share := func(n int) float64 {
		if st.Elems == 0 {
			return 0
		}
		return round4(float64(n) / float64(st.Elems))
	}
	noop := 0.0
	if st.Updates > 0 {
		noop = round4(float64(st.NoOps) / float64(st.Updates))
	}
	return map[string]any{
		"world":             filepath.Base(w.dir),
		"generated_s":       round4(w.genSeconds),
		"collectors":        len(w.collectors),
		"rib_bytes":         w.ribBytes,
		"update_bytes":      w.updBytes,
		"update_records":    w.updRecords,
		"elements":          st.Elems,
		"prefixes":          len(uni.prefixes),
		"vps":               uni.vps,
		"mapped_updates":    st.Updates,
		"noop_share":        noop,
		"skip_prefix_share": share(st.SkippedPrefix),
		"skip_vp_share":     share(st.SkippedVP),
		"skip_other_share":  share(st.SkippedUnusable + st.SkippedType),
		"stream_warnings":   st.Warnings,
	}
}

func round4(x float64) float64 {
	return float64(int64(x*1e4+0.5)) / 1e4
}
