package main

import (
	"math"
	"strings"

	"frangipani/internal/fs"
	"frangipani/internal/lockservice"
	"frangipani/internal/obs"
	"frangipani/internal/petal"
)

// layerSnap holds the cumulative layer sources at the start of the
// traced phase; layerMetrics takes deltas against it.
type layerSnap struct {
	counters   map[string]int64
	fs         [2]fs.Counters
	petal      [2]petal.ClientStats
	diskWrites int64
	diskBytesW int64
	window     *obs.WindowRing
}

// takeLayerSnap records the layer sources and restarts the network and
// CPU utilisation windows.
func takeLayerSnap(e *env) layerSnap {
	s := layerSnap{counters: e.c.Obs().Snapshot().Counters, window: obs.NewWindowRing(e.c.Obs(), 1)}
	for k, f := range e.ws {
		s.fs[k], s.petal[k] = f.Stats(), f.PetalStats()
	}
	s.diskWrites, s.diskBytesW = diskWrites(e)
	e.c.World.Net.ResetStats()
	for _, f := range e.ws {
		e.c.World.CPU(f.Machine()).ResetStats()
	}
	return s
}

func diskWrites(e *env) (writes, bytes int64) {
	for _, p := range e.c.Petals {
		for _, d := range p.Disks() {
			_, w, _, b := d.Stats()
			writes += w
			bytes += b
		}
	}
	return writes, bytes
}

// layerMetrics computes the per-layer metrics of the traced phase p.
// Registry counters and histograms are read by name, so one that no
// longer exists is left out of the report instead of reading as zero.
func layerMetrics(e *env, before layerSnap, p *phaseStats) map[string]metric {
	out := make(map[string]metric)
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	ops := float64(p.ops)
	win := before.window.Advance()
	snap := e.c.Obs().Snapshot()
	after := snap.Counters
	// delta sums a counter's growth over every instance whose name
	// starts with prefix and ends with suffix; ok is false when no such
	// counter exists.
	delta := func(prefix, suffix string) (float64, bool) {
		var sum int64
		found := false
		for name, v := range after {
			if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
				sum += v - before.counters[name]
				found = true
			}
		}
		return float64(sum), found
	}
	perOpOf := func(name, prefix, suffix, unit string) {
		if d, ok := delta(prefix, suffix); ok {
			put(name, ratio(d, ops), unit)
		}
	}
	// hist merges a histogram over the file servers' instances: the
	// per-server quantiles averaged by sample count.
	hist := func(name string, q func(obs.HistStat) int64, bases ...string) {
		var sum, n float64
		found := false
		for _, base := range bases {
			for _, f := range e.ws {
				key := base + "#" + f.Machine()
				if _, ok := snap.Histograms[key]; !ok {
					continue
				}
				found = true
				if h, ok := win.Hists[key]; ok {
					sum += float64(q(h)) * float64(h.Count)
					n += float64(h.Count)
				}
			}
		}
		if found {
			put(name, ratio(sum, n)/1e6, "ms")
		}
	}
	p50 := func(h obs.HistStat) int64 { return h.P50 }
	p99 := func(h obs.HistStat) int64 { return h.P99 }

	// fs: the benchmark's own timing and FS.Stats().
	for k := opKind(0); k < numOps; k++ {
		put("fs."+opNames[k]+"_p50_ms", float64(quantile(p.lat[k], 0.5))/1e6, "ms")
	}
	var fsd fs.Counters
	var pd petal.ClientStats
	for k, f := range e.ws {
		a, b := f.Stats(), before.fs[k]
		fsd.Retries += a.Retries - b.Retries
		fsd.BytesRead += a.BytesRead - b.BytesRead
		fsd.ReadAheadHits += a.ReadAheadHits - b.ReadAheadHits
		fsd.ReadAheadWasted += a.ReadAheadWasted - b.ReadAheadWasted
		fsd.FlushBatches += a.FlushBatches - b.FlushBatches
		fsd.FlushPages += a.FlushPages - b.FlushPages
		fsd.MetaBatchFetches += a.MetaBatchFetches - b.MetaBatchFetches
		fsd.MetaBatchSectors += a.MetaBatchSectors - b.MetaBatchSectors
		c, d := f.PetalStats(), before.petal[k]
		pd.ReadRPCs += c.ReadRPCs - d.ReadRPCs
		pd.ReadVRPCs += c.ReadVRPCs - d.ReadVRPCs
		pd.ReadVExtents += c.ReadVExtents - d.ReadVExtents
		pd.WriteRPCs += c.WriteRPCs - d.WriteRPCs
		pd.WriteVRPCs += c.WriteVRPCs - d.WriteVRPCs
		pd.WriteVExtents += c.WriteVExtents - d.WriteVExtents
	}
	put("fs.retries_per_op", ratio(float64(fsd.Retries), ops), "1/op")
	// A prefetch batch either lands in the cache (a hit) or is thrown
	// away because the lock went while it was in flight; wasted bytes
	// are counted in nominal batches of half the read-ahead window.
	batch := float64(fs.DefaultConfig().ReadAhead) * fs.BlockSize / 2
	wastedBatches := float64(fsd.ReadAheadWasted) / batch
	put("fs.readahead_hit_frac", ratio(float64(fsd.ReadAheadHits), float64(fsd.ReadAheadHits)+wastedBatches), "frac")
	put("fs.readahead_wasted_frac", ratio(float64(fsd.ReadAheadWasted), float64(fsd.BytesRead)), "frac")
	put("fs.flush_pages_per_batch", ratio(float64(fsd.FlushPages), float64(fsd.FlushBatches)), "count")
	put("fs.meta_sectors_per_fetch", ratio(float64(fsd.MetaBatchSectors), float64(fsd.MetaBatchFetches)), "count")

	// cache
	for _, pool := range []string{"data", "meta"} {
		hits, ok1 := delta("cache.hits#", "."+pool)
		misses, ok2 := delta("cache.misses#", "."+pool)
		if ok1 && ok2 {
			put("cache."+pool+"_hit_frac", ratio(hits, hits+misses), "frac")
		}
	}
	perOpOf("cache.evictions_per_op", "cache.evictions#", "", "1/op")

	// wal
	perOpOf("wal.appends_per_op", "wal.appends#", "", "1/op")
	perOpOf("wal.bytes_per_op", "wal.wrote.bytes#", "", "B/op")
	perOpOf("wal.flushes_per_op", "wal.flushes#", "", "1/op")
	if merges, ok := delta("wal.groupcommit.merges#", ""); ok {
		flushes, _ := delta("wal.flushes#", "")
		put("wal.merges_per_flush", ratio(merges, flushes), "count")
	}
	hist("wal.flush_p50_ms", p50, "wal.flush.latency")
	if d, ok := delta("wal.reclaim.stall#", ""); ok {
		put("wal.stall_reclaims", d, "count")
	}

	// lockservice
	hist("lock.acquire_p50_ms", p50, "lockservice.acquire.latency")
	hist("lock.acquire_p99_ms", p99, "lockservice.acquire.latency")
	perOpOf("lock.revokes_per_op", "lockservice.server.revokes#", "", "1/op")
	hist("lock.revoke_p50_ms", p50, "lockservice.revoke.latency")
	perOpOf("lock.server_requests_per_op", "lockservice.server.requests#", "", "1/op")
	if batched, ok := delta("lockservice.clerk.batched_ops#", ""); ok {
		batches, _ := delta("lockservice.clerk.batches#", "")
		put("lock.ops_per_batch", ratio(batched, batches), "count")
	}
	if d, ok := delta("lockservice.renew.standalone#", ""); ok {
		put("lock.renew_standalone", d, "count")
	}

	// petal
	rpcs := float64(pd.ReadRPCs + pd.ReadVRPCs + pd.WriteRPCs + pd.WriteVRPCs)
	put("petal.rpcs_per_op", ratio(rpcs, ops), "1/op")
	hist("petal.read_p50_ms", p50, "petal.read.latency", "petal.readv.latency")
	hist("petal.writev_p50_ms", p50, "petal.writev.latency")
	put("petal.readv_extents_per_rpc", ratio(float64(pd.ReadVExtents), float64(pd.ReadVRPCs)), "count")
	put("petal.writev_extents_per_rpc", ratio(float64(pd.WriteVExtents), float64(pd.WriteVRPCs)), "count")
	dw, db := diskWrites(e)
	put("petal.write_bytes_per_user_byte", ratio(float64(db-before.diskBytesW), float64(p.written)), "B/B")
	put("petal.disk_writes_per_op", ratio(float64(dw-before.diskWrites), ops), "1/op")

	// net: every endpoint the data path uses.
	sent, _, netBytes := e.c.World.Net.Stats()
	put("net.msgs_per_op", ratio(float64(sent), ops), "1/op")
	put("net.bytes_per_user_byte", ratio(float64(netBytes), float64(p.bytes)), "B/B")
	var maxUtil float64
	var hosts []string
	for _, f := range e.ws {
		hosts = append(hosts, petal.ClientAddr(f.Machine()), lockservice.ClerkAddr(f.Machine()))
	}
	for _, n := range e.c.PetalServerNames() {
		hosts = append(hosts, petal.DataAddr(n))
	}
	for _, n := range e.c.LockServerNames() {
		hosts = append(hosts, lockservice.Addr(n))
	}
	for _, h := range hosts {
		tx, rx := e.c.World.Net.LinkUtilization(h)
		maxUtil = math.Max(maxUtil, math.Max(tx, rx))
	}
	put("net.max_link_util", maxUtil, "frac")

	// sim: the modelled CPUs of the two file servers.
	var busy float64
	for _, f := range e.ws {
		busy += e.c.World.CPU(f.Machine()).Utilization()
	}
	put("sim.cpu_busy_frac", busy/float64(len(e.ws)), "frac")

	// critpath: where simulated time went inside the file system's own
	// spans. Client-side Petal spans cover the wire and queueing
	// outside the server handler (net); server-side ones the Petal
	// server's handler, dominated by the modelled disk (disk).
	cp := obs.NewCritPath()
	cp.AddTracer(e.c.Obs().Tracer(), 0)
	shares := map[string]float64{}
	var total float64
	for _, root := range cp.RootOps() {
		for _, pe := range cp.Profile(root) {
			ns := float64(pe.SelfNs)
			total += ns
			layer, op, _ := strings.Cut(pe.Name, ".")
			switch layer {
			case "lockservice":
				layer = "lock"
			case "petal":
				if strings.HasPrefix(op, "server.") {
					shares["disk"] += ns
				} else {
					shares["net"] += ns
				}
			}
			shares[layer] += ns
		}
	}
	for _, l := range []string{"fs", "wal", "cache", "lock", "petal", "net", "disk"} {
		put("critpath."+l+"_share", ratio(shares[l], total), "frac")
	}

	// host
	put("host.allocs_per_op", ratio(float64(p.allocs), ops), "1/op")
	put("host.alloc_bytes_per_op", ratio(float64(p.allocBytes), ops), "B/op")
	return out
}
