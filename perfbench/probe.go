package main

import (
	"bytes"
	"fmt"
	"os"

	"frangipani"
	"frangipani/internal/cache"
	"frangipani/internal/lockservice"
	"frangipani/internal/obs"
	"frangipani/internal/petal"
	"frangipani/internal/wal"
)

// A probe times the narrowest exported call of one layer in a loop.
// ns/op is process CPU time per call, so simulated sleeps on the
// Petal and lock paths do not count; allocs/op is process heap
// allocations per call, server-side work included.
type probe struct {
	name  string
	iters int
	// prepare builds the probe's state and returns the call to time
	// and a cleanup; both may be nil.
	prepare func(e *env) (call func(i int) error, done func(), err error)
}

var probes = []probe{
	{"cache_lookup", 200000, probeCacheLookup},
	{"cache_insert", 100000, probeCacheInsert},
	{"wal_append_flush", 20000, probeWAL},
	{"lock_lock_unlock", 100000, probeLock},
	{"petal_writev", 16, probePetalWriteV},
	{"petal_readv", 16, probePetalReadV},
	{"journal_record", 200000, probeJournal},
	{"principal_bound", 10000, probePrincipal},
}

// runProbes runs every probe on the live cluster and returns
// probe.<layer>_<call>_ns and _allocs. A probe that fails is left out
// of the report.
func runProbes(e *env) map[string]metric {
	out := make(map[string]metric)
	for _, p := range probes {
		call, done, err := p.prepare(e)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: probe %s: %v\n", p.name, err)
			continue
		}
		a0, _ := heapAllocs()
		c0 := cpuNs()
		for i := 0; i < p.iters && err == nil; i++ {
			err = call(i)
		}
		c1 := cpuNs()
		a1, _ := heapAllocs()
		if done != nil {
			done()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: probe %s: %v\n", p.name, err)
			continue
		}
		out["probe."+p.name+"_ns"] = metric{float64(c1-c0) / float64(p.iters), "ns"}
		out["probe."+p.name+"_allocs"] = metric{float64(a1-a0) / float64(p.iters), "count"}
	}
	return out
}

const probePool = 4096 // blocks in the probe cache pool

func probeCacheLookup(*env) (func(int) error, func(), error) {
	p := cache.NewPool(4096, probePool)
	page := make([]byte, 4096)
	for a := 0; a < probePool; a++ {
		p.Insert(int64(a)*4096, page, 1)
	}
	return func(i int) error {
		if _, ok := p.Lookup(int64(i%probePool) * 4096); !ok {
			return fmt.Errorf("lookup missed a resident page")
		}
		return nil
	}, nil, nil
}

// probeCacheInsert inserts clean pages past the pool's capacity, so
// each insert also evicts.
func probeCacheInsert(*env) (func(int) error, func(), error) {
	p := cache.NewPool(4096, probePool)
	page := make([]byte, 4096)
	return func(i int) error {
		p.Insert(int64(i)*4096, page, 1)
		return nil
	}, nil, nil
}

// memRegion is an in-memory log region: the probe times the log's own
// encoding and group commit, not Petal.
type memRegion []byte

func (r memRegion) ReadAt(p []byte, off int64) error  { copy(p, r[off:]); return nil }
func (r memRegion) WriteAt(p []byte, off int64) error { copy(r[off:], p); return nil }

func probeWAL(*env) (func(int) error, func(), error) {
	const size = 1 << 20
	l := wal.New(make(memRegion, size), size)
	data := make([]byte, 64)
	return func(i int) error {
		seq, err := l.Append([]wal.Update{{Addr: int64(i%1024) * wal.BlockSize, Off: 8, Data: data, Ver: uint64(i + 1)}})
		if err != nil {
			return err
		}
		if err := l.Flush(); err != nil {
			return err
		}
		l.Release(seq)
		return nil
	}, nil, nil
}

// probeLock re-takes a lock the clerk already holds: the uncontended
// path that needs no message.
func probeLock(e *env) (func(int) error, func(), error) {
	cfg := frangipani.DefaultClusterConfig().FSConfig.Lock
	c := lockservice.NewClerk(e.c.World, "probe", "probe", e.c.LockServerNames(), cfg)
	if err := c.Open(); err != nil {
		return nil, nil, err
	}
	const id = 1
	if err := c.Lock(id, lockservice.Exclusive); err != nil {
		c.Close()
		return nil, nil, err
	}
	c.Unlock(id)
	return func(int) error {
		if err := c.Lock(id, lockservice.Exclusive); err != nil {
			return err
		}
		c.Unlock(id)
		return nil
	}, c.Close, nil
}

const (
	probeVDisk  = petal.VDiskID("probe")
	probeExtent = 64 << 10
)

func probePetalWriteV(e *env) (func(int) error, func(), error) {
	pc := e.c.Client("probe-w")
	if err := pc.CreateVDisk(probeVDisk); err != nil {
		return nil, nil, err
	}
	buf := make([]byte, probeExtent)
	fill(buf, key(e.seed, 5, 0, 0, 0))
	return func(i int) error {
		return pc.WriteV(probeVDisk, []petal.Extent{{Off: int64(i) * probeExtent, Data: buf}})
	}, nil, nil
}

// probePetalReadV reads back, through another driver, the extents
// probePetalWriteV wrote.
func probePetalReadV(e *env) (func(int) error, func(), error) {
	pc := e.c.Client("probe-r")
	want := make([]byte, probeExtent)
	fill(want, key(e.seed, 5, 0, 0, 0))
	dst := make([]byte, probeExtent)
	return func(i int) error {
		if err := pc.ReadV(probeVDisk, []petal.ReadExtent{{Off: int64(i) * probeExtent, Dst: dst}}); err != nil {
			return err
		}
		if !bytes.Equal(dst, want) {
			return fmt.Errorf("extent %d read back differs from what was written", i)
		}
		return nil
	}, nil, nil
}

func probeJournal(e *env) (func(int) error, func(), error) {
	j := obs.NewJournal("probe", obs.DefaultJournalCap, e.c.NowNs)
	return func(i int) error {
		j.Record("fs", "probe", "ok", uint64(i), int64(i), "")
		return nil
	}, nil, nil
}

// probePrincipal binds a principal and reads it back: the bound path
// every tagged call pays.
func probePrincipal(*env) (func(int) error, func(), error) {
	var got string
	return func(int) error {
		obs.WithPrincipal("probe", func() { got = obs.CurrentPrincipal() })
		if got != "probe" {
			return fmt.Errorf("bound principal read back as %q", got)
		}
		return nil
	}, nil, nil
}
