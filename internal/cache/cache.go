// Package cache implements the buffer cache used by each Frangipani
// server (standing in for the kernel's unified buffer cache). Every
// entry records the lock that covers it and the write-ahead-log
// sequence number of the latest logged update that dirtied it, so the
// file system can implement the paper's coherence rules:
//
//   - release a read lock  => invalidate the covered entries;
//   - downgrade a write lock => flush the covered dirty entries,
//     keep them cached;
//   - release a write lock => flush and invalidate.
//
// The pool evicts clean entries LRU-first; dirty victims are handed
// to the registered flusher (which must write the log record before
// the block, per the WAL rule).
package cache

import (
	"container/list"
	"sync"

	"frangipani/internal/obs"
)

// Entry is one cached block. Data is mutated in place by the owner
// while it holds the covering lock; in-place writes go through
// Pool.Mutate so background flushers (which snapshot via
// SnapshotBatch) never observe a torn block.
type Entry struct {
	Addr  int64
	Data  []byte
	Dirty bool
	// Seq is the log sequence of the latest record describing this
	// block's pending update; the log must be flushed through Seq
	// before Data may be written to Petal.
	Seq int64
	// Owner is the lock id covering this block.
	Owner uint64

	gen  int64 // bumped on every MarkDirty; guards MarkCleanIf
	elem *list.Element
}

// Flusher writes a dirty entry to stable storage (log first, then
// block). It is called with the pool lock NOT held.
type Flusher func(*Entry) error

// Pool is a fixed-capacity block cache.
type Pool struct {
	blockSize int
	capacity  int
	flusher   Flusher

	mu      sync.Mutex
	entries map[int64]*Entry
	lru     *list.List // front = most recent
	byOwner map[uint64]map[int64]*Entry

	hits, misses, evictions *obs.Counter
}

// NewPool creates a cache holding up to capacity blocks of blockSize
// bytes. Counters start standalone; SetObs repoints them at a
// registry.
func NewPool(blockSize, capacity int) *Pool {
	return &Pool{
		blockSize: blockSize,
		capacity:  capacity,
		entries:   make(map[int64]*Entry),
		lru:       list.New(),
		byOwner:   make(map[uint64]map[int64]*Entry),
		hits:      obs.NewCounter(),
		misses:    obs.NewCounter(),
		evictions: obs.NewCounter(),
	}
}

// SetObs attaches the pool's counters to a registry under
// "cache.<metric>#<instance>". Call before concurrent use; a nil
// registry keeps the standalone counters.
func (p *Pool) SetObs(reg *obs.Registry, instance string) {
	if reg == nil {
		return
	}
	p.mu.Lock()
	p.hits = reg.Counter("cache.hits#" + instance)
	p.misses = reg.Counter("cache.misses#" + instance)
	p.evictions = reg.Counter("cache.evictions#" + instance)
	p.mu.Unlock()
}

// SetFlusher installs the dirty-eviction callback.
func (p *Pool) SetFlusher(f Flusher) {
	p.mu.Lock()
	p.flusher = f
	p.mu.Unlock()
}

// BlockSize returns the pool's block size.
func (p *Pool) BlockSize() int { return p.blockSize }

// Capacity returns the pool's entry capacity.
func (p *Pool) Capacity() int { return p.capacity }

// Usage reports occupancy for health probing: resident entries and
// how many of them are dirty.
func (p *Pool) Usage() (resident, dirty int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.entries {
		if e.Dirty {
			dirty++
		}
	}
	return len(p.entries), dirty
}

// Lookup returns the cached entry for addr, if present, bumping LRU.
func (p *Pool) Lookup(addr int64) (*Entry, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[addr]
	if ok {
		p.lru.MoveToFront(e.elem)
		p.hits.Inc()
	} else {
		p.misses.Inc()
	}
	return e, ok
}

// Insert adds (or replaces) the entry for addr with the given data
// and owner, evicting if needed. It returns the entry.
func (p *Pool) Insert(addr int64, data []byte, owner uint64) *Entry {
	p.mu.Lock()
	if e, ok := p.entries[addr]; ok {
		copy(e.Data, data)
		p.setOwnerLocked(e, owner)
		p.lru.MoveToFront(e.elem)
		p.mu.Unlock()
		return e
	}
	e := &Entry{Addr: addr, Data: make([]byte, p.blockSize), Owner: owner}
	copy(e.Data, data)
	p.entries[addr] = e
	e.elem = p.lru.PushFront(e)
	p.addOwnerLocked(e)
	victims := p.collectVictimsLocked()
	p.mu.Unlock()
	p.flushVictims(victims)
	return e
}

func (p *Pool) setOwnerLocked(e *Entry, owner uint64) {
	if e.Owner == owner {
		return
	}
	p.removeOwnerLocked(e)
	e.Owner = owner
	p.addOwnerLocked(e)
}

func (p *Pool) addOwnerLocked(e *Entry) {
	m := p.byOwner[e.Owner]
	if m == nil {
		m = make(map[int64]*Entry)
		p.byOwner[e.Owner] = m
	}
	m[e.Addr] = e
}

func (p *Pool) removeOwnerLocked(e *Entry) {
	if m := p.byOwner[e.Owner]; m != nil {
		delete(m, e.Addr)
		if len(m) == 0 {
			delete(p.byOwner, e.Owner)
		}
	}
}

// collectVictimsLocked trims over-capacity entries, removing clean
// ones immediately and returning dirty ones for flushing.
func (p *Pool) collectVictimsLocked() []*Entry {
	var dirty []*Entry
	for len(p.entries) > p.capacity {
		elem := p.lru.Back()
		if elem == nil {
			break
		}
		e := elem.Value.(*Entry)
		p.lru.Remove(elem)
		delete(p.entries, e.Addr)
		p.removeOwnerLocked(e)
		p.evictions.Inc()
		if e.Dirty {
			dirty = append(dirty, e)
		}
	}
	return dirty
}

func (p *Pool) flushVictims(victims []*Entry) {
	if len(victims) == 0 {
		return
	}
	p.mu.Lock()
	f := p.flusher
	p.mu.Unlock()
	for _, e := range victims {
		if f != nil {
			_ = f(e)
		}
	}
}

// MarkDirty flags the entry and records the covering log sequence.
func (p *Pool) MarkDirty(e *Entry, seq int64) {
	p.mu.Lock()
	e.Dirty = true
	e.gen++
	if seq > e.Seq {
		e.Seq = seq
	}
	p.mu.Unlock()
}

// Gen returns the entry's dirty generation; a flusher snapshots it
// before copying the data out.
func (p *Pool) Gen(e *Entry) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return e.gen
}

// GenBatch snapshots the dirty generations of a set of entries with
// one lock acquisition; batch flushers snapshot before copying data
// out, then clear with MarkCleanIfBatch.
func (p *Pool) GenBatch(es []*Entry) []int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int64, len(es))
	for i, e := range es {
		out[i] = e.gen
	}
	return out
}

// SnapshotBatch copies each entry's block into buf (which must hold
// len(es) blocks) and returns the dirty generations, all under one
// lock acquisition. Owners mutate Data through Mutate, so a flusher
// snapshot never observes a torn concurrent update.
func (p *Pool) SnapshotBatch(es []*Entry, buf []byte) []int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	gens := make([]int64, len(es))
	for i, e := range es {
		gens[i] = e.gen
		copy(buf[i*p.blockSize:], e.Data)
	}
	return gens
}

// Mutate runs fn under the pool lock. Owners use it for in-place
// Data writes so flusher snapshots are properly ordered with respect
// to them; fn must not call back into the pool.
func (p *Pool) Mutate(fn func()) {
	p.mu.Lock()
	fn()
	p.mu.Unlock()
}

// MarkCleanIfBatch clears the dirty flag of every entry whose
// generation still matches the flusher's snapshot, with one lock
// acquisition. Entries re-dirtied since keep their flag.
func (p *Pool) MarkCleanIfBatch(es []*Entry, gens []int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, e := range es {
		if e.gen == gens[i] {
			e.Dirty = false
		}
	}
}

// MarkClean clears the dirty flag (after a successful write-back).
func (p *Pool) MarkClean(e *Entry) {
	p.mu.Lock()
	e.Dirty = false
	p.mu.Unlock()
}

// MarkCleanIf clears the dirty flag only if the entry has not been
// re-dirtied since the flusher snapshotted generation gen — otherwise
// the newer update would silently lose its write-back.
func (p *Pool) MarkCleanIf(e *Entry, gen int64) {
	p.mu.Lock()
	if e.gen == gen {
		e.Dirty = false
	}
	p.mu.Unlock()
}

// DirtyByOwner returns the dirty entries covered by a lock.
func (p *Pool) DirtyByOwner(owner uint64) []*Entry {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*Entry
	for _, e := range p.byOwner[owner] {
		if e.Dirty {
			out = append(out, e)
		}
	}
	return out
}

// AllDirty returns every dirty entry (sync demon sweep).
func (p *Pool) AllDirty() []*Entry {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*Entry
	for _, e := range p.entries {
		if e.Dirty {
			out = append(out, e)
		}
	}
	return out
}

// InvalidateByOwner drops all entries covered by a lock (which must
// have been flushed already if they were dirty).
func (p *Pool) InvalidateByOwner(owner uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.byOwner[owner] {
		delete(p.entries, e.Addr)
		p.lru.Remove(e.elem)
	}
	delete(p.byOwner, owner)
}

// Invalidate drops one entry by address, regardless of dirtiness.
func (p *Pool) Invalidate(addr int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.entries[addr]; ok {
		delete(p.entries, addr)
		p.lru.Remove(e.elem)
		p.removeOwnerLocked(e)
	}
}

// InvalidateAll empties the cache (lease loss: "the server discards
// all its locks and the data in its cache").
func (p *Pool) InvalidateAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.entries = make(map[int64]*Entry)
	p.byOwner = make(map[uint64]map[int64]*Entry)
	p.lru.Init()
}

// HasDirty reports whether any entry is dirty.
func (p *Pool) HasDirty() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.entries {
		if e.Dirty {
			return true
		}
	}
	return false
}

// Len returns the number of cached entries.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// Stats reports hit/miss counters.
func (p *Pool) Stats() (hits, misses int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits.Value(), p.misses.Value()
}

// Evictions reports the number of capacity evictions.
func (p *Pool) Evictions() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.evictions.Value()
}

// EntrySeq reads the entry's covering log sequence under the pool
// lock (Seq is written under it by MarkDirty, so unsynchronized
// reads would race).
func (p *Pool) EntrySeq(e *Entry) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return e.Seq
}

// MaxSeq returns the highest covering log sequence across the
// entries, read with one lock acquisition.
func (p *Pool) MaxSeq(es []*Entry) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var max int64
	for _, e := range es {
		if e.Seq > max {
			max = e.Seq
		}
	}
	return max
}
