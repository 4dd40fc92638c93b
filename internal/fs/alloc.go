package fs

import (
	"hash/fnv"
	"sort"

	"frangipani/internal/lockservice"
)

// The allocator implements §3's scheme: "Each Frangipani server locks
// a portion of the bitmap space for its exclusive use. When a
// server's bitmap space fills up, it finds and locks another unused
// portion." A portion is a segment of SegBits bits; its lock is held
// sticky, so allocation is normally local. Freeing an object owned
// by another server's segment briefly steals that segment's lock,
// which the paper's rules permit ("a data block or inode that is not
// currently allocated is protected by the lock on the segment of the
// allocation bitmap that holds the bit marking it as free").
//
// Deadlock safety: operations acquire inode locks first (sorted),
// then bitmap segment locks in ascending order. Class ranges are
// ordered in the bitmap, and each operation allocates in class order
// (inode, then metadata blocks, then data blocks, then large), so
// segment acquisitions are naturally ascending.

// segKey names one (class, segment) scan range: segments can straddle
// class boundaries, so fullness and resume hints are per class, not
// per segment.
type segKey struct {
	c   allocClass
	seg int64
}

// segScan scans a segment's bitmap sectors for a clear bit in the
// class range, under the segment lock (already held). It returns the
// bit index, or -1.
//
// The scan is hinted: it resumes from the bit after the last
// successful claim (segResume) instead of rescanning the class floor
// on every allocation — without hints, a filling segment costs
// O(allocated bits) per allocation, which is what made big clusters
// spend their time re-reading full bitmap prefixes. The hint is
// advisory: a miss from a nonzero resume point falls back to ONE full
// scan from the clamped floor before the segment is declared full
// (bits below the hint can be legitimately free after a local free or
// an aborted transaction), so "full" verdicts stay exact.
func (fs *FS) segScan(t *txn, seg int64, c allocClass) (int64, error) {
	lockID := SegLock(seg)
	clo, chi := fs.lay.classRange(c)
	lo := seg * fs.lay.SegBits
	hi := lo + fs.lay.SegBits
	if lo < clo {
		lo = clo
	}
	if hi > chi {
		hi = chi
	}
	key := segKey{c, seg}
	fs.mu.Lock()
	start := lo
	if r, ok := fs.segResume[key]; ok && r > lo && r < hi {
		start = r
		fs.m.allocResume.Inc()
	}
	fs.mu.Unlock()
	bit, err := fs.segScanRange(t, lockID, start, hi)
	if err != nil {
		return -1, err
	}
	if bit < 0 && start > lo {
		// Hint miss: rescan the skipped prefix once before giving up.
		fs.m.allocRescan.Inc()
		bit, err = fs.segScanRange(t, lockID, lo, start)
		if err != nil {
			return -1, err
		}
	}
	fs.mu.Lock()
	if bit >= 0 {
		fs.segResume[key] = bit + 1
		delete(fs.segFull, key)
	} else {
		fs.segFull[key] = true
		delete(fs.segResume, key)
	}
	fs.mu.Unlock()
	return bit, nil
}

// segScanRange scans bitmap bits [lo, hi) for a clear bit, claiming
// the first one found inside the transaction.
func (fs *FS) segScanRange(t *txn, lockID uint64, lo, hi int64) (int64, error) {
	for b := lo; b < hi; {
		addr, _, _ := fs.lay.bitLoc(b)
		e, err := fs.readMeta(t.sp, addr, lockID)
		if err != nil {
			return -1, err
		}
		for ; b < hi; b++ {
			a2, byteOff2, mask := fs.lay.bitLoc(b)
			if a2 != addr {
				break // next sector
			}
			if e.Data[byteOff2]&mask == 0 {
				// Claim it.
				nb := []byte{e.Data[byteOff2] | mask}
				t.forceUpdate(e, byteOff2, nb)
				return b, nil
			}
		}
	}
	return -1, nil
}

// lockSeg acquires a segment lock for the duration of the
// transaction, remembering it for release at operation end.
func (t *txn) lockSeg(seg int64) error {
	id := SegLock(seg)
	for _, held := range t.segs {
		if held == id {
			return nil
		}
	}
	if err := t.fs.clerk.LockIn(t.sp, id, lockservice.Exclusive); err != nil {
		return err
	}
	t.segs = append(t.segs, id)
	return nil
}

// allocObj allocates one object of the class, setting its bitmap bit
// inside the transaction. The paper assigns servers distinct
// portions; we pick a starting probe position by hashing the machine
// name so servers naturally spread out.
func (fs *FS) allocObj(t *txn, c allocClass) (int64, error) {
	// Sticky fast path: the segment that satisfied the last
	// allocation of this class almost certainly has room for the
	// next one, and with the resume hint the claim is O(1). This is
	// what keeps per-allocation cost independent of how many
	// segments the server has filled and abandoned over its life.
	fs.mu.Lock()
	sticky, hasSticky := fs.stickySeg[c]
	if hasSticky && fs.segFull[segKey{c, sticky}] {
		hasSticky = false
	}
	fs.mu.Unlock()
	if hasSticky {
		if err := t.lockSeg(sticky); err != nil {
			return -1, err
		}
		bit, err := fs.segScan(t, sticky, c)
		if err != nil {
			return -1, err
		}
		if bit >= 0 {
			fs.m.allocSticky.Inc()
			_, idx := fs.lay.objForBit(bit)
			return idx, nil
		}
	}
	// Then try segments we already own, skipping known-full ones.
	fs.mu.Lock()
	segs := make([]int64, 0, len(fs.owned[c]))
	for _, seg := range fs.owned[c] {
		if seg == sticky && hasSticky {
			continue // just tried
		}
		if fs.segFull[segKey{c, seg}] {
			fs.m.allocSkipFull.Inc()
			continue
		}
		segs = append(segs, seg)
	}
	fs.mu.Unlock()
	for _, seg := range segs {
		if err := t.lockSeg(seg); err != nil {
			return -1, err
		}
		bit, err := fs.segScan(t, seg, c)
		if err != nil {
			return -1, err
		}
		if bit >= 0 {
			fs.mu.Lock()
			fs.stickySeg[c] = seg
			fs.mu.Unlock()
			_, idx := fs.lay.objForBit(bit)
			return idx, nil
		}
	}
	// Probe for another portion.
	lo, hi := fs.lay.segRange(c)
	n := hi - lo
	fs.mu.Lock()
	off, ok := fs.probeOff[c]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(fs.machine))
		h.Write([]byte{byte(c)})
		off = int64(h.Sum64() % uint64(n))
	}
	fs.mu.Unlock()
	for i := int64(0); i < n; i++ {
		seg := lo + (off+i)%n
		if fs.ownsSeg(c, seg) {
			continue
		}
		// Skip segments this server already probed and found full;
		// without this every probe pass rescans the same exhausted
		// prefix of the class range (O(filled segments) per probe).
		fs.mu.Lock()
		full := fs.segFull[segKey{c, seg}]
		fs.mu.Unlock()
		if full {
			fs.m.allocSkipFull.Inc()
			continue
		}
		if err := t.lockSeg(seg); err != nil {
			return -1, err
		}
		bit, err := fs.segScan(t, seg, c)
		if err != nil {
			return -1, err
		}
		if bit >= 0 {
			fs.mu.Lock()
			fs.owned[c] = insertSorted(fs.owned[c], seg)
			fs.probeOff[c] = (off + i) % n
			fs.stickySeg[c] = seg
			fs.mu.Unlock()
			_, idx := fs.lay.objForBit(bit)
			return idx, nil
		}
		// Full segment (segScan marked it): not worth keeping. Resume
		// the class probe after it next time instead of from the same
		// start, so repeated probes do not re-walk the filled prefix.
		fs.mu.Lock()
		fs.probeOff[c] = (off + i + 1) % n
		fs.mu.Unlock()
	}
	return -1, ErrNoSpace
}

func insertSorted(s []int64, v int64) []int64 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func (fs *FS) ownsSeg(c allocClass, seg int64) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, s := range fs.owned[c] {
		if s == seg {
			return true
		}
	}
	return false
}

// freeSpec names one object to free.
type freeSpec struct {
	class allocClass
	idx   int64
}

// freeObjs clears the bitmap bits of the given objects inside the
// transaction, acquiring the needed segment locks in ascending order
// (deadlock discipline).
func (fs *FS) freeObjs(t *txn, items []freeSpec) error {
	type bitSpec struct {
		bit   int64
		seg   int64
		class allocClass
	}
	bits := make([]bitSpec, 0, len(items))
	for _, it := range items {
		b := fs.lay.bitFor(it.class, it.idx)
		bits = append(bits, bitSpec{bit: b, seg: b / fs.lay.SegBits, class: it.class})
	}
	sort.Slice(bits, func(a, b int) bool { return bits[a].bit < bits[b].bit })
	for _, bs := range bits {
		if err := t.lockSeg(bs.seg); err != nil {
			return err
		}
		addr, byteOff, mask := fs.lay.bitLoc(bs.bit)
		e, err := fs.readMeta(t.sp, addr, SegLock(bs.seg))
		if err != nil {
			return err
		}
		nb := []byte{e.Data[byteOff] &^ mask}
		t.forceUpdate(e, byteOff, nb)
		// A freed bit un-fulls its segment and must pull the scan
		// resume point back below it, or the next scan would skip it.
		key := segKey{bs.class, bs.seg}
		fs.mu.Lock()
		delete(fs.segFull, key)
		if r, ok := fs.segResume[key]; ok && r > bs.bit {
			fs.segResume[key] = bs.bit
		}
		fs.mu.Unlock()
	}
	return nil
}

// bitState reports whether an object's allocation bit is set (used
// by the consistency checker and tests). It takes the segment lock
// shared.
func (fs *FS) bitState(c allocClass, idx int64) (bool, error) {
	b := fs.lay.bitFor(c, idx)
	seg := b / fs.lay.SegBits
	if err := fs.clerk.Lock(SegLock(seg), lockservice.Shared); err != nil {
		return false, err
	}
	defer fs.clerk.Unlock(SegLock(seg))
	addr, byteOff, mask := fs.lay.bitLoc(b)
	e, err := fs.readMeta(nil, addr, SegLock(seg))
	if err != nil {
		return false, err
	}
	return e.Data[byteOff]&mask != 0, nil
}
