package fs

import (
	"io"
	"time"

	"frangipani/internal/lockservice"
	"frangipani/internal/obs"
	"frangipani/internal/petal"
)

// File is an open handle on a regular file.
type File struct {
	fs   *FS
	inum int64
}

// Open returns a handle for the regular file at path, following
// symlinks.
func (fs *FS) Open(path string) (*File, error) {
	if err := fs.usable(); err != nil {
		return nil, err
	}
	sp := fs.rootSpan("")
	inum, err := fs.namei(sp, path, true)
	if err != nil {
		return nil, err
	}
	info, err := fs.statInum(sp, inum)
	if err != nil {
		return nil, err
	}
	if info.Type == TypeDir {
		return nil, ErrIsDir
	}
	return &File{fs: fs, inum: inum}, nil
}

// OpenFile opens path, creating it first if create is set and it
// does not exist.
func (fs *FS) OpenFile(path string, create bool) (*File, error) {
	f, err := fs.Open(path)
	if err == ErrNotExist && create {
		if err := fs.Create(path); err != nil && err != ErrExist {
			return nil, err
		}
		return fs.Open(path)
	}
	return f, err
}

func (fs *FS) statInum(sp *obs.Span, inum int64) (Info, error) {
	var info Info
	err := fs.withLocks(sp, []lockReq{{InodeLock(inum), lockservice.Shared}}, false, func(t *txn) error {
		_, in, err := fs.loadInode(sp, inum)
		if err != nil {
			return err
		}
		info = Info{Inum: inum, Type: in.Type, Size: in.Size, Nlink: int(in.Nlink),
			Mtime: in.Mtime, Ctime: in.Ctime, Atime: in.Atime}
		fs.mu.Lock()
		if at, ok := fs.atimes[inum]; ok && at > info.Atime {
			info.Atime = at
		}
		fs.mu.Unlock()
		return nil
	})
	return info, err
}

// Inum returns the file's inode number.
func (f *File) Inum() int64 { return f.inum }

// Size returns the file's current size.
func (f *File) Size() (int64, error) {
	info, err := f.fs.statInum(f.fs.rootSpan(""), f.inum)
	return info.Size, err
}

// filePageAddr maps a file byte offset to the Petal address of its
// 4 KB page and the offset within that page. ok is false when no
// block backs the offset (a hole).
func (fs *FS) filePageAddr(in Inode, off int64) (pageAddr, inPage int64, ok bool) {
	slot, inBlock := blockFor(off)
	if slot >= 0 {
		if in.Small[slot] == 0 {
			return 0, 0, false
		}
		return fs.lay.SmallAddr(in.Small[slot] - 1), inBlock, true
	}
	if in.Large == 0 || inBlock >= fs.lay.LargeBlockSize {
		return 0, 0, false
	}
	base := fs.lay.LargeAddr(in.Large - 1)
	return base + (inBlock &^ (BlockSize - 1)), inBlock & (BlockSize - 1), true
}

// ensureBlock allocates the block backing offset off. New small
// blocks are entered into the cache zero-filled and dirty so stale
// on-disk bytes from a previous owner never become visible; freed
// large blocks were decommitted, so Petal already reads them as
// zeros.
func (fs *FS) ensureBlock(t *txn, in *Inode, off int64, isDir bool) error {
	slot, _ := blockFor(off)
	if slot >= 0 {
		class := classDataSmall
		if isDir {
			class = classMetaSmall
		}
		idx, err := fs.allocObj(t, class)
		if err != nil {
			return err
		}
		in.Small[slot] = idx + 1
		if !isDir {
			addr := fs.lay.SmallAddr(idx)
			// Note: the inode lock id is derivable only by the caller;
			// data pages are owned by the file's inode lock.
			e := fs.data.Insert(addr, make([]byte, BlockSize), t.pageOwner)
			fs.data.MarkDirty(e, 0)
		}
		return nil
	}
	if in.Large == 0 {
		idx, err := fs.allocObj(t, classLarge)
		if err != nil {
			return err
		}
		in.Large = idx + 1
	}
	if _, inBlock := blockFor(off); inBlock >= fs.lay.LargeBlockSize {
		return ErrTooBig
	}
	return nil
}

// WriteAt writes p at byte offset off, allocating blocks as needed.
// Data is staged in the buffer cache (not logged); metadata changes
// (allocation, size, mtime) are logged.
func (f *File) WriteAt(p []byte, off int64) (n int, err error) {
	err = f.fs.traced("write", func(sp *obs.Span) error {
		var e error
		n, e = f.writeAt(sp, p, off)
		return e
	})
	return n, err
}

func (f *File) writeAt(sp *obs.Span, p []byte, off int64) (int, error) {
	fs := f.fs
	if err := fs.usable(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, ErrInval
	}
	if off+int64(len(p)) > DirectBytes+fs.lay.LargeBlockSize {
		return 0, ErrTooBig
	}
	fs.chargeOp(len(p))
	fs.accountBytes(sp, len(p), 0)
	lock := InodeLock(f.inum)
	err := fs.withLocks(sp, []lockReq{{lock, lockservice.Exclusive}}, true, func(t *txn) error {
		t.pageOwner = lock
		e, in, err := fs.loadInode(sp, f.inum)
		if err != nil {
			return err
		}
		if in.Type != TypeFile {
			return ErrIsDir
		}
		pos := 0
		for pos < len(p) {
			cur := off + int64(pos)
			if _, _, ok := fs.filePageAddr(in, cur); !ok {
				if err := fs.ensureBlock(t, &in, cur, false); err != nil {
					return err
				}
			}
			pageAddr, inPage, ok := fs.filePageAddr(in, cur)
			if !ok {
				return ErrTooBig
			}
			n := int(int64(BlockSize) - inPage)
			if n > len(p)-pos {
				n = len(p) - pos
			}
			// A page entirely overwritten needs no read from Petal.
			pe, cached := fs.data.Lookup(pageAddr)
			if !cached {
				if inPage == 0 && n == BlockSize {
					pe = fs.data.Insert(pageAddr, make([]byte, BlockSize), lock)
				} else {
					pe, err = fs.readData(sp, pageAddr, lock)
					if err != nil {
						return err
					}
				}
			}
			fs.data.Mutate(func() { copy(pe.Data[inPage:], p[pos:pos+n]) })
			fs.data.MarkDirty(pe, 0)
			pos += n
		}
		if off+int64(len(p)) > in.Size {
			// Growing past EOF: bytes in [oldSize, off) within already
			// allocated blocks must read as zeros, not as stale data
			// left from before an earlier truncate.
			fs.zeroRange(sp, in, in.Size, off, lock)
			in.Size = off + int64(len(p))
		}
		in.Mtime = int64(fs.w.Clock.Now())
		t.putInode(e, in)
		return nil
	})
	if err != nil {
		return 0, err
	}
	fs.writeBehind()
	return len(p), nil
}

// zeroRange clears [lo, hi) in every allocated page of the file
// (holes already read as zeros). Called under the file's exclusive
// lock when the size grows over a previously truncated region.
func (fs *FS) zeroRange(sp *obs.Span, in Inode, lo, hi int64, lock uint64) {
	for cur := lo; cur < hi; {
		pageAddr, inPage, ok := fs.filePageAddr(in, cur)
		n := int64(BlockSize) - inPage
		if cur+n > hi {
			n = hi - cur
		}
		if ok {
			pe, cached := fs.data.Lookup(pageAddr)
			if !cached {
				var err error
				pe, err = fs.readData(sp, pageAddr, lock)
				if err != nil {
					return
				}
			}
			fs.data.Mutate(func() { clear(pe.Data[inPage : inPage+n]) })
			fs.data.MarkDirty(pe, 0)
		}
		cur += n
	}
}

// ReadAt reads into p from byte offset off. Holes read as zeros;
// reads past EOF return io.EOF. Sequential reads trigger read-ahead
// when enabled.
func (f *File) ReadAt(p []byte, off int64) (n int, err error) {
	err = f.fs.traced("read", func(sp *obs.Span) error {
		var e error
		n, e = f.readAt(sp, p, off)
		return e
	})
	return n, err
}

func (f *File) readAt(sp *obs.Span, p []byte, off int64) (int, error) {
	fs := f.fs
	if err := fs.usable(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, ErrInval
	}
	fs.chargeOp(len(p))
	fs.accountBytes(sp, 0, len(p))
	lock := InodeLock(f.inum)

	fs.raMu.Lock()
	sequential := fs.raNext[f.inum] == off && off > 0
	if !sequential {
		// A new pass (a re-read, or a reused inum) starts a new
		// read-ahead window; the old high-water mark would hold the
		// next prefetch past the end of the file.
		delete(fs.raHigh, f.inum)
	}
	ra := fs.raPages
	fs.raMu.Unlock()

	// If our lock was revoked while a prefetch is still in flight, the
	// in-flight I/O is already wasted — and, as in the paper's UFS-
	// derived implementation, the reader cannot issue its next lock
	// request until that work completes ("the readers are doing extra
	// work, they cannot make lock requests at the same rate as the
	// writer", §9.4).
	if ra > 0 && fs.clerk.Held(lock) == lockservice.None {
		for {
			fs.raMu.Lock()
			busy := fs.raBusy[f.inum] > 0
			fs.raMu.Unlock()
			if !busy {
				break
			}
			fs.w.Clock.Sleep(time.Millisecond)
		}
	}

	n := 0
	var readErr error
	err := fs.withLocks(sp, []lockReq{{lock, lockservice.Shared}}, false, func(t *txn) error {
		_, in, err := fs.loadInode(sp, f.inum)
		if err != nil {
			return err
		}
		if in.Type == TypeDir {
			return ErrIsDir
		}
		if off >= in.Size {
			readErr = io.EOF
			return nil
		}
		want := int64(len(p))
		if off+want > in.Size {
			want = in.Size - off
			readErr = io.EOF
		}
		for int64(n) < want {
			cur := off + int64(n)
			pageAddr, inPage, ok := fs.filePageAddr(in, cur)
			chunk := int(int64(BlockSize) - inPage%BlockSize)
			if !ok {
				// Hole: zero fill up to the next page boundary.
				if int64(chunk) > want-int64(n) {
					chunk = int(want - int64(n))
				}
				clear(p[n : n+chunk])
				n += chunk
				continue
			}
			pe, cached := fs.data.Lookup(pageAddr)
			if !cached {
				// Cluster the miss: fetch as many contiguous missing
				// pages of this request as possible with one Petal
				// read (the mirror image of clustered write-back).
				run := int64(1)
				maxRun := (want - int64(n) + inPage + BlockSize - 1) / BlockSize
				for run < maxRun {
					a2, _, ok2 := fs.filePageAddr(in, cur-inPage+run*BlockSize)
					if !ok2 || a2 != pageAddr+run*BlockSize {
						break
					}
					if _, hit := fs.data.Lookup(a2); hit {
						break
					}
					run++
				}
				var err error
				pe, err = fs.readDataRun(sp, pageAddr, int(run), lock)
				if err != nil {
					return err
				}
			}
			if int64(chunk) > want-int64(n) {
				chunk = int(want - int64(n))
			}
			copy(p[n:n+chunk], pe.Data[inPage:])
			n += chunk
		}
		// Approximate atime (§2.1): remembered in memory only and
		// folded into the inode the next time it is logged, "to avoid
		// doing a metadata write for every data read".
		fs.mu.Lock()
		fs.atimes[f.inum] = int64(fs.w.Clock.Now())
		fs.mu.Unlock()

		if sequential && ra > 0 {
			fs.maybePrefetch(f.inum, in, off+int64(n), ra)
		}
		return nil
	})
	fs.raMu.Lock()
	fs.raNext[f.inum] = off + int64(n)
	fs.raMu.Unlock()
	if err != nil {
		return n, err
	}
	return n, readErr
}

// maybePrefetch starts (at most one per inode) an asynchronous
// prefetch of the next window beyond the read-ahead high-water mark.
// This is the UFS-style read-ahead whose interaction with write
// contention the paper's Figure 8 measures: the prefetched pages are
// discarded when the lock is revoked, and the wasted work slows the
// reader's lock requests.
func (fs *FS) maybePrefetch(inum int64, in Inode, readPos int64, pages int) {
	end := readPos + int64(pages)*BlockSize
	if end > in.Size {
		end = in.Size
	}
	fs.raMu.Lock()
	defer fs.raMu.Unlock()
	from := fs.raHigh[inum]
	if from < readPos {
		from = readPos
	}
	// Half-window batches, two in flight: each prefetch read spans
	// several chunks (transferred chunk-parallel by the Petal driver)
	// and the second run overlaps the first, so the consumer rarely
	// stalls on disk latency.
	batch := int64(pages) * BlockSize / 2
	if batch < BlockSize {
		batch = BlockSize
	}
	to := from + batch
	if to > end {
		to = end
	}
	if fs.raBusy[inum] >= 2 || from >= end {
		return
	}
	end = to

	lock := InodeLock(inum)
	if !fs.goBackground(func() {
		defer func() {
			fs.raMu.Lock()
			fs.raBusy[inum]--
			fs.raMu.Unlock()
		}()
		// Collect the window's contiguous missing runs and fetch them
		// all with one scatter-gather read. The fetch itself runs
		// WITHOUT holding the lock — like the paper's UFS-derived
		// read-ahead — so if the lock is revoked meanwhile, the fetched
		// data "must be discarded, and the work to read it turns out to
		// have been wasted" (§9.4). The lock is only touched briefly at
		// insert time to guarantee no stale page ever enters the cache.
		//
		// The pages are claimed in readDataRun's single-flight table,
		// so a foreground read that reaches them waits for this fetch
		// instead of reading them a second time.
		var exts []petal.ReadExtent
		total := 0
		missing := func(pageAddr int64) bool { // under fetchMu
			_, cached := fs.data.Lookup(pageAddr)
			_, busy := fs.inflight[pageAddr]
			return !cached && !busy
		}
		ch := make(chan struct{})
		fs.fetchMu.Lock()
		for off := from; off < end; {
			pageAddr, _, ok := fs.filePageAddr(in, off)
			if !ok || !missing(pageAddr) {
				off += BlockSize
				continue
			}
			run := int64(1)
			for off+run*BlockSize < end {
				a2, _, ok2 := fs.filePageAddr(in, off+run*BlockSize)
				if !ok2 || a2 != pageAddr+run*BlockSize || !missing(a2) {
					break
				}
				run++
			}
			for i := int64(0); i < run; i++ {
				fs.inflight[pageAddr+i*BlockSize] = ch
			}
			exts = append(exts, petal.ReadExtent{Off: pageAddr, Dst: make([]byte, run*BlockSize)})
			total += int(run * BlockSize)
			off += run * BlockSize
		}
		fs.fetchMu.Unlock()
		if len(exts) == 0 {
			return
		}
		defer func() {
			fs.fetchMu.Lock()
			for _, e := range exts {
				for pa := e.Off; pa < e.Off+int64(len(e.Dst)); pa += BlockSize {
					delete(fs.inflight, pa)
				}
			}
			fs.fetchMu.Unlock()
			close(ch)
		}()
		if err := fs.pc.ReadV(fs.vd, exts); err != nil {
			return
		}
		fs.m.bytesRead.Add(int64(total))
		// Validity gate: only while we still hold the lock may the
		// fetched pages enter the cache.
		if fs.clerk.TryLock(lock, lockservice.Shared) {
			for _, e := range exts {
				for i := int64(0); i < int64(len(e.Dst))/BlockSize; i++ {
					pa := e.Off + i*BlockSize
					if _, hit := fs.data.Lookup(pa); hit {
						continue
					}
					fs.data.Insert(pa, e.Dst[i*BlockSize:(i+1)*BlockSize], lock)
				}
			}
			fs.clerk.Unlock(lock)
			fs.m.raHits.Inc()
		} else {
			// Lock lost mid-prefetch: the data is discarded.
			fs.m.raWasted.Add(int64(total))
		}
	}) {
		return
	}
	// The goroutine's decrement waits for raMu, so it follows these.
	fs.raBusy[inum]++
	fs.raHigh[inum] = to
}

// Truncate sets the file's size, freeing (and for the large block,
// decommitting) storage beyond it.
func (f *File) Truncate(size int64) error {
	return f.fs.traced("truncate", func(sp *obs.Span) error { return f.truncate(sp, size) })
}

func (f *File) truncate(sp *obs.Span, size int64) error {
	fs := f.fs
	if err := fs.usable(); err != nil {
		return err
	}
	if size < 0 || size > DirectBytes+fs.lay.LargeBlockSize {
		return ErrInval
	}
	fs.chargeOp(0)
	lock := InodeLock(f.inum)
	return fs.withLocks(sp, []lockReq{{lock, lockservice.Exclusive}}, true, func(t *txn) error {
		t.pageOwner = lock
		e, in, err := fs.loadInode(sp, f.inum)
		if err != nil {
			return err
		}
		if in.Type != TypeFile {
			return ErrIsDir
		}
		if size >= in.Size {
			// Growing: any allocated bytes in the new region are stale
			// remnants and must read as zeros.
			fs.zeroRange(sp, in, in.Size, size, lock)
			in.Size = size
			in.Mtime = int64(fs.w.Clock.Now())
			t.putInode(e, in)
			return nil
		}
		var frees []freeSpec
		for slot := 0; slot < NumDirect; slot++ {
			blockStart := int64(slot) * BlockSize
			if in.Small[slot] != 0 && blockStart >= size {
				frees = append(frees, freeSpec{classDataSmall, in.Small[slot] - 1})
				fs.data.Invalidate(fs.lay.SmallAddr(in.Small[slot] - 1))
				in.Small[slot] = 0
			}
		}
		freeLarge := in.Large != 0 && size <= DirectBytes
		var largeIdx int64 = -1
		if freeLarge {
			largeIdx = in.Large - 1
			frees = append(frees, freeSpec{classLarge, largeIdx})
			in.Large = 0
		}
		if len(frees) > 0 {
			if err := fs.freeObjs(t, frees); err != nil {
				return err
			}
		}
		// Zero the now-dead tail of the boundary page so future
		// extension reads zeros.
		if size%BlockSize != 0 {
			if pageAddr, inPage, ok := fs.filePageAddr(in, size); ok {
				if pe, err := fs.readData(sp, pageAddr, lock); err == nil {
					fs.data.Mutate(func() { clear(pe.Data[inPage:]) })
					fs.data.MarkDirty(pe, 0)
				}
			}
		}
		in.Size = size
		in.Mtime = int64(fs.w.Clock.Now())
		t.putInode(e, in)
		if largeIdx >= 0 {
			_ = fs.pc.Decommit(sp, fs.vd, fs.lay.LargeAddr(largeIdx), fs.lay.LargeBlockSize)
		}
		return nil
	})
}

// Sync is fsync: force the log and write back this file's dirty
// blocks ("a user can get better consistency semantics by calling
// fsync at suitable checkpoints", §4).
func (f *File) Sync() error {
	return f.fs.traced("fsync", f.fsync)
}

func (f *File) fsync(sp *obs.Span) error {
	fs := f.fs
	if err := fs.usable(); err != nil {
		return err
	}
	if err := fs.log.FlushIn(sp); err != nil {
		return err
	}
	fs.mu.Lock()
	if fs.appended > fs.flushed {
		fs.flushed = fs.appended
	}
	fs.mu.Unlock()
	lock := InodeLock(f.inum)
	firstErr := fs.flushRuns(sp, fs.meta, fs.meta.DirtyByOwner(lock))
	if err := fs.flushRuns(sp, fs.data, fs.data.DirtyByOwner(lock)); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
