package fs

import (
	"errors"
	"sort"
	"strings"

	"frangipani/internal/cache"
	"frangipani/internal/lockservice"
	"frangipani/internal/obs"
)

// maxRetries bounds the §5 retry loop ("it releases the locks and
// loops back to repeat phase one").
const maxRetries = 16

// maxSymlinkDepth bounds symlink chains during resolution.
const maxSymlinkDepth = 8

// Info describes a file for Stat.
type Info struct {
	Inum  int64
	Type  FileType
	Size  int64
	Nlink int
	Mtime int64
	Ctime int64
	Atime int64
}

// lockReq is one lock an operation needs.
type lockReq struct {
	id   uint64
	mode lockservice.Mode
}

// withLocks implements §5's deadlock-avoidance protocol: the caller
// has determined (phase one) which locks it needs; withLocks sorts
// them, acquires each in turn, runs fn (which must re-validate what
// phase one read and may return ErrRetry), commits the transaction,
// and releases everything. Mutating operations additionally hold the
// global backup barrier lock in shared mode (§8).
func (fs *FS) withLocks(sp *obs.Span, reqs []lockReq, mutating bool, fn func(t *txn) error) error {
	if mutating {
		reqs = append(reqs, lockReq{LockBarrier, lockservice.Shared})
	}
	sort.Slice(reqs, func(a, b int) bool { return reqs[a].id < reqs[b].id })
	// Deduplicate, keeping the strongest mode.
	dedup := reqs[:0]
	for _, r := range reqs {
		if len(dedup) > 0 && dedup[len(dedup)-1].id == r.id {
			if r.mode > dedup[len(dedup)-1].mode {
				dedup[len(dedup)-1].mode = r.mode
			}
			continue
		}
		dedup = append(dedup, r)
	}
	var held []uint64
	for _, r := range dedup {
		if err := fs.clerk.LockIn(sp, r.id, r.mode); err != nil {
			for i := len(held) - 1; i >= 0; i-- {
				fs.clerk.Unlock(held[i])
			}
			return err
		}
		held = append(held, r.id)
	}
	t := fs.begin(sp)
	err := fn(t)
	if err == nil {
		err = t.commit()
	}
	t.releaseSegs()
	for i := len(held) - 1; i >= 0; i-- {
		fs.clerk.Unlock(held[i])
	}
	return err
}

// retrying wraps fn to run until it stops returning ErrRetry.
func (fs *FS) retrying(fn func(sp *obs.Span) error) func(sp *obs.Span) error {
	return func(sp *obs.Span) error {
		for i := 0; i < maxRetries; i++ {
			err := fn(sp)
			if !errors.Is(err, ErrRetry) {
				return err
			}
			fs.m.retries.Inc()
		}
		return ErrRetry
	}
}

// ---- inode access ----

// loadInode reads and decodes an inode under its (already held)
// lock.
func (fs *FS) loadInode(sp *obs.Span, inum int64) (*cache.Entry, Inode, error) {
	e, err := fs.readMeta(sp, fs.lay.InodeAddr(inum), InodeLock(inum))
	if err != nil {
		return nil, Inode{}, err
	}
	in, err := decodeInode(e.Data)
	return e, in, err
}

// putInode writes the inode back through the transaction, folding in
// any pending approximate atime.
func (t *txn) putInode(e *cache.Entry, in Inode) {
	inum := (e.Addr - t.fs.lay.InodeBase) / InodeSize
	t.fs.mu.Lock()
	if at, ok := t.fs.atimes[inum]; ok {
		if at > in.Atime {
			in.Atime = at
		}
		delete(t.fs.atimes, inum)
	}
	t.fs.mu.Unlock()
	tmp := make([]byte, offSymData+MaxSymlink)
	copy(tmp, e.Data[:len(tmp)])
	encodeInode(in, tmp)
	t.update(e, 0, tmp)
}

// ---- path resolution (phase one) ----

func splitPath(path string) ([]string, error) {
	if path == "" {
		return nil, ErrInval
	}
	var parts []string
	for _, p := range strings.Split(path, "/") {
		switch p {
		case "", ".":
		case "..":
			if len(parts) == 0 {
				return nil, ErrInval
			}
			parts = parts[:len(parts)-1]
		default:
			if len(p) > MaxName {
				return nil, ErrNameTooLong
			}
			parts = append(parts, p)
		}
	}
	return parts, nil
}

// lookupOnce finds name in directory inum with a shared lock held
// only for the lookup (phase-one style).
func (fs *FS) lookupOnce(sp *obs.Span, dir int64, name string) (DirEntry, error) {
	defer fs.lat("lookup")()
	var out DirEntry
	err := fs.withLocks(sp, []lockReq{{InodeLock(dir), lockservice.Shared}}, false, func(t *txn) error {
		_, in, err := fs.loadInode(sp, dir)
		if err != nil {
			return err
		}
		if in.Type != TypeDir {
			return ErrNotDir
		}
		e, _, _, err := fs.dirFind(sp, dir, in, name)
		if err != nil {
			return err
		}
		out = e
		return nil
	})
	return out, err
}

// namei resolves a path to an inode number, following symlinks.
func (fs *FS) namei(sp *obs.Span, path string, followLast bool) (int64, error) {
	return fs.nameiDepth(sp, path, followLast, 0)
}

func (fs *FS) nameiDepth(sp *obs.Span, path string, followLast bool, depth int) (int64, error) {
	if depth > maxSymlinkDepth {
		return -1, ErrInval
	}
	parts, err := splitPath(path)
	if err != nil {
		return -1, err
	}
	cur := int64(RootInum)
	for i, name := range parts {
		ent, err := fs.lookupOnce(sp, cur, name)
		if err != nil {
			return -1, err
		}
		last := i == len(parts)-1
		if ent.Type == TypeSymlink && (!last || followLast) {
			target, err := fs.readlinkInum(sp, ent.Inum)
			if err != nil {
				return -1, err
			}
			rest := strings.Join(parts[i+1:], "/")
			var next string
			if strings.HasPrefix(target, "/") {
				next = target + "/" + rest
			} else {
				next = strings.Join(parts[:i], "/") + "/" + target + "/" + rest
			}
			return fs.nameiDepth(sp, next, followLast, depth+1)
		}
		cur = ent.Inum
	}
	return cur, nil
}

// nameiParent resolves all but the last component, returning the
// parent directory inode and the final name.
func (fs *FS) nameiParent(sp *obs.Span, path string) (int64, string, error) {
	parts, err := splitPath(path)
	if err != nil {
		return -1, "", err
	}
	if len(parts) == 0 {
		return -1, "", ErrInval
	}
	dirPath := strings.Join(parts[:len(parts)-1], "/")
	dir, err := fs.namei(sp, "/"+dirPath, true)
	if err != nil {
		return -1, "", err
	}
	return dir, parts[len(parts)-1], nil
}

func (fs *FS) readlinkInum(sp *obs.Span, inum int64) (string, error) {
	var target string
	err := fs.withLocks(sp, []lockReq{{InodeLock(inum), lockservice.Shared}}, false, func(t *txn) error {
		_, in, err := fs.loadInode(sp, inum)
		if err != nil {
			return err
		}
		if in.Type != TypeSymlink {
			return ErrInval
		}
		target = in.Symlink
		return nil
	})
	return target, err
}

// ---- directory content helpers (run under the dir's lock) ----

// dirSectorAddr maps directory byte offset (sector-aligned) to the
// Petal sector address.
func (fs *FS) dirSectorAddr(in Inode, off int64) (int64, bool) {
	pageAddr, inPage, ok := fs.filePageAddr(in, off)
	if !ok {
		return 0, false
	}
	return pageAddr + (inPage &^ (SectorSize - 1)), true
}

// dirFind scans a directory for name. dirInum's lock must be held;
// the content sectors are cached under it so revocation flushes and
// invalidates them with the directory.
func (fs *FS) dirFind(sp *obs.Span, dirInum int64, in Inode, name string) (DirEntry, int64, int, error) {
	for off := int64(0); off < in.Size; off += SectorSize {
		addr, ok := fs.dirSectorAddr(in, off)
		if !ok {
			return DirEntry{}, 0, 0, ErrBadDir
		}
		e, err := fs.readMeta(sp, addr, InodeLock(dirInum))
		if err != nil {
			return DirEntry{}, 0, 0, err
		}
		if ent, pos, found := dirSectorFind(e.Data, name); found {
			return ent, addr, pos, nil
		}
	}
	return DirEntry{}, 0, 0, ErrNotExist
}

// dirEntries lists a directory's entries (dir lock held). The content
// sector addresses are collected up front and any misses fetched with
// one scatter-gather read, so a cold scan costs one Petal round trip
// instead of one per sector.
func (fs *FS) dirEntries(sp *obs.Span, dirInum int64, in Inode) ([]DirEntry, error) {
	lockID := InodeLock(dirInum)
	var fills []metaFill
	for off := int64(0); off < in.Size; off += SectorSize {
		addr, ok := fs.dirSectorAddr(in, off)
		if !ok {
			return nil, ErrBadDir
		}
		fills = append(fills, metaFill{addr: addr, owner: lockID})
	}
	if err := fs.readMetaBatch(sp, fills); err != nil {
		return nil, err
	}
	var out []DirEntry
	for _, f := range fills {
		e, err := fs.readMeta(sp, f.addr, lockID)
		if err != nil {
			return nil, err
		}
		es, err := dirSectorEntries(e.Data)
		if err != nil {
			return nil, err
		}
		out = append(out, es...)
	}
	return out, nil
}

// dirAdd inserts an entry, extending the directory by a sector (and
// allocating metadata blocks) as needed. dirInum's lock is held
// exclusive; inodeE is the dir's inode cache entry.
func (fs *FS) dirAdd(t *txn, dirInum int64, inodeE *cache.Entry, in *Inode, ent DirEntry) error {
	need := entryLen(ent.Name)
	lockID := InodeLock(dirInum)
	// Try existing sectors.
	for off := int64(0); off < in.Size; off += SectorSize {
		addr, ok := fs.dirSectorAddr(*in, off)
		if !ok {
			return ErrBadDir
		}
		e, err := fs.readMeta(t.sp, addr, lockID)
		if err != nil {
			return err
		}
		if dirSectorSpace(e.Data) >= need {
			tmp := append([]byte(nil), e.Data[:dirDataEnd]...)
			dirSectorAppend(tmp, ent)
			t.update(e, 0, tmp)
			return nil
		}
	}
	// Extend by one sector, allocating a block when crossing a 4 KB
	// boundary.
	off := in.Size
	if _, _, ok := fs.filePageAddr(*in, off); !ok {
		if err := fs.ensureBlock(t, in, off, true); err != nil {
			return err
		}
	}
	addr, ok := fs.dirSectorAddr(*in, off)
	if !ok {
		return ErrBadDir
	}
	e, err := fs.readMeta(t.sp, addr, lockID)
	if err != nil {
		return err
	}
	// Initialize the fresh sector (it may hold stale metadata from a
	// previous life) and append.
	tmp := make([]byte, dirDataEnd)
	dirSectorAppend(tmp, ent)
	t.update(e, 0, tmp)
	in.Size = off + SectorSize
	in.Mtime = int64(fs.w.Clock.Now())
	t.putInode(inodeE, *in)
	return nil
}

// dirRemove deletes name from the directory (lock held exclusive).
func (fs *FS) dirRemove(t *txn, dirInum int64, in Inode, name string) error {
	addr := int64(0)
	pos := 0
	found := false
	lockID := InodeLock(dirInum)
	for off := int64(0); off < in.Size; off += SectorSize {
		a, ok := fs.dirSectorAddr(in, off)
		if !ok {
			return ErrBadDir
		}
		e, err := fs.readMeta(t.sp, a, lockID)
		if err != nil {
			return err
		}
		if _, p, f := dirSectorFind(e.Data, name); f {
			addr, pos, found = a, p, true
			break
		}
	}
	if !found {
		return ErrNotExist
	}
	e, err := fs.readMeta(t.sp, addr, lockID)
	if err != nil {
		return err
	}
	tmp := append([]byte(nil), e.Data[:dirDataEnd]...)
	dirSectorRemove(tmp, pos)
	t.update(e, 0, tmp)
	return nil
}

// dirEmpty reports whether a directory has no entries.
func (fs *FS) dirEmpty(sp *obs.Span, dirInum int64, in Inode) (bool, error) {
	es, err := fs.dirEntries(sp, dirInum, in)
	return len(es) == 0, err
}

// ---- operations ----

// Stat returns metadata for the object at path.
func (fs *FS) Stat(path string) (Info, error) {
	if err := fs.usable(); err != nil {
		return Info{}, err
	}
	fs.chargeOp(0)
	var info Info
	do := func(sp *obs.Span) error {
		inum, err := fs.namei(sp, path, true)
		if err != nil {
			return err
		}
		return fs.withLocks(sp, []lockReq{{InodeLock(inum), lockservice.Shared}}, false, func(t *txn) error {
			_, in, err := fs.loadInode(sp, inum)
			if err != nil {
				return err
			}
			if in.Type == TypeFree {
				return ErrRetry // removed between phases
			}
			info = Info{
				Inum: inum, Type: in.Type, Size: in.Size,
				Nlink: int(in.Nlink), Mtime: in.Mtime, Ctime: in.Ctime, Atime: in.Atime,
			}
			return nil
		})
	}
	err := fs.traced("stat", fs.retrying(do))
	return info, err
}

// ReadDir lists the entries of the directory at path.
func (fs *FS) ReadDir(path string) ([]DirEntry, error) {
	if err := fs.usable(); err != nil {
		return nil, err
	}
	fs.chargeOp(0)
	var out []DirEntry
	do := func(sp *obs.Span) error {
		inum, err := fs.namei(sp, path, true)
		if err != nil {
			return err
		}
		return fs.withLocks(sp, []lockReq{{InodeLock(inum), lockservice.Shared}}, false, func(t *txn) error {
			_, in, err := fs.loadInode(sp, inum)
			if err != nil {
				return err
			}
			if in.Type != TypeDir {
				return ErrNotDir
			}
			out, err = fs.dirEntries(sp, inum, in)
			return err
		})
	}
	err := fs.traced("readdir", fs.retrying(do))
	return out, err
}

// ReadDirPlus lists the directory at path and stats every entry in
// one pass. A ReadDir followed by a Stat per entry costs one lock
// round and — on a cold cache — one Petal read per inode sector;
// ReadDirPlus acquires the directory and all entry locks in a single
// sorted pass (§5's deadlock-avoidance protocol) and fetches every
// missing inode sector with one scatter-gather ReadV. Infos align
// index-for-index with the returned entries.
func (fs *FS) ReadDirPlus(path string) ([]DirEntry, []Info, error) {
	if err := fs.usable(); err != nil {
		return nil, nil, err
	}
	fs.chargeOp(0)
	var ents []DirEntry
	var infos []Info
	do := func(sp *obs.Span) error {
		inum, err := fs.namei(sp, path, true)
		if err != nil {
			return err
		}
		// Phase one: list under the directory lock alone to learn which
		// inode locks the stat pass needs.
		var listed []DirEntry
		err = fs.withLocks(sp, []lockReq{{InodeLock(inum), lockservice.Shared}}, false, func(t *txn) error {
			_, in, err := fs.loadInode(sp, inum)
			if err != nil {
				return err
			}
			if in.Type != TypeDir {
				return ErrNotDir
			}
			listed, err = fs.dirEntries(sp, inum, in)
			return err
		})
		if err != nil {
			return err
		}
		// Phase two: the directory plus every entry lock, then
		// re-validate the listing (it may have changed between phases)
		// and batch-fetch the inodes.
		reqs := make([]lockReq, 0, len(listed)+1)
		reqs = append(reqs, lockReq{InodeLock(inum), lockservice.Shared})
		for _, ent := range listed {
			reqs = append(reqs, lockReq{InodeLock(ent.Inum), lockservice.Shared})
		}
		return fs.withLocks(sp, reqs, false, func(t *txn) error {
			_, in, err := fs.loadInode(sp, inum)
			if err != nil {
				return err
			}
			if in.Type != TypeDir {
				return ErrNotDir
			}
			ents, err = fs.dirEntries(sp, inum, in)
			if err != nil {
				return err
			}
			if !sameEntries(ents, listed) {
				return ErrRetry // directory changed; lock set is stale
			}
			fills := make([]metaFill, len(ents))
			for i, ent := range ents {
				fills[i] = metaFill{addr: fs.lay.InodeAddr(ent.Inum), owner: InodeLock(ent.Inum)}
			}
			if err := fs.readMetaBatch(sp, fills); err != nil {
				return err
			}
			infos = infos[:0]
			for _, ent := range ents {
				_, ein, err := fs.loadInode(sp, ent.Inum)
				if err != nil {
					return err
				}
				if ein.Type == TypeFree {
					return ErrRetry // entry freed under a raced rename/remove
				}
				infos = append(infos, Info{
					Inum: ent.Inum, Type: ein.Type, Size: ein.Size,
					Nlink: int(ein.Nlink), Mtime: ein.Mtime, Ctime: ein.Ctime, Atime: ein.Atime,
				})
			}
			return nil
		})
	}
	err := fs.traced("readdirplus", fs.retrying(do))
	if err != nil {
		return nil, nil, err
	}
	return ents, infos, nil
}

// sameEntries reports whether two listings name the same entries in
// the same order.
func sameEntries(a, b []DirEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Inum != b[i].Inum || a[i].Name != b[i].Name {
			return false
		}
	}
	return true
}

// create is the shared implementation of Create, Mkdir, and Symlink.
func (fs *FS) create(path string, ftype FileType, symTarget string) (int64, error) {
	if err := fs.usable(); err != nil {
		return -1, err
	}
	fs.chargeOp(0)
	var newInum int64 = -1
	do := func(sp *obs.Span) error {
		dir, name, err := fs.nameiParent(sp, path)
		if err != nil {
			return err
		}
		return fs.withLocks(sp, []lockReq{{InodeLock(dir), lockservice.Exclusive}}, true, func(t *txn) error {
			dirE, din, err := fs.loadInode(sp, dir)
			if err != nil {
				return err
			}
			if din.Type == TypeFree {
				return ErrRetry // parent removed since phase one
			}
			if din.Type != TypeDir {
				return ErrNotDir
			}
			if _, _, _, err := fs.dirFind(sp, dir, din, name); err == nil {
				return ErrExist
			} else if !errors.Is(err, ErrNotExist) {
				return err
			}
			inum, err := fs.allocObj(t, classInode)
			if err != nil {
				return err
			}
			// The new inode's lock cannot be contended (the inode was
			// free, protected by our segment lock), so acquiring it
			// out of order is safe. It is held until after commit.
			if err := t.lockExtra(InodeLock(inum)); err != nil {
				return err
			}
			now := int64(fs.w.Clock.Now())
			nin := Inode{
				Type: ftype, Nlink: 1,
				Mtime: now, Ctime: now, Atime: now,
				Symlink: symTarget,
			}
			if ftype == TypeDir {
				nin.Nlink = 2
			}
			ie, err := fs.readMeta(sp, fs.lay.InodeAddr(inum), InodeLock(inum))
			if err != nil {
				return err
			}
			t.putInode(ie, nin)
			if err := fs.dirAdd(t, dir, dirE, &din, DirEntry{Name: name, Inum: inum, Type: ftype}); err != nil {
				return err
			}
			if ftype == TypeDir {
				din.Nlink++
				din.Mtime = now
				t.putInode(dirE, din)
			}
			newInum = inum
			return nil
		})
	}
	err := fs.traced("create", fs.retrying(do))
	return newInum, err
}

// Create makes an empty regular file.
func (fs *FS) Create(path string) error {
	_, err := fs.create(path, TypeFile, "")
	return err
}

// Mkdir makes an empty directory.
func (fs *FS) Mkdir(path string) error {
	_, err := fs.create(path, TypeDir, "")
	return err
}

// Symlink creates a symbolic link at path pointing to target. The
// target is stored inline in the inode (§3).
func (fs *FS) Symlink(target, path string) error {
	if len(target) > MaxSymlink {
		return ErrNameTooLong
	}
	_, err := fs.create(path, TypeSymlink, target)
	return err
}

// Readlink returns a symlink's target.
func (fs *FS) Readlink(path string) (string, error) {
	if err := fs.usable(); err != nil {
		return "", err
	}
	fs.chargeOp(0)
	sp := fs.rootSpan("")
	inum, err := fs.namei(sp, path, false)
	if err != nil {
		return "", err
	}
	return fs.readlinkInum(sp, inum)
}

// Remove unlinks a file or symlink; Rmdir removes an empty
// directory.
func (fs *FS) Remove(path string) error { return fs.remove(path, false) }

// Rmdir removes an empty directory.
func (fs *FS) Rmdir(path string) error { return fs.remove(path, true) }

func (fs *FS) remove(path string, wantDir bool) error {
	if err := fs.usable(); err != nil {
		return err
	}
	fs.chargeOp(0)
	do := func(sp *obs.Span) error {
		dir, name, err := fs.nameiParent(sp, path)
		if err != nil {
			return err
		}
		ent, err := fs.lookupOnce(sp, dir, name)
		if err != nil {
			return err
		}
		locks := []lockReq{
			{InodeLock(dir), lockservice.Exclusive},
			{InodeLock(ent.Inum), lockservice.Exclusive},
		}
		return fs.withLocks(sp, locks, true, func(t *txn) error {
			dirE, din, err := fs.loadInode(sp, dir)
			if err != nil {
				return err
			}
			if din.Type == TypeFree {
				return ErrRetry
			}
			if din.Type != TypeDir {
				return ErrNotDir
			}
			cur, _, _, err := fs.dirFind(sp, dir, din, name)
			if err != nil {
				if errors.Is(err, ErrNotExist) {
					return ErrRetry // changed since phase one
				}
				return err
			}
			if cur.Inum != ent.Inum {
				return ErrRetry
			}
			tgtE, tin, err := fs.loadInode(sp, ent.Inum)
			if err != nil {
				return err
			}
			if wantDir {
				if tin.Type != TypeDir {
					return ErrNotDir
				}
				empty, err := fs.dirEmpty(sp, ent.Inum, tin)
				if err != nil {
					return err
				}
				if !empty {
					return ErrNotEmpty
				}
			} else if tin.Type == TypeDir {
				return ErrIsDir
			}
			if err := fs.dirRemove(t, dir, din, name); err != nil {
				return err
			}
			now := int64(fs.w.Clock.Now())
			din.Mtime = now
			links := int(tin.Nlink) - 1
			if tin.Type == TypeDir {
				links-- // the removed dir's self-count
				din.Nlink--
			}
			t.putInode(dirE, din)
			if links > 0 {
				tin.Nlink = uint16(links)
				tin.Ctime = now
				t.putInode(tgtE, tin)
				return nil
			}
			return fs.destroyInode(t, ent.Inum, tgtE, tin)
		})
	}
	return fs.traced("remove", fs.retrying(do))
}

// destroyInode frees an inode and all its blocks (lock held
// exclusive), and decommits the Petal space backing the large block.
func (fs *FS) destroyInode(t *txn, inum int64, e *cache.Entry, in Inode) error {
	items := []freeSpec{{classInode, inum}}
	blockClass := classDataSmall
	if in.Type == TypeDir {
		blockClass = classMetaSmall
	}
	for _, s := range in.Small {
		if s != 0 {
			items = append(items, freeSpec{blockClass, s - 1})
		}
	}
	var largeIdx int64 = -1
	if in.Large != 0 {
		largeIdx = in.Large - 1
		items = append(items, freeSpec{classLarge, largeIdx})
	}
	if err := fs.freeObjs(t, items); err != nil {
		return err
	}
	t.putInode(e, Inode{Type: TypeFree})
	// Drop cached data pages; their contents are dead.
	fs.data.InvalidateByOwner(InodeLock(inum))
	if largeIdx >= 0 {
		// Release the physical space behind the large block (§3's
		// decommit primitive).
		_ = fs.pc.Decommit(t.sp, fs.vd, fs.lay.LargeAddr(largeIdx), fs.lay.LargeBlockSize)
	}
	return nil
}

// Rename moves src to dst, replacing a compatible existing dst.
func (fs *FS) Rename(src, dst string) error {
	if err := fs.usable(); err != nil {
		return err
	}
	fs.chargeOp(0)
	// Reject moving a directory into its own subtree (we keep no
	// parent pointers, so the check is lexical).
	if strings.HasPrefix(strings.Trim(dst, "/")+"/", strings.Trim(src, "/")+"/") {
		return ErrInval
	}
	do := func(sp *obs.Span) error {
		sdir, sname, err := fs.nameiParent(sp, src)
		if err != nil {
			return err
		}
		sent, err := fs.lookupOnce(sp, sdir, sname)
		if err != nil {
			return err
		}
		ddir, dname, err := fs.nameiParent(sp, dst)
		if err != nil {
			return err
		}
		dent, derr := fs.lookupOnce(sp, ddir, dname)
		locks := []lockReq{
			{InodeLock(sdir), lockservice.Exclusive},
			{InodeLock(ddir), lockservice.Exclusive},
			{InodeLock(sent.Inum), lockservice.Exclusive},
		}
		if derr == nil {
			locks = append(locks, lockReq{InodeLock(dent.Inum), lockservice.Exclusive})
		}
		return fs.withLocks(sp, locks, true, func(t *txn) error {
			sdE, sdin, err := fs.loadInode(sp, sdir)
			if err != nil {
				return err
			}
			// When source and destination directories coincide, all
			// mutations must go through ONE inode value.
			dd, ddE := &sdin, sdE
			var ddinStore Inode
			if sdir != ddir {
				var e2 *cache.Entry
				e2, ddinStore, err = fs.loadInode(sp, ddir)
				if err != nil {
					return err
				}
				dd, ddE = &ddinStore, e2
			}
			if sdin.Type == TypeFree || dd.Type == TypeFree {
				return ErrRetry
			}
			if sdin.Type != TypeDir || dd.Type != TypeDir {
				return ErrNotDir
			}
			curS, _, _, err := fs.dirFind(sp, sdir, sdin, sname)
			if err != nil || curS.Inum != sent.Inum {
				return ErrRetry
			}
			curD, _, _, derrNow := fs.dirFind(sp, ddir, *dd, dname)
			if (derr == nil) != (derrNow == nil) {
				return ErrRetry
			}
			if derrNow == nil && curD.Inum != dent.Inum {
				return ErrRetry
			}
			_, sin, err := fs.loadInode(sp, sent.Inum)
			if err != nil {
				return err
			}
			now := int64(fs.w.Clock.Now())
			// Replace an existing destination.
			if derrNow == nil {
				dtE, dtin, err := fs.loadInode(sp, dent.Inum)
				if err != nil {
					return err
				}
				if dtin.Type == TypeDir {
					if sin.Type != TypeDir {
						return ErrIsDir
					}
					empty, err := fs.dirEmpty(sp, dent.Inum, dtin)
					if err != nil {
						return err
					}
					if !empty {
						return ErrNotEmpty
					}
				} else if sin.Type == TypeDir {
					return ErrNotDir
				}
				if err := fs.dirRemove(t, ddir, *dd, dname); err != nil {
					return err
				}
				if dtin.Type == TypeDir {
					dd.Nlink--
				}
				if err := fs.destroyInode(t, dent.Inum, dtE, dtin); err != nil {
					return err
				}
			}
			if err := fs.dirRemove(t, sdir, sdin, sname); err != nil {
				return err
			}
			if err := fs.dirAdd(t, ddir, ddE, dd, DirEntry{Name: dname, Inum: sent.Inum, Type: sin.Type}); err != nil {
				return err
			}
			if sin.Type == TypeDir && sdir != ddir {
				sdin.Nlink--
				dd.Nlink++
			}
			sdin.Mtime = now
			dd.Mtime = now
			t.putInode(sdE, sdin)
			if sdir != ddir {
				t.putInode(ddE, *dd)
			}
			return nil
		})
	}
	return fs.traced("rename", fs.retrying(do))
}

// Link creates a hard link to an existing file (not directories).
func (fs *FS) Link(existing, newpath string) error {
	if err := fs.usable(); err != nil {
		return err
	}
	fs.chargeOp(0)
	do := func(sp *obs.Span) error {
		inum, err := fs.namei(sp, existing, true)
		if err != nil {
			return err
		}
		dir, name, err := fs.nameiParent(sp, newpath)
		if err != nil {
			return err
		}
		locks := []lockReq{
			{InodeLock(dir), lockservice.Exclusive},
			{InodeLock(inum), lockservice.Exclusive},
		}
		return fs.withLocks(sp, locks, true, func(t *txn) error {
			dirE, din, err := fs.loadInode(sp, dir)
			if err != nil {
				return err
			}
			if din.Type == TypeFree {
				return ErrRetry
			}
			if din.Type != TypeDir {
				return ErrNotDir
			}
			tE, tin, err := fs.loadInode(sp, inum)
			if err != nil {
				return err
			}
			if tin.Type == TypeDir {
				return ErrIsDir
			}
			if tin.Type == TypeFree {
				return ErrRetry
			}
			if _, _, _, err := fs.dirFind(sp, dir, din, name); err == nil {
				return ErrExist
			} else if !errors.Is(err, ErrNotExist) {
				return err
			}
			if err := fs.dirAdd(t, dir, dirE, &din, DirEntry{Name: name, Inum: inum, Type: tin.Type}); err != nil {
				return err
			}
			tin.Nlink++
			tin.Ctime = int64(fs.w.Clock.Now())
			t.putInode(tE, tin)
			return nil
		})
	}
	return fs.traced("link", fs.retrying(do))
}
