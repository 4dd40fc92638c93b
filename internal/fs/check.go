package fs

import (
	"fmt"

	"frangipani/internal/petal"
)

// Check is the offline metadata consistency checker — the fsck-like
// "metadata consistency check and repair tool" the paper names as
// unimplemented future work (§4). It walks the namespace from the
// root over a quiesced (or snapshotted) virtual disk and verifies:
//
//   - directory entries reference allocated inodes of matching type;
//   - link counts match the namespace;
//   - no data block or inode is referenced twice;
//   - referenced blocks and inodes have their allocation bits set;
//   - allocation bits within the visited bitmap sectors that no
//     walked object accounts for are reported as leaks.
//
// It reads Petal directly, without locks: run it only against a
// snapshot or an unmounted file system.

// Problem is one inconsistency found by Check.
type Problem struct {
	Kind string
	Msg  string
}

// Report summarizes a Check run.
type Report struct {
	Inodes   int
	Dirs     int
	Files    int
	Symlinks int
	Blocks   int
	Problems []Problem
}

// OK reports whether no problems were found.
func (r *Report) OK() bool { return len(r.Problems) == 0 }

func (r *Report) addf(kind, format string, args ...any) {
	r.Problems = append(r.Problems, Problem{Kind: kind, Msg: fmt.Sprintf(format, args...)})
}

// checker carries the walk state.
type checker struct {
	pc  *petal.Client
	vd  petal.VDiskID
	lay Layout
	rep *Report

	nlinks   map[int64]int  // inum -> links found in namespace
	seenIno  map[int64]bool // inodes visited
	blockRef map[int64]string
	bits     map[int64]bool // allocation bits that must be set
}

// Check verifies the file system on vd.
func Check(pc *petal.Client, vd petal.VDiskID, lay Layout) (*Report, error) {
	c := &checker{
		pc: pc, vd: vd, lay: lay,
		rep:      &Report{},
		nlinks:   make(map[int64]int),
		seenIno:  make(map[int64]bool),
		blockRef: make(map[int64]string),
		bits:     make(map[int64]bool),
	}
	psec := make([]byte, SectorSize)
	if err := pc.Read(nil, vd, lay.ParamsBase, psec); err != nil {
		return nil, err
	}
	if _, err := decodeParams(psec); err != nil {
		return nil, err
	}
	c.nlinks[RootInum] = 2 // root references itself
	if err := c.walkDir(RootInum, "/"); err != nil {
		return nil, err
	}
	// Link counts.
	for inum, want := range c.nlinks {
		in, err := c.readInode(inum)
		if err != nil {
			continue
		}
		if int(in.Nlink) != want {
			c.rep.addf("nlink", "inode %d: nlink=%d, namespace says %d", inum, in.Nlink, want)
		}
	}
	// Allocation bits: everything referenced must be marked.
	visited := make(map[int64][]byte) // bitmap sector addr -> data
	for bit := range c.bits {
		addr, byteOff, mask := c.lay.bitLoc(bit)
		sec, ok := visited[addr]
		if !ok {
			sec = make([]byte, SectorSize)
			if err := pc.Read(nil, vd, addr, sec); err != nil {
				return nil, err
			}
			visited[addr] = sec
		}
		if sec[byteOff]&mask == 0 {
			c.rep.addf("bitmap", "bit %d clear but object referenced", bit)
		}
	}
	// Leaks: set bits in visited sectors that nothing references.
	for addr, sec := range visited {
		sectorIdx := (addr - c.lay.BitmapBase) / SectorSize
		base := sectorIdx * bitsPerSector
		for i := int64(0); i < bitsPerSector; i++ {
			byteOff, mask := int(i/8), byte(1)<<(i%8)
			if sec[byteOff]&mask != 0 && !c.bits[base+i] {
				class, idx := c.lay.objForBit(base + i)
				c.rep.addf("leak", "bit %d set but unreferenced (%v %d)", base+i, class, idx)
			}
		}
	}
	return c.rep, nil
}

func (c *checker) readInode(inum int64) (Inode, error) {
	sec := make([]byte, SectorSize)
	if err := c.pc.Read(nil, c.vd, c.lay.InodeAddr(inum), sec); err != nil {
		return Inode{}, err
	}
	return decodeInode(sec)
}

// claimBlocks registers an inode's block pointers, reporting
// double-references.
func (c *checker) claimBlocks(inum int64, in Inode, path string) {
	claim := func(key int64, bit int64, what string) {
		if prev, dup := c.blockRef[key]; dup {
			c.rep.addf("dup-block", "%s of inode %d (%s) also referenced by %s", what, inum, path, prev)
			return
		}
		c.blockRef[key] = path
		c.bits[bit] = true
		c.rep.Blocks++
	}
	class := classDataSmall
	if in.Type == TypeDir {
		class = classMetaSmall
	}
	for slot, ptr := range in.Small {
		if ptr != 0 {
			claim(c.lay.SmallAddr(ptr-1), c.lay.bitFor(class, ptr-1),
				fmt.Sprintf("small[%d]", slot))
		}
	}
	if in.Large != 0 {
		claim(c.lay.LargeAddr(in.Large-1), c.lay.bitFor(classLarge, in.Large-1), "large")
	}
}

func (c *checker) walkDir(inum int64, path string) error {
	if c.seenIno[inum] {
		c.rep.addf("dir-loop", "directory %d (%s) reached twice", inum, path)
		return nil
	}
	c.seenIno[inum] = true
	c.bits[c.lay.bitFor(classInode, inum)] = true
	in, err := c.readInode(inum)
	if err != nil {
		c.rep.addf("inode", "directory inode %d (%s): %v", inum, path, err)
		return nil
	}
	if in.Type != TypeDir {
		c.rep.addf("type", "%s: inode %d is %v, expected dir", path, inum, in.Type)
		return nil
	}
	c.rep.Inodes++
	c.rep.Dirs++
	c.claimBlocks(inum, in, path)

	// Read the directory content directly.
	for off := int64(0); off < in.Size; off += SectorSize {
		pageAddr, inPage, ok := pageAddrFor(c.lay, in, off)
		if !ok {
			c.rep.addf("dir-hole", "%s: directory offset %d has no block", path, off)
			continue
		}
		sec := make([]byte, SectorSize)
		if err := c.pc.Read(nil, c.vd, pageAddr+(inPage&^(SectorSize-1)), sec); err != nil {
			return err
		}
		ents, err := dirSectorEntries(sec)
		if err != nil {
			c.rep.addf("dir-sector", "%s: offset %d: %v", path, off, err)
			continue
		}
		for _, ent := range ents {
			child := path + ent.Name
			cin, err := c.readInode(ent.Inum)
			if err != nil {
				c.rep.addf("entry", "%s: unreadable inode %d: %v", child, ent.Inum, err)
				continue
			}
			if cin.Type != ent.Type {
				c.rep.addf("type", "%s: entry says %v, inode %d says %v", child, ent.Type, ent.Inum, cin.Type)
			}
			if cin.Type == TypeFree {
				c.rep.addf("entry", "%s: references free inode %d", child, ent.Inum)
				continue
			}
			switch cin.Type {
			case TypeDir:
				c.nlinks[ent.Inum] += 2 // entry + self
				c.nlinks[inum]++        // child's parent reference
				if err := c.walkDir(ent.Inum, child+"/"); err != nil {
					return err
				}
			default:
				c.nlinks[ent.Inum]++
				if !c.seenIno[ent.Inum] {
					c.seenIno[ent.Inum] = true
					c.bits[c.lay.bitFor(classInode, ent.Inum)] = true
					c.rep.Inodes++
					if cin.Type == TypeSymlink {
						c.rep.Symlinks++
					} else {
						c.rep.Files++
					}
					c.claimBlocks(ent.Inum, cin, child)
				}
			}
		}
	}
	return nil
}

// pageAddrFor is filePageAddr without an FS instance.
func pageAddrFor(lay Layout, in Inode, off int64) (int64, int64, bool) {
	slot, inBlock := blockFor(off)
	if slot >= 0 {
		if in.Small[slot] == 0 {
			return 0, 0, false
		}
		return lay.SmallAddr(in.Small[slot] - 1), inBlock, true
	}
	if in.Large == 0 || inBlock >= lay.LargeBlockSize {
		return 0, 0, false
	}
	base := lay.LargeAddr(in.Large - 1)
	return base + (inBlock &^ (BlockSize - 1)), inBlock & (BlockSize - 1), true
}
