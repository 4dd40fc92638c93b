package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"frangipani"
)

// env is one assembled cluster with its two file servers.
type env struct {
	c    *frangipani.Cluster
	ws   [2]*frangipani.FS
	seed int64
}

// clientState is a workload's state across the phases of one run.
// step runs one client op for client k (0 on ws1, 1 on ws2) and
// returns an error only when an output is wrong; calls that fail are
// recorded in the log. verify re-reads every live file from the other
// server once both servers have synced.
type clientState interface {
	step(k int, l *opLog) error
	verify() error
}

type workload struct {
	name string
	// fsConfig adjusts the per-server configuration; nil keeps the
	// defaults.
	fsConfig func(*frangipani.Config)
	// preload creates the workload's files; it is part of set-up.
	preload func(e *env) (clientState, error)
}

var workloads = []*workload{
	{name: "meta-churn", preload: preloadChurn},
	{name: "stream-cold", fsConfig: streamFSConfig, preload: preloadStream},
	{name: "shared-rw", preload: preloadShared},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// other is the server that did not write client k's files.
func other(k int) int { return 1 - k }

// ---- meta-churn ----

const (
	churnFileSize = 4 << 10
	// churnWindow is how many renamed files each client keeps; the
	// file created churnWindow iterations ago is read and removed.
	churnWindow   = 64
	churnReaddir  = 16 // iterations between ReadDir calls
	churnSyncEach = 32 // iterations between Sync calls
	// churnPeek is the iterations between Stats of the other client's
	// directory: rare enough to leave the lock fast paths in charge,
	// often enough that every run revokes a lock.
	churnPeek = 64
)

type churnFile struct {
	name string
	iter uint64
	h    *frangipani.File
}

type churnClient struct {
	dir  string
	iter uint64
	live []churnFile
	wbuf []byte
	rbuf []byte
	want []byte
}

type churn struct {
	e *env
	c [2]*churnClient
}

func preloadChurn(e *env) (clientState, error) {
	st := &churn{e: e}
	for k := range st.c {
		cl := &churnClient{
			dir:  fmt.Sprintf("/churn%d", k),
			wbuf: make([]byte, churnFileSize),
			rbuf: make([]byte, churnFileSize),
			want: make([]byte, churnFileSize),
		}
		if err := e.ws[k].Mkdir(cl.dir); err != nil {
			return nil, err
		}
		st.c[k] = cl
	}
	return st, nil
}

func (st *churn) content(dst []byte, k int, iter uint64) {
	fill(dst, key(st.e.seed, 1, uint64(k), iter, 0))
}

func (st *churn) step(k int, l *opLog) error {
	fs, cl := st.e.ws[k], st.c[k]
	i := cl.iter
	cl.iter++
	l.begin("churn")
	defer l.end()

	fresh := fmt.Sprintf("%s/f%d", cl.dir, i)
	kept := fmt.Sprintf("%s/g%d", cl.dir, i)
	var h *frangipani.File
	if l.do(opCreate, 0, func() (err error) { h, err = fs.OpenFile(fresh, true); return err }) != nil {
		return nil
	}
	st.content(cl.wbuf, k, i)
	if l.do(opWrite, churnFileSize, func() error { _, err := h.WriteAt(cl.wbuf, 0); return err }) != nil {
		return nil
	}
	var info frangipani.Info
	if l.do(opStat, 0, func() (err error) { info, err = fs.Stat(fresh); return err }) != nil {
		return nil
	}
	if info.Size != churnFileSize {
		return fmt.Errorf("stat %s: size %d, want %d", fresh, info.Size, churnFileSize)
	}
	if l.do(opRename, 0, func() error { return fs.Rename(fresh, kept) }) != nil {
		return nil
	}
	cl.live = append(cl.live, churnFile{name: kept, iter: i, h: h})
	if len(cl.live) > churnWindow {
		old := cl.live[0]
		if l.do(opRead, churnFileSize, func() error { return readFull(old.h, cl.rbuf, 0) }) != nil {
			return nil
		}
		st.content(cl.want, k, old.iter)
		if !bytes.Equal(cl.rbuf, cl.want) {
			return fmt.Errorf("read %s: content differs from what was written", old.name)
		}
		if l.do(opRemove, 0, func() error { return fs.Remove(old.name) }) != nil {
			return nil
		}
		cl.live = cl.live[1:]
	}
	if i%churnReaddir == churnReaddir-1 {
		var ents []frangipani.DirEntry
		if l.do(opReaddir, 0, func() (err error) { ents, err = fs.ReadDir(cl.dir); return err }) != nil {
			return nil
		}
		if err := sameNames(ents, cl.live, cl.dir); err != nil {
			return err
		}
	}
	if i%churnSyncEach == churnSyncEach-1 {
		l.do(opSync, 0, fs.Sync)
	}
	if i%churnPeek == churnPeek-1 {
		peer := st.c[other(k)].dir
		l.do(opStat, 0, func() error { _, err := fs.Stat(peer); return err })
	}
	return nil
}

func (st *churn) verify() error {
	for k, cl := range st.c {
		fs := st.e.ws[other(k)]
		ents, err := fs.ReadDir(cl.dir)
		if err != nil {
			return fmt.Errorf("readdir %s: %w", cl.dir, err)
		}
		if err := sameNames(ents, cl.live, cl.dir); err != nil {
			return err
		}
		for _, f := range cl.live {
			h, err := fs.Open(f.name)
			if err != nil {
				return fmt.Errorf("open %s: %w", f.name, err)
			}
			if err := readFull(h, cl.rbuf, 0); err != nil {
				return fmt.Errorf("read %s: %w", f.name, err)
			}
			st.content(cl.want, k, f.iter)
			if !bytes.Equal(cl.rbuf, cl.want) {
				return fmt.Errorf("read %s from %s: content differs from what was written", f.name, fs.Machine())
			}
		}
	}
	return nil
}

// sameNames checks that a listing of dir holds exactly the live files.
func sameNames(ents []frangipani.DirEntry, live []churnFile, dir string) error {
	names := make([]string, len(live))
	for i, f := range live {
		names[i] = f.name
	}
	return sameSet(ents, names, dir)
}

func sameSet(ents []frangipani.DirEntry, want []string, dir string) error {
	var got []string
	for _, e := range ents {
		if e.Name != "." && e.Name != ".." {
			got = append(got, dir+"/"+e.Name)
		}
	}
	want = append([]string(nil), want...)
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		return fmt.Errorf("readdir %s: %d entries, want %d", dir, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("readdir %s: entry %s, want %s", dir, got[i], want[i])
		}
	}
	return nil
}

// readFull reads len(p) bytes at off; a short read is an error.
func readFull(h *frangipani.File, p []byte, off int64) error {
	n, err := h.ReadAt(p, off)
	if n == len(p) && (err == nil || errors.Is(err, io.EOF)) {
		return nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// ---- stream-cold ----

const (
	streamRecord  = 64 << 10
	streamRecords = 64 // a 4 MB file per client
	// streamCacheBlocks is each server's data cache in 4 KB blocks
	// (2 MB), half the file: a sequential pass through the file
	// evicts every page before it is read again.
	streamCacheBlocks = 512
)

func streamFSConfig(c *frangipani.Config) { c.DataCacheCap = streamCacheBlocks }

type streamClient struct {
	dir     string
	path    string
	marker  string // the done marker of the last finished pass, or ""
	h       *frangipani.File
	pass    uint64
	rec     int
	reading bool
	// written[r] is 1 + the pass that last wrote record r (0: never).
	written [streamRecords]uint64
	buf     []byte
	want    []byte
}

type stream struct {
	e *env
	c [2]*streamClient
}

func preloadStream(e *env) (clientState, error) {
	st := &stream{e: e}
	for k := range st.c {
		dir := fmt.Sprintf("/stream%d", k)
		if err := e.ws[k].Mkdir(dir); err != nil {
			return nil, err
		}
		cl := &streamClient{dir: dir, path: dir + "/file", buf: make([]byte, streamRecord), want: make([]byte, streamRecord)}
		h, err := e.ws[k].OpenFile(cl.path, true)
		if err != nil {
			return nil, err
		}
		cl.h = h
		st.c[k] = cl
	}
	return st, nil
}

func (st *stream) content(dst []byte, k int, pass uint64, r int) {
	fill(dst, key(st.e.seed, 2, uint64(k), pass, uint64(r)))
}

// step moves one 64 KB record: written in the write half of a pass,
// read back and checked in the read half. A Stat after each record
// checks the file length; a Sync ends the write half and endPass the
// read half.
func (st *stream) step(k int, l *opLog) error {
	fs, cl := st.e.ws[k], st.c[k]
	r := cl.rec
	off := int64(r) * streamRecord
	l.begin("record")
	defer l.end()
	if !cl.reading {
		st.content(cl.buf, k, cl.pass, r)
		if l.do(opWrite, streamRecord, func() error { _, err := cl.h.WriteAt(cl.buf, off); return err }) != nil {
			return nil
		}
		cl.written[r] = cl.pass + 1
	} else {
		if l.do(opRead, streamRecord, func() error { return readFull(cl.h, cl.buf, off) }) != nil {
			return nil
		}
		st.content(cl.want, k, cl.written[r]-1, r)
		if !bytes.Equal(cl.buf, cl.want) {
			return fmt.Errorf("read %s record %d: content differs from what was written", cl.path, r)
		}
	}
	var info frangipani.Info
	if l.do(opStat, 0, func() (err error) { info, err = fs.Stat(cl.path); return err }) != nil {
		return nil
	}
	if info.Size < off+streamRecord {
		return fmt.Errorf("stat %s: size %d after record %d", cl.path, info.Size, r)
	}
	cl.rec++
	if cl.rec < streamRecords {
		return nil
	}
	cl.rec = 0
	if !cl.reading {
		if l.do(opSync, 0, cl.h.Sync) != nil {
			return nil
		}
	} else {
		if err := st.endPass(k, l); err != nil || l.failed > 0 {
			return err
		}
		cl.pass++
	}
	cl.reading = !cl.reading
	return nil
}

// endPass marks a finished pass the way a job leaves a done file: it
// creates a marker, renames it into place, removes the previous one
// and lists the directory. It then stats the other client's directory,
// revoking the lock that covers it.
func (st *stream) endPass(k int, l *opLog) error {
	fs, cl := st.e.ws[k], st.c[k]
	tmp := cl.dir + "/marker"
	done := fmt.Sprintf("%s/done%d", cl.dir, cl.pass)
	if l.do(opCreate, 0, func() error { return fs.Create(tmp) }) != nil ||
		l.do(opRename, 0, func() error { return fs.Rename(tmp, done) }) != nil {
		return nil
	}
	if cl.marker != "" && l.do(opRemove, 0, func() error { return fs.Remove(cl.marker) }) != nil {
		return nil
	}
	cl.marker = done
	var ents []frangipani.DirEntry
	if l.do(opReaddir, 0, func() (err error) { ents, err = fs.ReadDir(cl.dir); return err }) != nil {
		return nil
	}
	if err := sameSet(ents, []string{cl.path, cl.marker}, cl.dir); err != nil {
		return err
	}
	peer := st.c[other(k)].dir
	l.do(opStat, 0, func() error { _, err := fs.Stat(peer); return err })
	return nil
}

func (st *stream) verify() error {
	for k, cl := range st.c {
		fs := st.e.ws[other(k)]
		want := []string{cl.path}
		if cl.marker != "" {
			want = append(want, cl.marker)
		}
		ents, err := fs.ReadDir(cl.dir)
		if err != nil {
			return fmt.Errorf("readdir %s: %w", cl.dir, err)
		}
		if err := sameSet(ents, want, cl.dir); err != nil {
			return err
		}
		h, err := fs.Open(cl.path)
		if err != nil {
			return fmt.Errorf("open %s: %w", cl.path, err)
		}
		for r, w := range cl.written {
			if w == 0 {
				continue
			}
			if err := readFull(h, cl.buf, int64(r)*streamRecord); err != nil {
				return fmt.Errorf("read %s record %d: %w", cl.path, r, err)
			}
			st.content(cl.want, k, w-1, r)
			if !bytes.Equal(cl.buf, cl.want) {
				return fmt.Errorf("read %s record %d from %s: content differs from what was written",
					cl.path, r, fs.Machine())
			}
		}
	}
	return nil
}

// ---- shared-rw ----

const (
	sharedRecord = 4 << 10
	sharedSlots  = 256 // a 1 MB shared file
	sharedFile   = "/shared/data"
	sharedDir    = "/shared/dir"
	sharedKeep   = 32 // directory entries the writer keeps
	sharedSync   = 16 // writer iterations between Sync calls
)

// shared has ws1 overwrite seeded 4 KB records of one file while ws2
// reads them. Each record carries its slot and generation in its
// first 8 bytes; the rest is seeded from (slot, generation).
//
// The clients take turns, so every call needs a lock the other server
// holds: each write and namespace op of ws1 revokes ws2's shared
// locks, each read and Stat of ws2 makes ws1 write back. Left free
// running, the two loops drift in and out of step and the share of
// calls that find their lock cached swings from run to run.
type shared struct {
	e *env
	// baton[k] holds the one token while it is client k's turn; the
	// hand-over also orders each client's view of gens.
	baton [2]chan struct{}
	// gens[s] is the generation of slot s's last write. As ws1's write
	// returned before ws2's turn began, ws2 must read exactly it.
	gens [sharedSlots]uint64

	wh, rh  *frangipani.File
	iter    [2]uint64
	entries []string // the directory's renamed entries, oldest first
	pending string   // a created entry not yet renamed, or ""
	nextEnt uint64
	buf     [2][]byte
	want    []byte
}

// listing is what the shared directory holds between turns.
func (st *shared) listing() []string {
	if st.pending == "" {
		return st.entries
	}
	return append(append([]string(nil), st.entries...), st.pending)
}

func preloadShared(e *env) (clientState, error) {
	st := &shared{e: e, want: make([]byte, sharedRecord)}
	st.baton[0], st.baton[1] = make(chan struct{}, 1), make(chan struct{}, 1)
	st.baton[0] <- struct{}{}
	st.buf[0] = make([]byte, sharedRecord)
	st.buf[1] = make([]byte, sharedRecord)
	ws1, ws2 := e.ws[0], e.ws[1]
	for _, d := range []string{"/shared", sharedDir} {
		if err := ws1.Mkdir(d); err != nil {
			return nil, err
		}
	}
	h, err := ws1.OpenFile(sharedFile, true)
	if err != nil {
		return nil, err
	}
	all := make([]byte, sharedSlots*sharedRecord)
	for s := 0; s < sharedSlots; s++ {
		st.record(all[s*sharedRecord:(s+1)*sharedRecord], s, 0)
	}
	if _, err := h.WriteAt(all, 0); err != nil {
		return nil, err
	}
	for ; st.nextEnt < sharedKeep; st.nextEnt++ {
		name := fmt.Sprintf("%s/e%d", sharedDir, st.nextEnt)
		if err := ws1.Create(name); err != nil {
			return nil, err
		}
		st.entries = append(st.entries, name)
	}
	if err := ws1.Sync(); err != nil {
		return nil, err
	}
	st.wh = h
	if st.rh, err = ws2.Open(sharedFile); err != nil {
		return nil, err
	}
	return st, nil
}

func (st *shared) record(dst []byte, slot int, gen uint64) {
	fill(dst, key(st.e.seed, 3, uint64(slot), gen, 0))
	binary.LittleEndian.PutUint32(dst[0:], uint32(slot))
	binary.LittleEndian.PutUint32(dst[4:], uint32(gen))
}

func (st *shared) slot(k int, iter uint64) int {
	return int(key(st.e.seed, 4, uint64(k), iter, 0) % sharedSlots)
}

func (st *shared) step(k int, l *opLog) error {
	select {
	case <-st.baton[k]:
	case <-l.done:
		return nil
	}
	defer func() { st.baton[other(k)] <- struct{}{} }()
	if k == 0 {
		return st.write(l)
	}
	return st.read(l)
}

func (st *shared) write(l *opLog) error {
	fs := st.e.ws[0]
	i := st.iter[0]
	st.iter[0]++
	l.begin("write")
	defer l.end()
	s := st.slot(0, i)
	g := st.gens[s] + 1
	st.record(st.buf[0], s, g)
	if l.do(opWrite, sharedRecord, func() error {
		_, err := st.wh.WriteAt(st.buf[0], int64(s)*sharedRecord)
		return err
	}) != nil {
		return nil
	}
	st.gens[s] = g
	// One namespace change per turn: create an entry under a temporary
	// name, rename it into place, remove the oldest.
	switch i % 3 {
	case 0:
		name := fmt.Sprintf("%s/t%d", sharedDir, st.nextEnt)
		if l.do(opCreate, 0, func() error { return fs.Create(name) }) != nil {
			return nil
		}
		st.pending = name
	case 1:
		name := fmt.Sprintf("%s/e%d", sharedDir, st.nextEnt)
		if l.do(opRename, 0, func() error { return fs.Rename(st.pending, name) }) != nil {
			return nil
		}
		st.nextEnt++
		st.entries = append(st.entries, name)
		st.pending = ""
	case 2:
		if len(st.entries) > sharedKeep {
			if l.do(opRemove, 0, func() error { return fs.Remove(st.entries[0]) }) != nil {
				return nil
			}
			st.entries = st.entries[1:]
		}
	}
	if i%sharedSync == sharedSync-1 {
		l.do(opSync, 0, fs.Sync)
	}
	return nil
}

func (st *shared) read(l *opLog) error {
	fs := st.e.ws[1]
	i := st.iter[1]
	st.iter[1]++
	l.begin("read")
	defer l.end()
	s := st.slot(1, i)
	buf := st.buf[1]
	if l.do(opRead, sharedRecord, func() error { return readFull(st.rh, buf, int64(s)*sharedRecord) }) != nil {
		return nil
	}
	if err := st.check(buf, s); err != nil {
		return err
	}
	// The Stat takes the directory lock back from ws1, which writes its
	// change back first (~35 ms). The listing then re-reads the
	// directory (~10 ms), as fast as ws1's change, whose revoke only
	// invalidates ws2's clean copy. Two calls in three are thus fast,
	// and meta_p50_ms lies well inside that mode.
	if l.do(opStat, 0, func() error { _, err := fs.Stat(sharedDir); return err }) != nil {
		return nil
	}
	var ents []frangipani.DirEntry
	if l.do(opReaddir, 0, func() (err error) { ents, err = fs.ReadDir(sharedDir); return err }) != nil {
		return nil
	}
	return sameSet(ents, st.listing(), sharedDir)
}

// check verifies that buf holds the whole record of slot s that ws1
// wrote last.
func (st *shared) check(buf []byte, s int) error {
	slot := int(binary.LittleEndian.Uint32(buf[0:]))
	gen := uint64(binary.LittleEndian.Uint32(buf[4:]))
	if slot != s {
		return fmt.Errorf("read slot %d: found slot %d", s, slot)
	}
	if gen != st.gens[s] {
		return fmt.Errorf("read slot %d: generation %d, last written %d", s, gen, st.gens[s])
	}
	st.record(st.want, s, gen)
	if !bytes.Equal(buf, st.want) {
		return fmt.Errorf("read slot %d generation %d: content differs from what was written", s, gen)
	}
	return nil
}

func (st *shared) verify() error {
	fs := st.e.ws[1]
	h, err := fs.Open(sharedFile)
	if err != nil {
		return fmt.Errorf("open %s: %w", sharedFile, err)
	}
	for s := 0; s < sharedSlots; s++ {
		if err := readFull(h, st.buf[1], int64(s)*sharedRecord); err != nil {
			return fmt.Errorf("read slot %d: %w", s, err)
		}
		if err := st.check(st.buf[1], s); err != nil {
			return err
		}
	}
	ents, err := fs.ReadDir(sharedDir)
	if err != nil {
		return fmt.Errorf("readdir %s: %w", sharedDir, err)
	}
	if err := sameSet(ents, st.listing(), sharedDir); err != nil {
		return err
	}
	for _, name := range st.listing() {
		if _, err := fs.Stat(name); err != nil {
			return fmt.Errorf("stat %s: %w", name, err)
		}
	}
	return nil
}
