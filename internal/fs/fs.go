package fs

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"frangipani/internal/bufpool"
	"frangipani/internal/cache"
	"frangipani/internal/lockservice"
	"frangipani/internal/obs"
	"frangipani/internal/petal"
	"frangipani/internal/rpc"
	"frangipani/internal/sim"
	"frangipani/internal/wal"
)

// Errors surfaced by file system operations.
var (
	ErrPoisoned = errors.New("fs: lease lost with dirty data; file system must be unmounted")
	ErrClosed   = errors.New("fs: unmounted")
	ErrNotExist = errors.New("fs: no such file or directory")
	ErrExist    = errors.New("fs: file exists")
	ErrNotDir   = errors.New("fs: not a directory")
	ErrIsDir    = errors.New("fs: is a directory")
	ErrNotEmpty = errors.New("fs: directory not empty")
	ErrRetry    = errors.New("fs: conflict, retry") // internal
	ErrTooBig   = errors.New("fs: file size exceeds 64 KB + one large block")
	ErrNoSpace  = errors.New("fs: no space")
	ErrInval    = errors.New("fs: invalid argument")
)

// Config tunes one Frangipani server.
type Config struct {
	// SyncEvery is the update-demon period; the paper's permanent
	// locations are updated "roughly every 30 seconds".
	SyncEvery sim.Duration
	// SyncLog forces the log to Petal on every metadata operation
	// ("optionally, we allow the log records to be written
	// synchronously", §4).
	SyncLog bool
	// LeaseMargin is checked before every Petal write (§6, 15 s).
	LeaseMargin sim.Duration
	// ReadAhead is the number of 4 KB pages prefetched on sequential
	// reads; 0 disables it (the Figure 8 experiment).
	ReadAhead int
	// FlushParallelism bounds concurrent write-back dispatches in the
	// sync demon and lock-revocation flushes. Values <= 1 select the
	// serial path: one synchronous Petal RPC per coalesced run. Higher
	// values enable the write-back pipeline: runs are packed into
	// scatter-gather WriteV batches and dispatched through a bounded
	// worker pool, overlapping Petal transfers.
	FlushParallelism int
	// Cache capacities, in blocks.
	MetaCacheCap int
	DataCacheCap int
	// CPU cost model for the server code path.
	CPUPerOp sim.Duration
	CPUPerKB sim.Duration
	// Lock carries the lock service timing shared with the clerk.
	Lock lockservice.Config
	// Carrier selects the message transport for this server's lock
	// clerk; nil uses the world's simulated network. Daemon
	// deployments pass the rpc.TCPCarrier shared with the Petal
	// client.
	Carrier rpc.Carrier
	// Trace, when set, receives debug events from the server and its
	// clerk.
	Trace func(format string, args ...any)
}

// DefaultConfig returns paper-flavored settings.
func DefaultConfig() Config {
	return Config{
		SyncEvery:        30 * time.Second,
		LeaseMargin:      lockservice.DefaultLeaseMargin,
		ReadAhead:        64,    // 256 KB window: four chunk-parallel Petal reads in flight
		FlushParallelism: 8,     // pipelined write-back, 8 batches in flight
		MetaCacheCap:     16384, // 8 MB of sectors
		DataCacheCap:     8192,  // 32 MB of pages
		CPUPerOp:         150 * time.Microsecond,
		CPUPerKB:         25 * time.Microsecond,
		Lock:             lockservice.DefaultConfig(),
	}
}

// trace emits a debug event when Config.Trace is set.
func (fs *FS) trace(format string, args ...any) {
	if fs.cfg.Trace != nil {
		fs.cfg.Trace(format, args...)
	}
}

// Counters aggregates per-server statistics for the benchmarks.
type Counters struct {
	Ops             int64
	BytesRead       int64
	BytesWritten    int64
	Retries         int64
	Recoveries      int64
	ReadAheadHits   int64
	ReadAheadWasted int64 // prefetched bytes discarded after revocation

	// Write-back pipeline statistics.
	FlushBatches      int64 // scatter-gather batches dispatched
	FlushRuns         int64 // coalesced runs written back
	FlushPages        int64 // blocks written back
	FlushPeakInFlight int64 // max concurrent write-back dispatches seen

	// Read-path batching statistics.
	MetaBatchFetches int64 // scatter-gather metadata fetches issued
	MetaBatchSectors int64 // sectors carried by those fetches
}

// fsMetrics is the registry-backed home of the server's counters
// (standalone collectors when observability is unwired). The old
// Counters accessor reads these, so benchmarks keep working.
type fsMetrics struct {
	ops, bytesRead, bytesWritten *obs.Counter
	retries, recoveries          *obs.Counter
	raHits, raWasted             *obs.Counter
	allocSticky, allocResume     *obs.Counter
	allocRescan, allocSkipFull   *obs.Counter
	flushBatches, flushRuns      *obs.Counter
	flushPages                   *obs.Counter
	metaBatch, metaBatchSectors  *obs.Counter
	flushPeak                    *obs.Gauge
	opLat                        map[string]*obs.Histogram
}

// fsOps are the traced operations, each with an
// "fs.<op>.latency#machine" histogram.
var fsOps = []string{
	"stat", "readdir", "readdirplus", "create", "remove", "rename",
	"link", "read", "write", "truncate", "fsync", "sync", "lookup",
}

func newFSMetrics(reg *obs.Registry, machine string) fsMetrics {
	c := func(name string) *obs.Counter {
		if reg == nil {
			return obs.NewCounter()
		}
		return reg.Counter("fs." + name + "#" + machine)
	}
	m := fsMetrics{
		ops:              c("ops.count"),
		bytesRead:        c("read.bytes"),
		bytesWritten:     c("write.bytes"),
		retries:          c("retry.count"),
		recoveries:       c("recovery.count"),
		raHits:           c("readahead.hits"),
		raWasted:         c("readahead.wasted"),
		allocSticky:      c("alloc.sticky.hits"),
		allocResume:      c("alloc.resume.hits"),
		allocRescan:      c("alloc.rescan"),
		allocSkipFull:    c("alloc.skip.full"),
		flushBatches:     c("flush.batches"),
		flushRuns:        c("flush.runs"),
		flushPages:       c("flush.pages"),
		metaBatch:        c("meta.batch.fetches"),
		metaBatchSectors: c("meta.batch.sectors"),
		flushPeak:        obs.NewGauge(),
	}
	if reg != nil {
		m.flushPeak = reg.Gauge("fs.flush.peak#" + machine)
		m.opLat = make(map[string]*obs.Histogram, len(fsOps))
		for _, op := range fsOps {
			m.opLat[op] = reg.Histogram("fs." + op + ".latency#" + machine)
		}
	}
	return m
}

// FS is one Frangipani file server instance.
type FS struct {
	w       *sim.World
	machine string
	pc      *petal.Client
	vd      petal.VDiskID
	lay     Layout
	cfg     Config
	clerk   *lockservice.Clerk
	log     *wal.Log
	meta    *cache.Pool
	data    *cache.Pool
	cpu     *sim.CPU

	mu       sync.Mutex
	owned    map[allocClass][]int64
	probeOff map[allocClass]int64
	// Allocator scan hints (all under mu). They are advisory: hints
	// only skip work that a scan of the authoritative bitmap (read
	// under the segment lock) would repeat, and every path that can
	// clear a bit — a local free, a remote steal revoking the segment
	// lock, lease loss — invalidates them.
	stickySeg map[allocClass]int64 // last segment that allocated; -1/absent = none
	segResume map[segKey]int64     // next bit segScan resumes from
	segFull   map[segKey]bool      // segments known full for a class
	appended int64 // highest log seq appended
	flushed  int64 // log seq known flushed
	poisoned bool
	closed   bool
	logSlot  int

	raMu    sync.Mutex
	raNext  map[int64]int64 // inum -> expected next sequential offset
	raHigh  map[int64]int64 // inum -> read-ahead high-water mark
	raBusy  map[int64]int   // inum -> prefetch runs in flight
	raPages int             // current read-ahead setting

	fetchMu  sync.Mutex
	inflight map[int64]chan struct{} // single-flight page fetches

	wbMu   sync.Mutex
	wbBusy bool // write-behind flush in flight

	flushInFlight int64 // current write-back dispatches (guarded by mu)

	// atimes holds in-memory approximate access times (§2.1), folded
	// into inodes when they are next logged. Guarded by mu.
	atimes map[int64]int64

	// Observability; set once in Mount.
	m    fsMetrics
	now  obs.NowFunc
	tr   *obs.Tracer
	jr   *obs.Journal      // flight recorder (nil-safe)
	acct *obs.AccountTable // per-principal accounting (nil-safe)

	syncCancel func()
}

// Mkfs initializes a Frangipani file system on an (empty) Petal
// virtual disk: the params sector, the root directory inode, and its
// allocation bit. It runs without locks; the disk must not be
// mounted anywhere.
func Mkfs(pc *petal.Client, vd petal.VDiskID, lay Layout) error {
	if err := lay.Validate(); err != nil {
		return err
	}
	if err := pc.Write(nil, vd, lay.ParamsBase, encodeParams(params{
		Magic:   paramsMagic,
		Version: 1,
		Root:    RootInum,
	})); err != nil {
		return err
	}
	// Root inode.
	sec := make([]byte, SectorSize)
	encodeInode(Inode{Type: TypeDir, Nlink: 2}, sec)
	wal.SetBlockVersion(sec, 1)
	if err := pc.Write(nil, vd, lay.InodeAddr(RootInum), sec); err != nil {
		return err
	}
	// Allocation bit for the root inode.
	bit := lay.bitFor(classInode, RootInum)
	addr, byteOff, mask := lay.bitLoc(bit)
	bsec := make([]byte, SectorSize)
	if err := pc.Read(nil, vd, addr, bsec); err != nil {
		return err
	}
	bsec[byteOff] |= mask
	wal.SetBlockVersion(bsec, 1)
	return pc.Write(nil, vd, addr, bsec)
}

// Mount attaches a new Frangipani server to a shared virtual disk.
// machine is this server's identity; lockServers lists the lock
// service members.
func Mount(w *sim.World, machine string, pc *petal.Client, vd petal.VDiskID,
	lockServers []string, lay Layout, cfg Config) (*FS, error) {
	if err := lay.Validate(); err != nil {
		return nil, err
	}
	psec := make([]byte, SectorSize)
	if err := pc.Read(nil, vd, lay.ParamsBase, psec); err != nil {
		return nil, fmt.Errorf("fs: reading params: %w", err)
	}
	if _, err := decodeParams(psec); err != nil {
		return nil, err
	}
	fs := &FS{
		w:        w,
		machine:  machine,
		pc:       pc,
		vd:       vd,
		lay:      lay,
		cfg:      cfg,
		cpu:      w.CPU(machine),
		meta:     cache.NewPool(SectorSize, cfg.MetaCacheCap),
		data:     cache.NewPool(BlockSize, cfg.DataCacheCap),
		owned:     make(map[allocClass][]int64),
		probeOff:  make(map[allocClass]int64),
		stickySeg: make(map[allocClass]int64),
		segResume: make(map[segKey]int64),
		segFull:   make(map[segKey]bool),
		raNext:   make(map[int64]int64),
		raHigh:   make(map[int64]int64),
		raBusy:   make(map[int64]int),
		atimes:   make(map[int64]int64),
		inflight: make(map[int64]chan struct{}),
		raPages:  cfg.ReadAhead,
	}
	fs.m = newFSMetrics(w.Obs, machine)
	if w.Obs != nil {
		fs.now = w.Obs.Now
		fs.tr = w.Obs.Tracer()
		fs.jr = w.Obs.Journal(machine)
		fs.acct = w.Obs.Accounts()
		// Hot-lock table entries decode to human-readable lock names
		// ("inode/7") in snapshots and exposition.
		w.Obs.Resources("lockservice.locks").SetNamer(LockName)
	}
	fs.meta.SetObs(w.Obs, machine+".meta")
	fs.data.SetObs(w.Obs, machine+".data")
	fs.meta.SetFlusher(func(e *cache.Entry) error { return fs.flushEntry(nil, fs.meta, e) })
	fs.data.SetFlusher(func(e *cache.Entry) error { return fs.flushEntry(nil, fs.data, e) })

	carrier := cfg.Carrier
	if carrier == nil {
		carrier = rpc.SimCarrier{Net: w.Net}
	}
	fs.clerk = lockservice.NewClerkWithCarrier(w, machine, string(vd), lockServers, cfg.Lock, carrier)
	fs.clerk.Trace = cfg.Trace
	fs.clerk.SetCallbacks(fs.onRevoke, fs.onRecover, fs.onLeaseLost)
	if err := fs.clerk.Open(); err != nil {
		return nil, err
	}
	fs.logSlot = fs.clerk.LogSlot()
	if fs.logSlot >= lay.LogSlots {
		fs.clerk.Close()
		return nil, fmt.Errorf("fs: out of log slots (%d servers max)", lay.LogSlots)
	}
	// Stamp Petal writes with our lease so guarded Petal servers can
	// reject expired writers (§6 hazard fix).
	pc.SetLeaseInfo(func() (int64, uint64) {
		return fs.clerk.ExpiresAt() - int64(cfg.LeaseMargin), fs.clerk.LeaseID()
	})

	// A fresh mount starts with an empty log: zero the slot so stale
	// records from a previous tenancy (already recovered or cleanly
	// closed) cannot be replayed.
	zero := make([]byte, lay.LogSize)
	if err := fs.petalWrite(nil, lay.LogSlotBase(fs.logSlot), zero); err != nil {
		fs.clerk.Close()
		return nil, err
	}
	fs.log = wal.New(&logRegion{fs: fs, base: fs.lay.LogSlotBase(fs.logSlot)}, lay.LogSize)
	fs.log.SetObs(w.Obs, machine)
	fs.log.SetReclaim(fs.reclaimLog)

	fs.syncCancel = w.Clock.Tick(cfg.SyncEvery, func() { _ = fs.Sync() })
	return fs, nil
}

// Machine returns the server's machine name.
func (fs *FS) Machine() string { return fs.machine }

// LogSlot returns the server's private log slot.
func (fs *FS) LogSlot() int { return fs.logSlot }

// Clerk exposes the lock clerk (tests and the backup tool use it).
func (fs *FS) Clerk() *lockservice.Clerk { return fs.clerk }

// PetalStats snapshots the underlying Petal driver's write-path RPC
// counters (benchmarks compare serial vs scatter-gather write-back).
func (fs *FS) PetalStats() petal.ClientStats { return fs.pc.Stats() }

// Stats returns a snapshot of the server's counters (a compatibility
// view over the registry-backed metrics; each field is individually
// race-safe).
func (fs *FS) Stats() Counters {
	return Counters{
		Ops:               fs.m.ops.Value(),
		BytesRead:         fs.m.bytesRead.Value(),
		BytesWritten:      fs.m.bytesWritten.Value(),
		Retries:           fs.m.retries.Value(),
		Recoveries:        fs.m.recoveries.Value(),
		ReadAheadHits:     fs.m.raHits.Value(),
		ReadAheadWasted:   fs.m.raWasted.Value(),
		FlushBatches:      fs.m.flushBatches.Value(),
		FlushRuns:         fs.m.flushRuns.Value(),
		FlushPages:        fs.m.flushPages.Value(),
		FlushPeakInFlight: fs.m.flushPeak.Value(),
		MetaBatchFetches:  fs.m.metaBatch.Value(),
		MetaBatchSectors:  fs.m.metaBatchSectors.Value(),
	}
}

// HealthInfo aggregates one server's live health signals for the
// cluster health probes.
type HealthInfo struct {
	// LeaseExpiresAt is when the lock-service lease lapses (ns,
	// simulated clock); Poisoned means it already has.
	LeaseExpiresAt int64
	Poisoned       bool
	// WALBacklogBytes is the log stream appended but not yet durable;
	// WALLastFlush is the timestamp of the last successful flush (0
	// before the first).
	WALBacklogBytes int64
	WALLastFlush    int64
	// Cache occupancy, per pool.
	MetaResident, MetaDirty, MetaCapacity int
	DataResident, DataDirty, DataCapacity int
}

// Health snapshots the server's health signals.
func (fs *FS) Health() HealthInfo {
	var hi HealthInfo
	hi.LeaseExpiresAt = fs.clerk.ExpiresAt()
	hi.Poisoned = fs.Poisoned()
	hi.WALBacklogBytes, hi.WALLastFlush = fs.log.FlushHealth()
	hi.MetaResident, hi.MetaDirty = fs.meta.Usage()
	hi.MetaCapacity = fs.meta.Capacity()
	hi.DataResident, hi.DataDirty = fs.data.Usage()
	hi.DataCapacity = fs.data.Capacity()
	return hi
}

// traced wraps one public operation in a root span, which fn passes
// down the stack, and the operation's latency histogram.
func (fs *FS) traced(op string, fn func(sp *obs.Span) error) error {
	sp := fs.rootSpan(op)
	if sp == nil || sp.TraceID == 0 {
		return fn(sp) // observability unwired
	}
	err := fn(sp)
	sp.Done()
	if h := fs.m.opLat[op]; h != nil {
		h.Record(sp.Duration())
	}
	// Attribute the completed op (and its latency) to the caller's
	// principal; untagged callers land in the unknown account.
	fs.acct.Op(sp.Principal, sp.Duration())
	return err
}

// rootSpan opens the context of a public operation, and is the one
// place the caller's principal is read: every layer below charges the
// span's principal. A named op gets a recorded root span; op "" (the
// untimed Open, Readlink and File.Size) gets an unrecorded stub that
// only carries the principal, or nil when there is none.
func (fs *FS) rootSpan(op string) *obs.Span {
	p := obs.CurrentPrincipal()
	if op != "" {
		if sp := fs.tr.Start(nil, "fs", op); sp != nil {
			sp.Principal = p
			return sp
		}
	}
	if p == "" {
		return nil
	}
	return &obs.Span{Principal: p}
}

// accountBytes charges user-level bytes moved (in = written, out =
// read) to the operation's principal. Charged at the File API
// boundary, not the Petal boundary: background write-back and
// prefetch run with no operation span and would otherwise dilute
// attribution into unknown.
func (fs *FS) accountBytes(sp *obs.Span, in, out int) {
	fs.acct.Bytes(sp.Who(), int64(in), int64(out))
}

// lat returns a deferred-latency recorder for hot internal paths
// that want a histogram without span overhead.
func (fs *FS) lat(op string) func() {
	if fs.now == nil {
		return func() {}
	}
	h := fs.m.opLat[op]
	start := fs.now()
	return func() { h.Record(fs.now() - start) }
}

// SetReadAhead adjusts the read-ahead window at runtime (Figure 8's
// experiment toggles it).
func (fs *FS) SetReadAhead(pages int) {
	fs.raMu.Lock()
	fs.raPages = pages
	fs.raMu.Unlock()
}

// Unmount cleanly detaches: flush everything, close the lock table.
func (fs *FS) Unmount() error {
	err := fs.Sync()
	fs.mu.Lock()
	fs.closed = true
	fs.mu.Unlock()
	if fs.syncCancel != nil {
		fs.syncCancel()
	}
	fs.clerk.Close()
	return err
}

// Crash simulates this Frangipani server failing abruptly: the sync
// demon stops, operations fail, and the clerk goes silent without
// closing its session — so the lock service will expire the lease and
// run recovery on this server's log from another machine (§7:
// "Removing a Frangipani server ... It is adequate to simply shut
// the server off").
func (fs *FS) Crash() {
	fs.mu.Lock()
	fs.closed = true
	fs.mu.Unlock()
	fs.jr.Record("fs", "crash", "induced", 0, int64(fs.logSlot), "")
	if fs.syncCancel != nil {
		fs.syncCancel()
	}
	fs.clerk.Abandon()
}

// Poisoned reports whether the server has shut itself off after
// losing its lease with dirty data.
func (fs *FS) Poisoned() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.poisoned
}

func (fs *FS) usable() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.poisoned {
		return ErrPoisoned
	}
	if fs.closed {
		return ErrClosed
	}
	return nil
}

func (fs *FS) chargeOp(bytes int) {
	fs.cpu.Use(fs.cfg.CPUPerOp + sim.Duration(bytes/1024)*fs.cfg.CPUPerKB)
	fs.m.ops.Inc()
}

// petalWrite guards every write with the lease check of §6: "A
// Frangipani server checks that its lease is still valid (and will
// still be valid for margin seconds) before attempting any write to
// Petal." A lease that is merely *near* expiry (renewals delayed) is
// indeterminate: the write waits for the next renewal round rather
// than failing, because callers on the revoke path would otherwise
// silently drop dirty data that the next lock holder depends on.
// Only a definitively lost lease fails the write.
func (fs *FS) petalWrite(sp *obs.Span, addr int64, p []byte) error {
	if err := fs.waitLeaseForWrite(sp); err != nil {
		return err
	}
	return fs.pc.Write(sp, fs.vd, addr, p)
}

// petalWriteV is the scatter-gather variant of petalWrite: one lease
// check covers the whole batch, which the Petal driver splits by
// chunk and dispatches with bounded parallelism.
func (fs *FS) petalWriteV(sp *obs.Span, exts []petal.Extent) error {
	if err := fs.waitLeaseForWrite(sp); err != nil {
		return err
	}
	return fs.pc.WriteVIn(sp, fs.vd, exts)
}

func (fs *FS) waitLeaseForWrite(sp *obs.Span) error {
	defer fs.tr.Child(sp, "lockservice", "lease-check").Done()
	deadline := fs.w.Clock.Now() + sim.Time(2*fs.cfg.Lock.LeaseDuration)
	for !fs.clerk.LeaseValid(fs.cfg.LeaseMargin) {
		if fs.clerk.LeaseLost() || fs.w.Clock.Now() >= deadline {
			return lockservice.ErrLeaseLost
		}
		fs.w.Clock.Sleep(fs.cfg.Lock.LeaseDuration / 10)
	}
	return nil
}

// logRegion adapts a log slot window to the WAL's BlockRegion.
type logRegion struct {
	fs   *FS
	base int64
}

func (r *logRegion) ReadAt(p []byte, off int64) error { return r.ReadAtIn(nil, p, off) }

func (r *logRegion) WriteAt(p []byte, off int64) error { return r.WriteAtIn(nil, p, off) }

// ReadAtIn and WriteAtIn make logRegion a wal.TracedRegion: log
// flushes pass the flushing operation's span.
func (r *logRegion) ReadAtIn(sp *obs.Span, p []byte, off int64) error {
	return r.fs.pc.Read(sp, r.fs.vd, r.base+off, p)
}

func (r *logRegion) WriteAtIn(sp *obs.Span, p []byte, off int64) error {
	return r.fs.petalWrite(sp, r.base+off, p)
}

// directDev adapts the whole virtual disk for WAL replay during
// recovery.
type directDev struct{ fs *FS }

func (d *directDev) ReadAt(p []byte, off int64) error {
	return d.fs.pc.Read(nil, d.fs.vd, off, p)
}

func (d *directDev) WriteAt(p []byte, off int64) error {
	return d.fs.petalWrite(nil, off, p)
}

// ---- cached block I/O ----

// readMeta returns the cached metadata sector at addr, loading it
// from Petal on a miss. owner is the covering lock.
func (fs *FS) readMeta(sp *obs.Span, addr int64, owner uint64) (*cache.Entry, error) {
	if e, ok := fs.meta.Lookup(addr); ok {
		return e, nil
	}
	// Misses force a backing read; charge the operation that took the
	// fault.
	fs.acct.CacheMiss(sp.Who(), 1)
	csp := fs.tr.Child(sp, "cache", "fill")
	defer csp.Done()
	// Pooled scratch: Insert copies into the cache's own page, so the
	// fill buffer recycles immediately.
		bufp := bufpool.Get(SectorSize)
		defer bufpool.Put(bufp)
		buf := *bufp
	if err := fs.pc.Read(csp, fs.vd, addr, buf); err != nil {
		return nil, err
		}
	return fs.meta.Insert(addr, buf, owner), nil
}

// metaFill names one metadata sector and the lock that covers it.
type metaFill struct {
	addr  int64
	owner uint64
}

// readMetaBatch warms the metadata cache for every named sector with
// one scatter-gather read: the sectors still missing are fetched in a
// single petal ReadV and inserted. Directory scans and batched stat
// paths collect their sector addresses up front and call this, so a
// cold scan costs one round trip instead of one per sector. Callers
// then go through readMeta for the decoded entries; after a
// successful batch those are hits.
func (fs *FS) readMetaBatch(sp *obs.Span, fills []metaFill) error {
	var miss []metaFill
	for _, f := range fills {
		if _, ok := fs.meta.Lookup(f.addr); !ok {
			miss = append(miss, f)
		}
	}
	if len(miss) == 0 {
		return nil
	}
	fs.acct.CacheMiss(sp.Who(), int64(len(miss)))
	csp := fs.tr.Child(sp, "cache", "fillv")
	defer csp.Done()
		bufsp := bufpool.Get(len(miss) * SectorSize)
		defer bufpool.Put(bufsp)
		bufs := *bufsp
		exts := make([]petal.ReadExtent, len(miss))
		for i := range miss {
			exts[i] = petal.ReadExtent{Off: miss[i].addr, Dst: bufs[i*SectorSize : (i+1)*SectorSize]}
	}
	if err := fs.pc.ReadVIn(csp, fs.vd, exts); err != nil {
		return err
	}
	fs.m.metaBatch.Inc()
	fs.m.metaBatchSectors.Add(int64(len(miss)))
	for i, f := range miss {
		// A concurrent reader may have raced the sector in — or a
		// writer may have dirtied it; keep theirs.
		if _, hit := fs.meta.Lookup(f.addr); hit {
			continue
		}
			fs.meta.Insert(f.addr, bufs[i*SectorSize:(i+1)*SectorSize], f.owner)
		}
	return nil
}

// readData returns the cached 4 KB data page at addr.
func (fs *FS) readData(sp *obs.Span, addr int64, owner uint64) (*cache.Entry, error) {
	if e, ok := fs.data.Lookup(addr); ok {
		return e, nil
	}
	return fs.readDataRun(sp, addr, 1, owner)
}

// readDataRun fetches count contiguous pages from Petal in one read
// and inserts them all, returning the first. Clustering misses keeps
// large sequential reads at one RPC per 64 KB chunk instead of one
// per page; single-flight claiming stops the foreground read and the
// prefetcher from fetching the same pages twice.
func (fs *FS) readDataRun(sp *obs.Span, addr int64, count int, owner uint64) (*cache.Entry, error) {
	for {
		fs.fetchMu.Lock()
		if ch, busy := fs.inflight[addr]; busy {
			fs.fetchMu.Unlock()
			<-ch // someone else is fetching this page
			if e, ok := fs.data.Lookup(addr); ok {
				return e, nil
			}
			continue // their fetch failed; try ourselves
		}
		n := 0
		for n < count {
			if _, busy := fs.inflight[addr+int64(n)*BlockSize]; busy {
				break
			}
			n++
		}
		ch := make(chan struct{})
		for i := 0; i < n; i++ {
			fs.inflight[addr+int64(i)*BlockSize] = ch
		}
		fs.fetchMu.Unlock()

		fs.acct.CacheMiss(sp.Who(), int64(n))
		csp := fs.tr.Child(sp, "cache", "fill")
		first, err := fs.fillData(csp, addr, n, owner)
		csp.Done()
		fs.fetchMu.Lock()
		for i := 0; i < n; i++ {
			delete(fs.inflight, addr+int64(i)*BlockSize)
		}
		fs.fetchMu.Unlock()
		close(ch)
		return first, err
	}
}

// fillData reads n pages at addr from Petal and inserts them,
// returning the first.
func (fs *FS) fillData(sp *obs.Span, addr int64, n int, owner uint64) (*cache.Entry, error) {
	bufp := bufpool.Get(n * BlockSize)
	defer bufpool.Put(bufp)
	buf := *bufp
	if err := fs.pc.Read(sp, fs.vd, addr, buf); err != nil {
		return nil, err
	}
	fs.m.bytesRead.Add(int64(len(buf)))
	first := fs.data.Insert(addr, buf[:BlockSize], owner)
	for i := 1; i < n; i++ {
		// A concurrent writer may have raced a page in; keep theirs.
		pageAddr := addr + int64(i)*BlockSize
		if _, hit := fs.data.Lookup(pageAddr); hit {
			continue
		}
		fs.data.Insert(pageAddr, buf[i*BlockSize:(i+1)*BlockSize], owner)
	}
	return first, nil
}

// ensureLogFlushed enforces write-ahead order: before a block dirtied
// by the record at seq may be written to Petal, the log must be
// durable through seq. Concurrent callers group-commit inside the
// WAL, so redundant calls are cheap.
func (fs *FS) ensureLogFlushed(sp *obs.Span, seq int64) error {
	if seq == 0 {
		return nil
	}
	fs.mu.Lock()
	need := seq > fs.flushed
	target := fs.appended
	fs.mu.Unlock()
	if !need {
		return nil
	}
	if err := fs.log.FlushIn(sp); err != nil {
		return err
	}
	fs.mu.Lock()
	if target > fs.flushed {
		fs.flushed = target
	}
	fs.mu.Unlock()
	return nil
}

// flushEntry makes one dirty entry durable, honoring write-ahead
// order: the log is forced through the entry's sequence first.
func (fs *FS) flushEntry(sp *obs.Span, pool *cache.Pool, e *cache.Entry) error {
	if err := fs.ensureLogFlushed(sp, pool.EntrySeq(e)); err != nil {
		return err
	}
	buf := make([]byte, pool.BlockSize())
	gens := pool.SnapshotBatch([]*cache.Entry{e}, buf)
	if err := fs.petalWrite(sp, e.Addr, buf); err != nil {
		return err
	}
	fs.m.bytesWritten.Add(int64(len(buf)))
	pool.MarkCleanIf(e, gens[0])
	return nil
}

// ---- transactions ----

// lockExtraMode is the mode for mid-operation extra locks.
const lockExtraMode = lockservice.Exclusive

// span is a modified byte range within a sector.
type span struct{ lo, hi int }

// txn accumulates one operation's metadata changes; commit turns
// them into a single log record (so the whole operation replays
// atomically per block) and marks the touched cache entries dirty.
type txn struct {
	fs      *FS
	sp      *obs.Span // the operation's span
	touched []*cache.Entry
	spans   map[*cache.Entry][]span
	segs    []uint64 // bitmap segment locks acquired by the allocator
	// pageOwner is the inode lock that owns data pages created by
	// this transaction (set by operations that allocate blocks).
	pageOwner uint64
}

func (fs *FS) begin(sp *obs.Span) *txn {
	return &txn{fs: fs, sp: sp, spans: make(map[*cache.Entry][]span)}
}

// update writes newBytes at off into the entry, recording the
// changed runs (diffed, so records stay small — the paper's are
// 80-128 bytes).
func (t *txn) update(e *cache.Entry, off int, newBytes []byte) {
	old := e.Data[off : off+len(newBytes)]
	runStart := -1
	for i := 0; i <= len(newBytes); i++ {
		changed := i < len(newBytes) && old[i] != newBytes[i]
		if changed && runStart < 0 {
			runStart = i
		}
		if !changed && runStart >= 0 {
			t.spans[e] = append(t.spans[e], span{off + runStart, off + i})
			runStart = -1
		}
	}
	t.fs.meta.Mutate(func() { copy(old, newBytes) })
	if _, seen := t.spans[e]; seen {
		t.addTouched(e)
	}
}

// forceUpdate records a span even if bytes compare equal (used when
// the semantic state must be re-logged, e.g. allocation bits).
func (t *txn) forceUpdate(e *cache.Entry, off int, newBytes []byte) {
	t.fs.meta.Mutate(func() { copy(e.Data[off:], newBytes) })
	t.spans[e] = append(t.spans[e], span{off, off + len(newBytes)})
	t.addTouched(e)
}

func (t *txn) addTouched(e *cache.Entry) {
	for _, x := range t.touched {
		if x == e {
			return
		}
	}
	t.touched = append(t.touched, e)
}

// mergeSpans coalesces overlapping/adjacent spans (gap <= 8 bytes is
// cheaper to log as one run).
func mergeSpans(in []span) []span {
	if len(in) <= 1 {
		return in
	}
	for i := 1; i < len(in); i++ {
		for j := i; j > 0 && in[j].lo < in[j-1].lo; j-- {
			in[j], in[j-1] = in[j-1], in[j]
		}
	}
	out := in[:1]
	for _, s := range in[1:] {
		last := &out[len(out)-1]
		if s.lo <= last.hi+8 {
			if s.hi > last.hi {
				last.hi = s.hi
			}
		} else {
			out = append(out, s)
		}
	}
	return out
}

// commit appends the log record and dirties the touched entries.
// The caller still holds all covering locks.
func (t *txn) commit() error {
	if len(t.touched) == 0 {
		return nil
	}
	var ups []wal.Update
	for _, e := range t.touched {
		spans := mergeSpans(t.spans[e])
		if len(spans) == 0 {
			continue
		}
		ver := wal.BlockVersion(e.Data) + 1
		t.fs.meta.Mutate(func() { wal.SetBlockVersion(e.Data, ver) })
		for _, s := range spans {
			ups = append(ups, wal.Update{
				Addr: e.Addr,
				Off:  s.lo,
				Data: append([]byte(nil), e.Data[s.lo:s.hi]...),
				Ver:  ver,
			})
		}
	}
	if len(ups) == 0 {
		return nil
	}
	seq, err := t.fs.log.AppendIn(t.sp, ups)
	if err != nil {
		return err
	}
	for _, e := range t.touched {
		t.fs.meta.MarkDirty(e, seq)
	}
	t.fs.mu.Lock()
	if seq > t.fs.appended {
		t.fs.appended = seq
	}
	t.fs.mu.Unlock()
	if t.fs.cfg.SyncLog {
		if err := t.fs.log.FlushIn(t.sp); err != nil {
			return err
		}
		t.fs.mu.Lock()
		if seq > t.fs.flushed {
			t.fs.flushed = seq
		}
		t.fs.mu.Unlock()
	}
	return nil
}

// lockExtra acquires an additional exclusive lock that is held until
// the transaction's locks are released (used for locks discovered
// mid-operation, like a freshly allocated inode's).
func (t *txn) lockExtra(id uint64) error {
	if err := t.fs.clerk.LockIn(t.sp, id, lockExtraMode); err != nil {
		return err
	}
	t.segs = append(t.segs, id)
	return nil
}

// releaseSegs unlocks the bitmap segments (and extra locks) the
// transaction acquired mid-flight (sticky: the grants stay cached at
// the clerk).
func (t *txn) releaseSegs() {
	for _, id := range t.segs {
		t.fs.clerk.Unlock(id)
	}
	t.segs = nil
}

// ---- sync demon and write-back ----

// Sync is the update demon body: force the log, write back all dirty
// blocks, then let the log reclaim the records ("the permanent
// locations are updated periodically (roughly every 30 seconds) by
// the update demon", §4). With FlushParallelism > 1 metadata and data
// write-back proceed concurrently through the pipelined path; each
// batch still honors the per-entry log-before-data rule.
func (fs *FS) Sync() error {
	return fs.traced("sync", fs.sync)
}

func (fs *FS) sync(sp *obs.Span) error {
	fs.mu.Lock()
	if fs.closed && fs.poisoned {
		fs.mu.Unlock()
		return ErrPoisoned
	}
	target := fs.appended
	fs.mu.Unlock()

	if err := fs.log.FlushIn(sp); err != nil {
		return err
	}
	fs.mu.Lock()
	if target > fs.flushed {
		fs.flushed = target
	}
	fs.mu.Unlock()

	var metaErr, dataErr error
	if fs.cfg.FlushParallelism > 1 {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			metaErr = fs.flushRuns(sp, fs.meta, fs.meta.AllDirty())
		}()
		go func() {
			defer wg.Done()
			dataErr = fs.flushRuns(sp, fs.data, fs.data.AllDirty())
		}()
		wg.Wait()
	} else {
		metaErr = fs.flushRuns(sp, fs.meta, fs.meta.AllDirty())
		dataErr = fs.flushRuns(sp, fs.data, fs.data.AllDirty())
	}
	firstErr := metaErr
	if firstErr == nil {
		firstErr = dataErr
	}
	if firstErr == nil {
		fs.log.Release(target)
	}
	return firstErr
}

// writeBehind starts (at most one) background flush of dirty data
// pages once enough accumulate, overlapping Petal transfers with the
// application's writes the way the paper's kernel write-behind does.
func (fs *FS) writeBehind() {
	const threshold = 512 // pages (2 MB)
	fs.wbMu.Lock()
	if fs.wbBusy {
		fs.wbMu.Unlock()
		return
	}
	dirty := fs.data.AllDirty()
	if len(dirty) < threshold {
		fs.wbMu.Unlock()
		return
	}
	fs.wbBusy = true
	fs.wbMu.Unlock()
	go func() {
		// Pages are coalesced into large runs — the paper's
		// "clustering writes to Petal into naturally aligned 64 KB
		// blocks" — which the Petal driver transfers chunk-parallel.
		_ = fs.flushRuns(nil, fs.data, dirty)
		fs.wbMu.Lock()
		fs.wbBusy = false
		fs.wbMu.Unlock()
	}()
}

// flushRun is one coalesced write-back unit: contiguous dirty blocks
// snapshotted into a single buffer with their dirty generations.
type flushRun struct {
	addr    int64
	buf     []byte
	entries []*cache.Entry
	gens    []int64
}

// maxRunBytes caps one coalesced run (matches Petal's large-transfer
// sweet spot without starving concurrency).
const maxRunBytes = 1 << 20

// coalesceRuns sorts dirty entries by address and groups adjacent
// blocks into runs, snapshotting generations and data. Generations
// are taken before the copy so a concurrent re-dirty keeps the entry
// dirty (MarkCleanIfBatch will skip it).
func coalesceRuns(pool *cache.Pool, dirty []*cache.Entry) []flushRun {
	blockSize := pool.BlockSize()
	sort.Slice(dirty, func(a, b int) bool { return dirty[a].Addr < dirty[b].Addr })
	var runs []flushRun
	i := 0
	for i < len(dirty) {
		j := i + 1
		for j < len(dirty) && dirty[j].Addr == dirty[j-1].Addr+int64(blockSize) &&
			(dirty[j].Addr-dirty[i].Addr) < maxRunBytes {
			j++
		}
		run := dirty[i:j]
		r := flushRun{
			addr:    run[0].Addr,
			buf:     make([]byte, len(run)*blockSize),
			entries: run,
		}
		r.gens = pool.SnapshotBatch(run, r.buf)
		runs = append(runs, r)
		i = j
	}
	return runs
}

// maxBatchBytes caps one scatter-gather dispatch; the Petal driver
// further splits batches by replica server.
const maxBatchBytes = 1 << 20

// flushRuns writes back a set of dirty entries from one pool,
// log-first. Serial mode (FlushParallelism <= 1) issues one Petal
// write per coalesced run; pipelined mode packs runs into
// scatter-gather batches and dispatches them through a bounded worker
// pool, so one cache-sync round trip carries many runs and transfers
// overlap.
func (fs *FS) flushRuns(sp *obs.Span, pool *cache.Pool, dirty []*cache.Entry) error {
	if len(dirty) == 0 {
		return nil
	}
	// Log-before-data: force the log through the newest record
	// covering any of these blocks before writing them in place.
	if err := fs.ensureLogFlushed(sp, pool.MaxSeq(dirty)); err != nil {
		return err
	}
	runs := coalesceRuns(pool, dirty)
	if fs.cfg.FlushParallelism <= 1 {
		var firstErr error
		for _, r := range runs {
			if err := fs.writeRun(sp, pool, r); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	// Pack runs into batches and dispatch through the worker pool.
	var batches [][]flushRun
	var cur []flushRun
	bytes := 0
	for _, r := range runs {
		if len(cur) > 0 && bytes+len(r.buf) > maxBatchBytes {
			batches = append(batches, cur)
			cur, bytes = nil, 0
		}
		cur = append(cur, r)
		bytes += len(r.buf)
	}
	batches = append(batches, cur)
	return fs.flushWorkers(len(batches), func(i int) error {
		return fs.writeRunBatch(sp, pool, batches[i])
	})
}

// writeRun writes one coalesced run synchronously (serial path).
func (fs *FS) writeRun(sp *obs.Span, pool *cache.Pool, r flushRun) error {
	if err := fs.petalWrite(sp, r.addr, r.buf); err != nil {
		return err
	}
	pool.MarkCleanIfBatch(r.entries, r.gens)
	fs.m.bytesWritten.Add(int64(len(r.buf)))
	fs.m.flushRuns.Inc()
	fs.m.flushPages.Add(int64(len(r.entries)))
	return nil
}

// writeRunBatch sends one batch of runs as a single scatter-gather
// write and marks the covered entries clean on success.
func (fs *FS) writeRunBatch(sp *obs.Span, pool *cache.Pool, batch []flushRun) error {
	exts := make([]petal.Extent, len(batch))
	total := 0
	for i, r := range batch {
		exts[i] = petal.Extent{Off: r.addr, Data: r.buf}
		total += len(r.buf)
	}
	if err := fs.petalWriteV(sp, exts); err != nil {
		return err
	}
	fs.m.bytesWritten.Add(int64(total))
	fs.m.flushBatches.Inc()
	fs.m.flushRuns.Add(int64(len(batch)))
	for _, r := range batch {
		pool.MarkCleanIfBatch(r.entries, r.gens)
		fs.m.flushPages.Add(int64(len(r.entries)))
	}
	return nil
}

// flushWorkers runs fn(i) for every i in [0, n) on up to
// FlushParallelism workers, tracking the in-flight peak. All n run
// regardless of failures; the first error is returned.
func (fs *FS) flushWorkers(n int, fn func(int) error) error {
	par := fs.cfg.FlushParallelism
	if par > n {
		par = n
	}
	if par <= 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			fs.noteFlushInFlight(1)
			err := fn(i)
			fs.noteFlushInFlight(-1)
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	sem := make(chan struct{}, par)
	errCh := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			fs.noteFlushInFlight(1)
			errCh <- fn(i)
			fs.noteFlushInFlight(-1)
			<-sem
		}(i)
	}
	wg.Wait()
	close(errCh)
	var firstErr error
	for err := range errCh {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (fs *FS) noteFlushInFlight(d int64) {
	fs.mu.Lock()
	fs.flushInFlight += d
	cur := fs.flushInFlight
	fs.mu.Unlock()
	fs.m.flushPeak.SetMax(cur)
}

// reclaimLog is the WAL's space-pressure callback: make records
// through seq durable so their space can be reused.
func (fs *FS) reclaimLog(through int64) {
	_ = fs.log.Flush()
	fs.mu.Lock()
	if fs.appended > fs.flushed {
		fs.flushed = fs.appended
	}
	fs.mu.Unlock()
	var old []*cache.Entry
	for _, e := range fs.meta.AllDirty() {
		if fs.meta.EntrySeq(e) <= through {
			old = append(old, e)
		}
	}
	if err := fs.flushRuns(nil, fs.meta, old); err == nil {
		fs.log.Release(through)
	}
}

// ---- lock service callbacks ----

// onRevoke implements §5's coherence actions when another server
// wants a conflicting lock; sp is the revoke's root span.
func (fs *FS) onRevoke(sp *obs.Span, lock uint64, to lockservice.Mode) {
	fs.trace("onRevoke lock=%x to=%v dirtyMeta=%d dirtyData=%d", lock, to,
		len(fs.meta.DirtyByOwner(lock)), len(fs.data.DirtyByOwner(lock)))
	switch lock & (0xff << 56) {
	case lockTagInode:
		fs.flushOwner(sp, lock)
		if to == lockservice.None {
			fs.meta.InvalidateByOwner(lock)
			fs.data.InvalidateByOwner(lock)
			// The prefetch window is void with the cache.
			inum := int64(lock &^ (0xff << 56))
			fs.raMu.Lock()
			delete(fs.raHigh, inum)
			fs.raMu.Unlock()
		}
	case lockTagBitmap:
		fs.flushOwner(sp, lock)
		fs.dropSegment(lock)
		if to == lockservice.None {
			fs.meta.InvalidateByOwner(lock)
		}
	case LockBarrier:
		// Backup barrier: clean everything before letting the backup
		// program take the exclusive lock (§8).
		_ = fs.Sync()
	}
}

// flushOwner forces the log and writes back the dirty blocks covered
// by one lock: "a write lock that covers dirty data can change owners
// only after the dirty data has been written to Petal" (§4). That
// rule is absolute — a transient Petal failure must delay the lock
// handoff, not drop the data — so this retries until everything is
// clean or the lease is definitively lost (in which case the lock
// service runs recovery from our log instead).
func (fs *FS) flushOwner(sp *obs.Span, lock uint64) {
	for {
		dirtyMeta := fs.meta.DirtyByOwner(lock)
		dirtyData := fs.data.DirtyByOwner(lock)
		if len(dirtyMeta)+len(dirtyData) == 0 {
			return
		}
		ok := true
		if err := fs.flushRuns(sp, fs.meta, dirtyMeta); err != nil {
			ok = false
		}
		if err := fs.flushRuns(sp, fs.data, dirtyData); err != nil {
			ok = false
		}
		if ok {
			continue // re-check: all clean now exits above
		}
		if fs.clerk.LeaseLost() {
			return // poison path owns the data-loss accounting
		}
		fs.w.Clock.Sleep(500 * time.Millisecond)
	}
}

// dropSegment forgets an owned allocation segment when its lock is
// revoked (another server is stealing it). The scan hints covering
// the segment go with it: once the lock is gone the thief may free
// bits below our resume point or refill a segment we marked full, so
// the hints are only trustworthy while the lock is held.
func (fs *FS) dropSegment(lock uint64) {
	seg := int64(lock &^ (0xff << 56))
	fs.mu.Lock()
	for c, segs := range fs.owned {
		for i, s := range segs {
			if s == seg {
				fs.owned[c] = append(segs[:i], segs[i+1:]...)
				break
			}
		}
	}
	fs.dropSegHintsLocked(seg)
	fs.mu.Unlock()
}

// dropSegHintsLocked invalidates every allocator hint touching seg.
// Caller holds fs.mu.
func (fs *FS) dropSegHintsLocked(seg int64) {
	for c, s := range fs.stickySeg {
		if s == seg {
			delete(fs.stickySeg, c)
		}
	}
	for k := range fs.segResume {
		if k.seg == seg {
			delete(fs.segResume, k)
		}
	}
	for k := range fs.segFull {
		if k.seg == seg {
			delete(fs.segFull, k)
		}
	}
}

// onRecover is the recovery demon (§4): replay the dead server's log
// against the shared disk. The lock service has granted us exclusive
// ownership of the dead server's log and locks.
func (fs *FS) onRecover(dead string, deadSlot int) error {
	fs.jr.Record("fs", "recover", "start", 0, int64(deadSlot), dead)
	region := &logRegion{fs: fs, base: fs.lay.LogSlotBase(deadSlot)}
	recs, err := wal.Scan(region, fs.lay.LogSize)
	if err != nil {
		fs.jr.Record("fs", "recover", "fail", 0, int64(deadSlot), "scan: "+err.Error())
		return err
	}
	fs.jr.Record("fs", "recover", "scanned", 0, int64(len(recs)), dead)
	applied, err := wal.Replay(recs, &directDev{fs: fs})
	if err != nil {
		fs.jr.Record("fs", "recover", "fail", 0, int64(deadSlot), "replay: "+err.Error())
		return err
	}
	fs.jr.Record("fs", "recover", "replayed", 0, int64(applied), dead)
	fs.m.recoveries.Inc()
	return nil
}

// onLeaseLost implements §6: discard all cached data; if any of it
// was dirty, poison the file system so every subsequent request
// fails until unmount.
func (fs *FS) onLeaseLost() {
	dirty := fs.meta.HasDirty() || fs.data.HasDirty()
	if dirty {
		fs.jr.Record("fs", "poison", "lease-lost", 0, 1, "dirty cache discarded; server shut off")
	} else {
		fs.jr.Record("fs", "lease", "lost-clean", 0, 0, "caches invalidated")
	}
	fs.meta.InvalidateAll()
	fs.data.InvalidateAll()
	fs.mu.Lock()
	if dirty {
		fs.poisoned = true
	}
	fs.owned = make(map[allocClass][]int64)
	fs.stickySeg = make(map[allocClass]int64)
	fs.segResume = make(map[segKey]int64)
	fs.segFull = make(map[segKey]bool)
	fs.mu.Unlock()
}
