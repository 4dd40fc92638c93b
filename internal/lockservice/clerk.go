package lockservice

import (
	"sync"
	"time"

	"frangipani/internal/obs"
	"frangipani/internal/rpc"
	"frangipani/internal/sim"
)

// clkLock is the clerk-side state of one lock.
type clkLock struct {
	mode          Mode // granted mode
	want          Mode // highest mode local waiters need
	users         int  // FS operations currently inside the lock
	revokePending bool
	revokeTo      Mode
	revoking      bool // flush callback in flight
	lastReq       sim.Time
	lastReqMode   Mode // mode of the last transmitted request
	lastUsed      sim.Time
	// epoch advances on every release/downgrade; grants echoing an
	// older epoch answered a request from a previous tenancy of this
	// lock and must be ignored.
	epoch int64
}

// sendOp is one queued outbound lock operation, drained by the sender
// demon into per-shard-server batches.
type sendOp struct {
	release bool
	lock    uint64
	mode    Mode  // release: the new mode; acquire: recomputed at flush
	epoch   int64 // acquire: tenancy epoch at enqueue time
}

// Clerk is the lock service module linked into each Frangipani
// server ("a clerk module linked into each Frangipani server", §6).
// Locks are sticky: Unlock releases the caller's use but the clerk
// keeps the grant until some other clerk needs a conflicting lock,
// at which point the revoke callback (cache flush / invalidate) runs
// and the lock is downgraded or released.
//
// Outbound acquires and releases are not transmitted inline: they are
// enqueued on a FIFO and drained by a sender demon that groups
// consecutive operations per owning shard server into AcquireBatch /
// ReleaseBatch messages, so a burst of lock traffic costs one network
// message per server rather than one per lock.
type Clerk struct {
	machine string
	table   string
	w       *sim.World
	cfg     Config
	ep      *rpc.Endpoint
	servers []string

	mu        sync.Mutex
	cond      *sync.Cond
	locks     map[uint64]*clkLock
	epochGen  int64         // source of per-lock request epochs
	shardVer  map[int]int64 // fencing floor per lock shard
	state     GState
	stateOK   bool
	leaseID   uint64
	logSlot   int
	acks      map[string]sim.Time
	// renewSent is the last time a renewal (standalone or piggybacked
	// on a batch) was transmitted to each server; flushLocked uses it
	// to stamp Renew on batches no more often than needed.
	renewSent map[string]sim.Time
	opened    bool
	closed    bool
	leaseLost bool
	cancels   []func()

	// Outbound op queue, drained by the sender demon.
	outq     []sendOp
	sendCond *sync.Cond
	// sending is set while the sender transmits a drain with c.mu
	// released; Close waits it out so no batch follows the CloseReq.
	sending bool
	// renewing guards against renewal-tick pileup: a slow shard server
	// must not consume the whole renewal window by stacking ticks.
	renewing bool
	// refreshing single-flights shard-map refetches triggered by
	// wrong-shard nacks and epoch piggybacks.
	refreshing bool

	// onRevoke runs before a lock is downgraded (to Shared) or
	// released (to None): flush dirty data, then invalidate on full
	// release. sp is the revoke's root span. It must not call back
	// into the clerk for this lock.
	onRevoke func(sp *obs.Span, lock uint64, to Mode)
	// onRecover replays a dead server's log; see paper §4.
	onRecover func(dead string, deadSlot int) error
	// onLeaseLost poisons the file system (paper §6: "Frangipani
	// turns on an internal flag that causes all subsequent requests
	// from user programs to return an error").
	onLeaseLost func()

	// Trace, when set, receives debug events.
	Trace func(format string, args ...any)

	// Observability; set once at construction.
	now        obs.NowFunc
	tr         *obs.Tracer
	acqLat     *obs.Histogram
	revLat     *obs.Histogram
	relLat     *obs.Histogram
	batchC     *obs.Counter       // outbound batch messages
	batchOpsC  *obs.Counter       // lock ops carried in those batches
	renewSkipC *obs.Counter       // renew ticks skipped (predecessor in flight)
	renewStdC  *obs.Counter       // standalone RenewMsg calls issued
	renewPigC  *obs.Counter       // renewals piggybacked on batches
	renewElidC *obs.Counter       // per-server standalone calls elided (fresh ack)
	resTab     *obs.ResourceTable // per-lock contention (hot-lock table)
	acct       *obs.AccountTable  // per-principal lock-wait attribution
	jr         *obs.Journal       // flight recorder (nil-safe)
}

func (c *Clerk) trace(format string, args ...any) {
	if c.Trace != nil {
		c.Trace(format, args...)
	}
}

// NewClerk creates a clerk for one machine and lock table on the
// world's simulated network. Callbacks must be installed before Open.
func NewClerk(w *sim.World, machine, table string, servers []string, cfg Config) *Clerk {
	return NewClerkWithCarrier(w, machine, table, servers, cfg, rpc.SimCarrier{Net: w.Net})
}

// NewClerkWithCarrier creates a clerk on an arbitrary message carrier.
func NewClerkWithCarrier(w *sim.World, machine, table string, servers []string, cfg Config, carrier rpc.Carrier) *Clerk {
	c := &Clerk{
		machine:  machine,
		table:    table,
		w:        w,
		cfg:      cfg,
		servers:  append([]string(nil), servers...),
		locks:     make(map[uint64]*clkLock),
		acks:      make(map[string]sim.Time),
		renewSent: make(map[string]sim.Time),
		shardVer:  make(map[int]int64),
	}
	c.cond = sync.NewCond(&c.mu)
	c.sendCond = sync.NewCond(&c.mu)
	if reg := w.Obs; reg != nil {
		c.now = reg.Now
		c.tr = reg.Tracer()
		c.acqLat = reg.Histogram("lockservice.acquire.latency#" + machine)
		c.revLat = reg.Histogram("lockservice.revoke.latency#" + machine)
		c.relLat = reg.Histogram("lockservice.release.latency#" + machine)
		c.batchC = reg.Counter("lockservice.clerk.batches#" + machine)
		c.batchOpsC = reg.Counter("lockservice.clerk.batched_ops#" + machine)
		c.renewSkipC = reg.Counter("lockservice.renew.skipped#" + machine)
		c.renewStdC = reg.Counter("lockservice.renew.standalone#" + machine)
		c.renewPigC = reg.Counter("lockservice.renew.piggyback#" + machine)
		c.renewElidC = reg.Counter("lockservice.renew.elided#" + machine)
		c.resTab = reg.Resources("lockservice.locks")
		c.acct = reg.Accounts()
		c.jr = reg.Journal(machine)
	}
	c.ep = rpc.NewEndpoint(ClerkAddr(machine), carrier, w.Clock, c.handle)
	return c
}

// SetCallbacks installs the FS integration hooks.
func (c *Clerk) SetCallbacks(onRevoke func(sp *obs.Span, lock uint64, to Mode),
	onRecover func(dead string, deadSlot int) error, onLeaseLost func()) {
	c.mu.Lock()
	c.onRevoke = onRevoke
	c.onRecover = onRecover
	c.onLeaseLost = onLeaseLost
	c.mu.Unlock()
}

// Machine returns the clerk's machine name (its identity to the lock
// service).
func (c *Clerk) Machine() string { return c.machine }

// Open contacts the lock service, opens the table, and starts lease
// renewal. It returns the assigned log slot.
func (c *Clerk) Open() error {
	var resp OpenResp
	ok := false
	for _, s := range c.servers {
		r, err := c.ep.Call(nil, Addr(s), OpenReq{Clerk: c.machine, Table: c.table}, 180*time.Second)
		if err != nil {
			continue
		}
		if or, isOpen := r.(OpenResp); isOpen && or.OK {
			resp = or
			ok = true
			break
		}
	}
	if !ok {
		return ErrNoServer
	}
	now := c.w.Clock.Now()
	c.mu.Lock()
	c.leaseID = resp.LeaseID
	c.logSlot = resp.LogSlot
	c.opened = true
	for _, s := range c.servers {
		c.acks[s] = now
	}
	c.mu.Unlock()
	_ = c.refreshState()
	go c.sender()
	idle := c.cfg.IdleDiscard
	if idle <= 0 {
		idle = DefaultIdleDiscard
	}
	c.cancels = append(c.cancels,
		c.w.Clock.Tick(c.cfg.LeaseDuration/3, c.renew),
		c.w.Clock.Tick(c.cfg.RevokeRetry, c.retryRequests),
		c.w.Clock.Tick(idle/4, func() { c.discardIdle(idle) }),
	)
	return nil
}

// discardIdle releases sticky grants unused for longer than idle,
// bounding lock memory (§6). Discard runs through the same path as a
// server revoke, so covered dirty data is flushed first.
func (c *Clerk) discardIdle(idle sim.Duration) {
	now := c.w.Clock.Now()
	c.mu.Lock()
	if c.closed || c.leaseLost {
		c.mu.Unlock()
		return
	}
	var victims []uint64
	for id, l := range c.locks {
		idleLong := sim.Duration(now-l.lastUsed) > idle
		quiet := l.users == 0 && l.want <= l.mode && !l.revokePending && !l.revoking
		if l.mode > None && quiet && idleLong {
			victims = append(victims, id)
		} else if l.mode == None && quiet && idleLong {
			// Fully released and forgotten: reclaim the entry itself.
			delete(c.locks, id)
		}
	}
	for _, id := range victims {
		l := c.locks[id]
		l.revokePending = true
		l.revokeTo = None
		l.revoking = true
	}
	c.mu.Unlock()
	for _, id := range victims {
		go c.processRevoke(id)
	}
}

// LeaseID returns the lease identifier from Open.
func (c *Clerk) LeaseID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leaseID
}

// LogSlot returns the private log slot assigned at Open; Frangipani
// derives its log location from it (§7).
func (c *Clerk) LogSlot() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.logSlot
}

// Close cleanly closes the table (unmount).
func (c *Clerk) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for c.sending {
		c.sendCond.Wait()
	}
	c.mu.Unlock()
	c.cond.Broadcast()
	c.sendCond.Broadcast()
	for _, cancel := range c.cancels {
		cancel()
	}
	for _, s := range c.servers {
		_ = c.ep.Cast(nil, Addr(s), CloseReq{Clerk: c.machine, Table: c.table})
	}
	c.ep.Close()
}

// Abandon simulates a crash of the clerk's machine: tickers stop and
// the endpoint goes silent WITHOUT closing the session, so the lock
// service sees the lease expire and initiates recovery.
func (c *Clerk) Abandon() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.jr.Record("lockservice", "session", "abandon", 0, 0, "crash: lease left to expire")
	c.cond.Broadcast()
	c.sendCond.Broadcast()
	for _, cancel := range c.cancels {
		cancel()
	}
	c.ep.Close()
}

// refreshState fetches the shard map.
func (c *Clerk) refreshState() error {
	for _, s := range c.servers {
		r, err := c.ep.Call(nil, Addr(s), StateReq{}, 60*time.Second)
		if err != nil {
			continue
		}
		if sr, ok := r.(StateResp); ok && sr.OK {
			c.mu.Lock()
			if !c.stateOK || sr.State.Version > c.state.Version {
				c.state = sr.State
				c.stateOK = true
			}
			c.mu.Unlock()
			return nil
		}
	}
	return ErrNoServer
}

// noteNewEpoch reacts to a server advertising a shard-map epoch newer
// than ours (piggybacked on RenewAck or quoted by a WrongShard nack):
// refetch the map once, single-flighted. Called with c.mu held.
func (c *Clerk) noteNewEpochLocked(epoch int64) {
	if !c.stateOK || epoch <= c.state.Epoch || c.refreshing || c.closed || c.leaseLost {
		return
	}
	c.refreshing = true
	go func() {
		_ = c.refreshState()
		c.mu.Lock()
		c.refreshing = false
		c.mu.Unlock()
	}()
}

func (c *Clerk) serverFor(lock uint64) string {
	c.mu.Lock()
	ok := c.stateOK
	srv := ""
	if ok {
		srv = c.state.ServerFor(lock)
	}
	c.mu.Unlock()
	if !ok {
		if c.refreshState() != nil {
			return ""
		}
		c.mu.Lock()
		srv = c.state.ServerFor(lock)
		c.mu.Unlock()
	}
	return srv
}

// shardOfLocked maps a lock to its shard under the current map (or
// the default shard count if the map is not yet known — before the
// first refreshState completes no grants are in flight anyway).
func (c *Clerk) shardOfLocked(lock uint64) int {
	if c.stateOK {
		return c.state.ShardOf(lock)
	}
	shards := c.cfg.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	return ShardOf(lock, shards)
}

// Lock is LockIn outside any operation.
func (c *Clerk) Lock(lock uint64, mode Mode) error { return c.LockIn(nil, lock, mode) }

// LockIn acquires the lock in the given mode on behalf of sp's
// operation, blocking until granted. It returns ErrLeaseLost if the
// clerk's lease expires meanwhile.
func (c *Clerk) LockIn(sp *obs.Span, lock uint64, mode Mode) error {
	if c.now == nil {
		return c.lockWait(sp, lock, mode)
	}
	start := c.now()
	asp := c.tr.Child(sp, "lockservice", "acquire")
	err := c.lockWait(asp, lock, mode)
	asp.Done()
	// Per-lock contention: the whole acquire latency counts as wait
	// (an uncontended sticky hit is ~0, so hot locks dominate).
	wait := c.now() - start
	c.resTab.Acquire(lock, wait)
	c.acqLat.Record(wait)
	c.acct.LockWait(sp.Who(), wait)
	// Journal only acquires that blocked or failed: uncontended sticky
	// hits are the overwhelming common case and would churn the ring.
	if err != nil {
		c.jr.RecordIn(sp, "lockservice", "acquire", "fail", lock, wait, err.Error())
	} else if wait > 0 {
		c.jr.RecordIn(sp, "lockservice", "acquire", "ok", lock, wait, "")
	}
	return err
}

func (c *Clerk) lockWait(sp *obs.Span, lock uint64, mode Mode) error {
	c.mu.Lock()
	for {
		if c.closed {
			c.mu.Unlock()
			return ErrClosed
		}
		if c.leaseLost {
			c.mu.Unlock()
			return ErrLeaseLost
		}
		l := c.lockLocked(lock)
		if l.mode >= mode && !l.revokePending && !l.revoking {
			l.users++
			l.lastUsed = c.w.Clock.Now()
			c.mu.Unlock()
			return nil
		}
		if l.want < mode {
			l.want = mode
		}
		// While a revoke is pending or in flight, no request may be
		// sent: a request racing ahead of our release would make the
		// server re-grant from stale holder state.
		if !l.revokePending && !l.revoking {
			c.requestLocked(sp, lock, l)
		}
		c.cond.Wait()
	}
}

// TryLock acquires without blocking on the network: it succeeds only
// if the clerk already holds a sufficient sticky grant.
func (c *Clerk) TryLock(lock uint64, mode Mode) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.leaseLost {
		return false
	}
	l := c.lockLocked(lock)
	if l.mode >= mode && !l.revokePending && !l.revoking {
		l.users++
		l.lastUsed = c.w.Clock.Now()
		return true
	}
	return false
}

// Unlock releases the caller's use. The grant itself remains cached
// (sticky) until revoked.
func (c *Clerk) Unlock(lock uint64) {
	if c.now != nil {
		start := c.now()
		defer func() { c.relLat.Record(c.now() - start) }()
	}
	c.mu.Lock()
	l := c.locks[lock]
	if l == nil || l.users == 0 {
		c.mu.Unlock()
		return
	}
	l.users--
	start := l.users == 0 && l.revokePending && !l.revoking
	if start {
		l.revoking = true
	}
	c.mu.Unlock()
	if start {
		go c.processRevoke(lock)
	}
	c.cond.Broadcast()
}

// InjectStaleShardMap is a fault-injection hook: it deliberately
// corrupts this clerk's view of the shard map — every shard's owner
// is rotated to the next server and the view is marked older than the
// authoritative one — so the clerk's next batches are misrouted until
// a wrong-shard nack forces a refetch. Tests and experiments use it
// to exercise the stale-map retry path deterministically: a real
// reassignment refreshes clerks almost immediately (the new owner's
// sync request triggers a refetch), so racing one only nacks by luck.
func (c *Clerk) InjectStaleShardMap() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.stateOK || len(c.servers) < 2 {
		return
	}
	idx := make(map[string]int, len(c.servers))
	for i, s := range c.servers {
		idx[s] = i
	}
	for sh, srv := range c.state.Assignment {
		c.state.Assignment[sh] = c.servers[(idx[srv]+1)%len(c.servers)]
	}
	c.state.Version--
}

// Held reports the clerk's current granted mode for a lock.
func (c *Clerk) Held(lock uint64) Mode {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l := c.locks[lock]; l != nil {
		return l.mode
	}
	return None
}

// HeldCount returns the number of sticky grants currently cached.
func (c *Clerk) HeldCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, l := range c.locks {
		if l.mode > None {
			n++
		}
	}
	return n
}

func (c *Clerk) lockLocked(lock uint64) *clkLock {
	l := c.locks[lock]
	if l == nil {
		c.epochGen++
		l = &clkLock{epoch: c.epochGen}
		c.locks[lock] = l
	}
	return l
}

// enqueueLocked appends an outbound op for the sender demon. Queue
// order is wire order per lock: a release enqueued during a revoke
// always precedes any request of the next tenancy (which carries a
// newer epoch), so the server never sees them inverted.
func (c *Clerk) enqueueLocked(op sendOp) {
	c.outq = append(c.outq, op)
	c.sendCond.Signal()
}

// requestLocked enqueues a (re)send of the lock request, rate-limited;
// sp is the waiting operation's span, or nil for a retransmission.
func (c *Clerk) requestLocked(sp *obs.Span, lock uint64, l *clkLock) {
	now := c.w.Clock.Now()
	// Rate-limit retransmissions — but never suppress the FIRST
	// request (lastReq == 0 means "never sent") or an UPGRADE (a
	// request for a stronger mode than the last one transmitted).
	if l.lastReq != 0 && l.want <= l.lastReqMode &&
		sim.Duration(now-l.lastReq) < c.cfg.RevokeRetry/2 {
		return
	}
	l.lastReq = now
	l.lastReqMode = l.want
	c.trace("request lock=%x mode=%v enqueued", lock, l.want)
	c.jr.RecordIn(sp, "lockservice", "acquire", "wait", lock, int64(l.want), "")
	c.enqueueLocked(sendOp{lock: lock, mode: l.want, epoch: l.epoch})
}

// sendReleaseLocked enqueues a release/downgrade.
func (c *Clerk) sendReleaseLocked(lock uint64, newMode Mode) {
	c.enqueueLocked(sendOp{release: true, lock: lock, mode: newMode})
}

// sender is the clerk's outbound demon: it drains the op queue and
// transmits per-shard-server batches. It exits when the clerk closes.
func (c *Clerk) sender() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for len(c.outq) == 0 && !c.closed {
			c.sendCond.Wait()
		}
		if c.closed {
			return
		}
		if !c.stateOK {
			c.mu.Unlock()
			err := c.refreshState()
			c.mu.Lock()
			if err != nil || !c.stateOK {
				// Routing unknown: drop the drain. Pending wants are
				// re-enqueued by the retry ticker and lost releases are
				// re-asked-for by the server's revoke retry.
				c.outq = nil
			}
			continue // re-check closed: Close may have run meanwhile
		}
		ops := c.outq
		c.outq = nil
		out := c.batchLocked(ops)
		// Transmit with c.mu released: Send sleeps through the link's
		// transmission time, and grant and revoke handlers must not
		// wait behind it. The sender is the only goroutine that sends
		// batches, and it sends each drain in full before taking the
		// next, so batches still reach the wire in queue order.
		c.sending = true
		c.mu.Unlock()
		for _, b := range out {
			_ = c.ep.Cast(nil, Addr(b.srv), b.msg)
		}
		c.mu.Lock()
		c.sending = false
		c.sendCond.Broadcast()
	}
}

// outBatch is one batch message built under c.mu, to be cast to srv
// after it is released.
type outBatch struct {
	srv string
	msg any
}

// batchLocked groups a drain of the op queue into per-server batches.
//
// Releases are sent before acquires. Within one drain that inversion
// is safe: a queued acquire older than a queued release of the same
// lock carries a pre-release tenancy epoch and is discarded by the
// revalidation below, so the only surviving same-lock order is
// release-then-reacquire — exactly the order the batches transmit.
func (c *Clerk) batchLocked(ops []sendOp) []outBatch {
	mapEpoch := c.state.Epoch
	relBySrv := make(map[string][]BatchRel)
	acqBySrv := make(map[string][]BatchReq)
	var order []string
	seen := make(map[string]bool)
	for _, op := range ops {
		srv := c.state.ServerFor(op.lock)
		if !seen[srv] {
			seen[srv] = true
			order = append(order, srv)
		}
		if op.release {
			relBySrv[srv] = append(relBySrv[srv], BatchRel{Lock: op.lock, NewMode: op.mode})
			continue
		}
		// Revalidate acquires at flush time: the want may have been
		// granted, released, or superseded since it was enqueued.
		l := c.locks[op.lock]
		if l == nil || l.epoch != op.epoch || l.revokePending || l.revoking || l.want <= l.mode {
			continue
		}
		acqBySrv[srv] = append(acqBySrv[srv], BatchReq{Lock: op.lock, Mode: l.want, Epoch: l.epoch})
	}
	now := c.w.Clock.Now()
	var out []outBatch
	for _, srv := range order {
		// Piggyback a lease renewal on the first batch of this drain
		// when one is due for srv: busy clerks renew as a side effect
		// of traffic they send anyway, keeping their standalone
		// RenewMsg rate at zero (O(1)-in-N control chatter).
		renew := c.opened && !c.leaseLost && c.renewDueLocked(srv, now)
		if rels := relBySrv[srv]; len(rels) > 0 {
			c.batchC.Inc()
			c.batchOpsC.Add(int64(len(rels)))
			m := ReleaseBatch{Clerk: c.machine, Table: c.table, MapEpoch: mapEpoch, Rels: rels}
			if renew {
				m.Renew, m.LeaseID = true, c.leaseID
				c.noteRenewSentLocked(srv, now, true)
				renew = false
			}
			out = append(out, outBatch{srv, m})
		}
		if reqs := acqBySrv[srv]; len(reqs) > 0 {
			c.batchC.Inc()
			c.batchOpsC.Add(int64(len(reqs)))
			m := AcquireBatch{Clerk: c.machine, Table: c.table, MapEpoch: mapEpoch, Reqs: reqs}
			if renew {
				m.Renew, m.LeaseID = true, c.leaseID
				c.noteRenewSentLocked(srv, now, true)
			}
			out = append(out, outBatch{srv, m})
		}
	}
	return out
}

// renewDueLocked reports whether a renewal should ride on a batch to
// srv: the last renewal we transmitted to it (standalone or
// piggybacked) is at least half a renewal tick old. Piggybacking at
// ~2x the standalone cadence keeps the server's ack fresh enough that
// the renew() tick never needs a standalone call while traffic flows.
func (c *Clerk) renewDueLocked(srv string, now sim.Time) bool {
	return sim.Duration(now-c.renewSent[srv]) >= c.cfg.LeaseDuration/6
}

// noteRenewSentLocked records a transmitted renewal to srv.
func (c *Clerk) noteRenewSentLocked(srv string, now sim.Time, piggyback bool) {
	c.renewSent[srv] = now
	if piggyback {
		c.renewPigC.Inc()
	} else {
		c.renewStdC.Inc()
	}
}

// retryRequests retransmits wants that have not been granted and
// refreshes routing state occasionally.
func (c *Clerk) retryRequests() {
	c.mu.Lock()
	if c.closed || c.leaseLost {
		c.mu.Unlock()
		return
	}
	anyPending := false
	for _, l := range c.locks {
		if l.want > l.mode && !l.revoking && !l.revokePending {
			anyPending = true
			break
		}
	}
	c.mu.Unlock()
	if !anyPending {
		return
	}
	_ = c.refreshState() // routing may have changed under us
	c.mu.Lock()
	for id, l := range c.locks {
		if l.want > l.mode && !l.revoking && !l.revokePending {
			l.lastReq = 0 // force through the rate limit
			c.requestLocked(nil, id, l)
		}
	}
	c.mu.Unlock()
}

// processRevoke runs the FS flush callback and then complies with the
// pending revoke.
func (c *Clerk) processRevoke(lock uint64) {
	c.trace("processRevoke lock=%x", lock)
	c.resTab.Event(lock) // count the revoke against the lock
	var start int64
	if c.now != nil {
		start = c.now()
		defer func() { c.revLat.Record(c.now() - start) }()
	}
	c.mu.Lock()
	l := c.locks[lock]
	if l == nil {
		c.mu.Unlock()
		return
	}
	target := l.revokeTo
	cb := c.onRevoke
	c.mu.Unlock()

	if cb != nil {
		// A revoke roots a fresh trace: the flush it triggers (wal +
		// petal spans) is followable like any foreground op.
		sp := c.tr.Start(nil, "lockservice", "revoke")
		cb(sp, lock, target)
			sp.Done()
	}

	c.mu.Lock()
	c.trace("revoke done lock=%x -> %v", lock, target)
	l.mode = target
	l.want = None // local waiters re-establish their wants
	// New tenancy: grants answering requests from before this
	// release/downgrade are void, and the retransmission rate limiter
	// must not throttle the tenancy's first request.
	c.epochGen++
	l.epoch = c.epochGen
	l.lastReq = 0
	l.lastReqMode = None
	// Enqueue the release before clearing the revoking flag, with the
	// clerk lock held: no request of ours can overtake it in the
	// sender's FIFO.
	c.jr.Record("lockservice", "release", "sent", lock, int64(target), "")
	c.sendReleaseLocked(lock, target)
	l.revokePending = false
	l.revoking = false
	c.mu.Unlock()
	c.cond.Broadcast()
}

// handle serves server-to-clerk messages.
func (c *Clerk) handle(_ *obs.Span, from string, body any) any {
	switch m := body.(type) {
	case GrantMsg:
		c.onGrant(m)
	case RevokeMsg:
		c.onRevokeMsg(m)
	case WrongShard:
		c.onWrongShard(m)
	case SyncReq:
		return c.onSync(m)
	case RecoverReq:
		c.onRecoverReq(m)
	case RenewAck:
		// Piggyback ack cast back by a lock server that saw our
		// Renew-stamped batch. An ack for a dead session (Valid false)
		// must NOT advance the lease arithmetic: the acks age out,
		// standalone renewals resume, and the majority-invalid check
		// there delivers the zombie verdict.
		c.mu.Lock()
		if m.Valid && m.LeaseID == c.leaseID {
			c.acks[m.Server] = c.w.Clock.Now()
		}
		c.noteNewEpochLocked(m.MapEpoch)
		c.mu.Unlock()
	}
	return nil
}

func (c *Clerk) onGrant(m GrantMsg) {
	if m.Table != c.table {
		return
	}
	c.mu.Lock()
	if c.leaseLost || c.closed {
		c.sendReleaseLocked(m.Lock, None)
		c.mu.Unlock()
		return
	}
	c.trace("grant lock=%x mode=%v ver=%d epoch=%d floor=%d", m.Lock, m.Mode, m.Ver, m.Epoch, c.shardVer[c.shardOfLocked(m.Lock)])
	if m.Ver != 0 && m.Ver < c.shardVer[c.shardOfLocked(m.Lock)] {
		// Grant from a deposed lock server that has not yet applied
		// the reassignment; the new server's sync is authoritative.
		c.mu.Unlock()
		return
	}
	l := c.lockLocked(m.Lock)
	if m.Epoch != 0 && m.Epoch != l.epoch {
		// This grant answers a retransmitted request from before our
		// last release/downgrade; the server's re-grant raced our
		// release and is void.
		c.trace("grant lock=%x stale epoch %d != %d, ignored", m.Lock, m.Epoch, l.epoch)
		c.mu.Unlock()
		return
	}
	if l.revokePending || l.revoking {
		// A grant crossing our in-progress release is stale; our
		// release corrects the server's view and the want will be
		// re-requested afterwards.
		c.mu.Unlock()
		return
	}
	if m.Mode > l.mode {
		l.mode = m.Mode
	}
	c.jr.Record("lockservice", "grant", "recv", m.Lock, int64(m.Mode), "")
	c.mu.Unlock()
	c.cond.Broadcast()
}

func (c *Clerk) onRevokeMsg(m RevokeMsg) {
	if m.Table != c.table {
		return
	}
	c.trace("revokeMsg lock=%x to=%v", m.Lock, m.NewMode)
	c.mu.Lock()
	l := c.locks[m.Lock]
	if l == nil || l.mode <= m.NewMode {
		mode := None
		wanting := false
		if l != nil {
			mode = l.mode
			wanting = l.want > l.mode || l.revokePending || l.revoking
		}
		// Already compliant. Refresh the server's view in case our
		// release was lost — but never while a request of ours is
		// outstanding: this release could overtake that request's
		// grant and cancel it on the server.
		if !wanting {
			c.sendReleaseLocked(m.Lock, mode)
		}
		c.mu.Unlock()
		return
	}
	if l.revokePending && l.revokeTo <= m.NewMode {
		c.mu.Unlock()
		return // already working on an equal-or-stronger revoke
	}
	c.jr.Record("lockservice", "revoke", "recv", m.Lock, int64(m.NewMode), "")
	l.revokePending = true
	if !l.revoking || m.NewMode < l.revokeTo {
		l.revokeTo = m.NewMode
	}
	start := l.users == 0 && !l.revoking
	if start {
		l.revoking = true
	}
	c.mu.Unlock()
	if start {
		go c.processRevoke(m.Lock)
	}
}

// onWrongShard handles a stale-routing nack: refetch the shard map,
// then re-drive every nacked lock against its new owner — re-request
// if we still want it, or re-send the compliant release if the nacked
// message was a release (so no acknowledged release is ever lost to a
// handoff). The refetch runs on its own goroutine: handlers execute
// on the delivery lane and must not issue blocking Calls.
func (c *Clerk) onWrongShard(m WrongShard) {
	if m.Table != c.table || len(m.Locks) == 0 {
		return
	}
	c.trace("wrong-shard nack from %s: %d locks, epoch %d", m.Server, len(m.Locks), m.Epoch)
	c.jr.Record("lockservice", "shard", "wrongshard", m.Locks[0], int64(len(m.Locks)), "nack from "+m.Server)
	locks := append([]uint64(nil), m.Locks...)
	go func() {
		_ = c.refreshState()
		c.mu.Lock()
		if c.closed || c.leaseLost {
			c.mu.Unlock()
			return
		}
		for _, lk := range locks {
			l := c.locks[lk]
			if l == nil {
				continue
			}
			if l.want > l.mode && !l.revokePending && !l.revoking {
				l.lastReq = 0 // force the retry past the rate limit
				c.requestLocked(nil, lk, l)
			} else if l.want <= l.mode && !l.revokePending && !l.revoking {
				// The nacked message was (or might have been) a release;
				// refresh the new owner's view of our hold. Guarded by
				// the same not-wanting rule as the compliant-refresh in
				// onRevokeMsg.
				c.sendReleaseLocked(lk, l.mode)
			}
		}
		c.mu.Unlock()
	}()
}

func (c *Clerk) onSync(m SyncReq) any {
	if m.Table != c.table {
		return nil
	}
	shards := make(map[int]bool, len(m.Shards))
	for _, sh := range m.Shards {
		shards[sh] = true
	}
	nshards := m.NumShards
	if nshards <= 0 {
		nshards = DefaultShards
	}
	c.mu.Lock()
	for sh := range shards {
		if m.Ver > c.shardVer[sh] {
			c.shardVer[sh] = m.Ver
		}
	}
	var held []HeldLock
	for id, l := range c.locks {
		if l.mode > None && shards[ShardOf(id, nshards)] {
			held = append(held, HeldLock{Lock: id, Mode: l.mode})
		}
	}
	c.mu.Unlock()
	go func() { _ = c.refreshState() }() // assignment changed; relearn routing
	_ = c.ep.Cast(nil, Addr(m.Server), SyncResp{Clerk: c.machine, Seq: m.Seq, Locks: held})
	return nil
}

func (c *Clerk) onRecoverReq(m RecoverReq) {
	if m.Table != c.table {
		return
	}
	c.mu.Lock()
	cb := c.onRecover
	c.mu.Unlock()
	c.jr.Record("lockservice", "recovery", "asked", 0, int64(m.DeadSlot), m.Dead)
	go func() {
		if cb != nil {
			if err := cb(m.Dead, m.DeadSlot); err != nil {
				c.jr.Record("lockservice", "recovery", "fail", 0, int64(m.DeadSlot), m.Dead+": "+err.Error())
				return // coordinator will retry or reassign
			}
		}
		c.jr.Record("lockservice", "recovery", "done", 0, int64(m.DeadSlot), m.Dead)
		_ = c.ep.Cast(nil, Addr(m.Server), RecoveryDone{
			Clerk: c.machine, Table: c.table, Dead: m.Dead, Seq: m.Seq,
		})
	}()
}

// renew broadcasts lease renewals and checks expiry. The lease is
// considered valid while a majority of lock servers acknowledged a
// renewal within the lease window, which keeps the clerk's view
// conservative across partitions. One renewal is ever in flight: a
// tick arriving while its predecessor still waits on a slow server is
// skipped (and journaled), so a straggler cannot stack renewal rounds
// and consume the whole window.
func (c *Clerk) renew() {
	c.mu.Lock()
	if c.closed || c.leaseLost || !c.opened {
		c.mu.Unlock()
		return
	}
	if c.renewing {
		c.renewSkipC.Inc()
		c.jr.Record("lockservice", "lease", "renew.skipped", 0, 0, "previous renewal still in flight")
		c.mu.Unlock()
		return
	}
	c.renewing = true
	lease := c.leaseID
	mapEpoch := int64(0)
	if c.stateOK {
		mapEpoch = c.state.Epoch
	}
	// Elide the standalone call to every server whose ack is fresh —
	// a piggybacked renewal on recent batch traffic already advanced
	// its slot in the lease arithmetic. A fresh ack is one younger
	// than the renewal tick (LeaseDuration/3): even if it stops being
	// refreshed the moment we skip, two more ticks fire before the
	// lease can lapse, so safety is untouched. A fully busy clerk
	// therefore sends ZERO standalone RenewMsg RPCs, and renewal load
	// per lock server is O(1) in cluster size.
	now := c.w.Clock.Now()
	majority := len(c.servers)/2 + 1
	var stale []string
	freshCnt := 0
	for _, s := range c.servers {
		if sim.Duration(now-c.acks[s]) < c.cfg.LeaseDuration/3 {
			freshCnt++
			c.renewElidC.Inc()
			continue
		}
		stale = append(stale, s)
	}
	// A stale minority does not make renewal urgent: expiry is the
	// majority-rank ack, so while a majority is piggyback-fresh and
	// more than half the lease window remains, the stragglers can
	// wait for batch traffic to reach them — or for the majority
	// itself to sag, which fans out on a later tick with two full
	// ticks of headroom. Without this, one quiet machine-to-server
	// pairing (a clerk that happens to send no batch to one server
	// for a few seconds) costs a standalone RPC per tick, adding back
	// a slice of the O(N) renewal fan-out piggybacking removes.
	if len(stale) > 0 && freshCnt >= majority &&
		c.expiresAtLocked() > int64(now)+int64(c.cfg.LeaseDuration/2) {
		for range stale {
			c.renewElidC.Inc()
		}
		stale = nil
	}
	for _, s := range stale {
		c.noteRenewSentLocked(s, now, false)
	}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.renewing = false
		c.mu.Unlock()
	}()

	// Fan out to every server concurrently and settle as soon as the
	// outcome is decided at majority rank: ExpiresAt is fixed once a
	// majority of fresh acks has landed, whatever the stragglers do,
	// so one slow or dead server no longer holds the renewal loop for
	// its full timeout. Stragglers keep running in the background and
	// still record their acks (each goroutine updates c.acks before
	// reporting, so acks counted here are visible to ExpiresAt below).
	type result struct{ acked, invalid bool }
	results := make(chan result, len(stale))
	for _, s := range stale {
		go func(s string) {
			r, err := c.ep.Call(nil, Addr(s), RenewMsg{Clerk: c.machine, LeaseID: lease, MapEpoch: mapEpoch}, c.cfg.LeaseDuration/3)
			if err != nil {
				results <- result{}
				return
			}
			if ack, ok := r.(RenewAck); ok && ack.LeaseID == lease {
				if !ack.Valid {
					results <- result{invalid: true}
					return
				}
				c.mu.Lock()
				c.acks[ack.Server] = c.w.Clock.Now()
				c.noteNewEpochLocked(ack.MapEpoch)
				c.mu.Unlock()
				results <- result{acked: true}
				return
			}
			results <- result{}
		}(s)
	}
	// Fresh (elided) servers count as acked: their renewal evidence
	// is the piggyback ack already recorded in c.acks.
	acked, invalid := freshCnt, 0
	for done := 0; done < len(stale) && acked < majority && invalid < majority; done++ {
		r := <-results
		if r.acked {
			acked++
		}
		if r.invalid {
			invalid++
		}
	}

	// A majority of servers positively disowning the session means it
	// was expired and recovered while we were stalled: the lease is
	// gone, whatever our ack arithmetic says.
	if invalid >= majority {
		c.trace("lease invalidated by majority")
		c.jr.Record("lockservice", "lease", "invalid", 0, int64(invalid), "majority disowned session")
		c.loseLease()
		return
	}
	if c.ExpiresAt() <= int64(c.w.Clock.Now()) {
		c.loseLease()
		return
	}
	c.jr.Record("lockservice", "lease", "renew", 0, int64(acked), "")
}

// ExpiresAt returns the simulated time (ns) at which the lease
// expires: the majority-rank renewal ack plus the lease duration.
func (c *Clerk) ExpiresAt() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.expiresAtLocked()
}

func (c *Clerk) expiresAtLocked() int64 {
	n := len(c.servers)
	times := make([]sim.Time, 0, n)
	for _, s := range c.servers {
		times = append(times, c.acks[s])
	}
	// k-th largest with k = majority: the newest time at which a
	// majority had acked.
	for i := 0; i < len(times); i++ {
		for j := i + 1; j < len(times); j++ {
			if times[j] > times[i] {
				times[i], times[j] = times[j], times[i]
			}
		}
	}
	k := n/2 + 1
	base := times[k-1]
	return int64(base) + int64(c.cfg.LeaseDuration)
}

// LeaseValid reports whether the lease will still be valid margin
// from now; Frangipani checks this "before attempting any write to
// Petal" (§6).
func (c *Clerk) LeaseValid(margin sim.Duration) bool {
	c.mu.Lock()
	lost := c.leaseLost
	c.mu.Unlock()
	if lost {
		return false
	}
	return c.ExpiresAt() > int64(c.w.Clock.Now())+int64(margin)
}

// loseLease discards all lock and triggers the FS poison callback.
func (c *Clerk) loseLease() {
	c.mu.Lock()
	if c.leaseLost {
		c.mu.Unlock()
		return
	}
	c.leaseLost = true
	held := int64(len(c.locks))
	c.locks = make(map[uint64]*clkLock)
	cb := c.onLeaseLost
	c.mu.Unlock()
	c.jr.Record("lockservice", "lease", "lost", 0, held, "all cached grants discarded")
	c.cond.Broadcast()
	if cb != nil {
		cb()
	}
}

// LeaseLost reports whether the lease has been lost.
func (c *Clerk) LeaseLost() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leaseLost
}

// MemoryBytes reports the paper's clerk-side lock memory model (232
// bytes per cached lock).
func (c *Clerk) MemoryBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(len(c.locks)) * ClerkBytesPerLock
}
