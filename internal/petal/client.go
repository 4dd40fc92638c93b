package petal

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"frangipani/internal/bufpool"
	"frangipani/internal/obs"
	"frangipani/internal/rpc"
	"frangipani/internal/sim"
)

// Client is the Petal device driver: it "hides the distributed nature
// of Petal, making Petal look like an ordinary local disk to higher
// layers" (§2.1). Every read and write is split into chunk spans and
// sent as scatter-gather batches, one per replica server; the driver
// fails over when a server is down, and refreshes its view of the
// global state when routing goes stale.
type Client struct {
	name    string
	ep      *rpc.Endpoint
	clock   *sim.Clock
	servers []string

	mu      sync.Mutex
	state   GlobalState
	stateOK bool
	// refreshWait single-flights state refreshes: concurrent callers
	// wait on the in-flight probe instead of stampeding every server.
	refreshWait chan struct{}
	// refreshRR rotates the single-probe target so repeated refreshes
	// sample different servers (a lagging server cannot pin us to a
	// stale view forever).
	refreshRR atomic.Uint64

	// leaseInfo, when set, stamps writes with the holder's lease
	// expiration and id so guarded Petal servers can reject writes
	// from expired leases (§6's hazard fix).
	leaseInfo func() (expireAt int64, leaseID uint64)

	// opDeadline bounds one read or write including retries.
	opDeadline sim.Duration
	// parallelism bounds concurrent batch transfers for large I/Os.
	parallelism int

	// balanceReads spreads first-choice read routing across both alive
	// replicas (Petal serves reads from either copy, §4 of the Petal
	// paper). Benchmarks switch it off to measure the primary-only
	// baseline. 0 = off, 1 = on.
	balanceReads atomic.Int32
	// rr breaks least-outstanding ties round-robin so equally loaded
	// replicas alternate instead of sticking to the primary.
	rr atomic.Uint64
	// randIntn supplies deterministic jitter for retry backoff.
	randIntn func(int) int

	// Data-path statistics (benchmarks judge batching by extents per
	// RPC, resilience by resends, and read balancing by the
	// primary/backup split).
	writeRPCs     *obs.Counter // write batches resent (failover or retry)
	writeVRPCs    *obs.Counter // first-attempt write batches
	writeVExtents *obs.Counter // extents carried by first-attempt write batches
	readRPCs      *obs.Counter // read batches resent (failover or retry)
	readVRPCs     *obs.Counter // first-attempt read batches
	readVExtents  *obs.Counter // extents carried by first-attempt read batches
	readPrimary   *obs.Counter // first-choice read routings to the primary
	readBackup    *obs.Counter // first-choice read routings to the backup
	balancePct    *obs.Gauge   // percent of first-choice reads sent to the backup

	// Control-plane refresh statistics: at big N the O(N) full-state
	// sweep was itself a scaling cost, so the incremental path's hit
	// rates are first-class observables.
	refreshRPCs    *obs.Counter // StateReq calls issued
	refreshSkipped *obs.Counter // refreshes short-circuited (version already advanced / coalesced)
	refreshFanout  *obs.Counter // probe failures that forced a bounded fan-out
	refreshUnch    *obs.Counter // probes answered Unchanged (no state shipped)

	// infl tracks this client's outstanding data-path RPCs per server,
	// the load signal for least-outstanding read routing.
	infl map[string]*obs.Gauge

	// Observability; set once at construction.
	now    obs.NowFunc
	tr     *obs.Tracer
	opLats map[string]*obs.Histogram // read/readv/write/writev latency
	acct   *obs.AccountTable         // per-principal RPC attribution
	jr     *obs.Journal              // flight recorder (nil-safe)
}

// ClientStats counts data-path RPC traffic. Every read and write
// travels as ReadVReq/WriteVReq batches; the V fields count each
// operation's first attempt, and ReadRPCs/WriteRPCs count the batches
// resent after it, so the two together are every round trip.
type ClientStats struct {
	// WriteRPCs is the number of write batches resent to the other
	// replica or after a retry pause.
	WriteRPCs int64
	// WriteVRPCs is the number of first-attempt write batches.
	WriteVRPCs int64
	// WriteVExtents is the total chunk extents those batches carried.
	WriteVExtents int64
	// ReadRPCs is the number of read batches resent to the other
	// replica (per-extent failover) or after a retry pause.
	ReadRPCs int64
	// ReadVRPCs is the number of first-attempt read batches.
	ReadVRPCs int64
	// ReadVExtents is the total chunk extents those batches carried.
	ReadVExtents int64
	// ReadPrimary/ReadBackup split first-choice read routing decisions
	// between the two replicas of each chunk.
	ReadPrimary int64
	ReadBackup  int64
}

// Stats snapshots the client's data-path counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		WriteRPCs:     c.writeRPCs.Value(),
		WriteVRPCs:    c.writeVRPCs.Value(),
		WriteVExtents: c.writeVExtents.Value(),
		ReadRPCs:      c.readRPCs.Value(),
		ReadVRPCs:     c.readVRPCs.Value(),
		ReadVExtents:  c.readVExtents.Value(),
		ReadPrimary:   c.readPrimary.Value(),
		ReadBackup:    c.readBackup.Value(),
	}
}

// ReadRPCTotal is the total Petal read round trips this client has
// issued, first attempts and resends, counting a batch as one RPC.
func (s ClientStats) ReadRPCTotal() int64 { return s.ReadRPCs + s.ReadVRPCs }

// ClientAddr returns the network name of a machine's Petal driver.
func ClientAddr(machine string) string { return machine + ".petalc" }

// NewClient creates a Petal driver on the named machine. servers is
// the Petal server list.
func NewClient(w *sim.World, machine string, servers []string) *Client {
	return NewClientWithCarrier(w, machine, servers, rpc.SimCarrier{Net: w.Net})
}

// NewClientWithCarrier creates a Petal driver on an explicit message
// carrier (TCP for daemon deployments, sim for tests).
func NewClientWithCarrier(w *sim.World, machine string, servers []string, carrier rpc.Carrier) *Client {
	c := &Client{
		name:           machine,
		clock:          w.Clock,
		servers:        append([]string(nil), servers...),
		opDeadline:     30 * time.Second,
		parallelism:    8,
		randIntn:       w.RandIntn,
		writeRPCs:      obs.NewCounter(),
		writeVRPCs:     obs.NewCounter(),
		writeVExtents:  obs.NewCounter(),
		readRPCs:       obs.NewCounter(),
		readVRPCs:      obs.NewCounter(),
		readVExtents:   obs.NewCounter(),
		readPrimary:    obs.NewCounter(),
		readBackup:     obs.NewCounter(),
		balancePct:     obs.NewGauge(),
		refreshRPCs:    obs.NewCounter(),
		refreshSkipped: obs.NewCounter(),
		refreshFanout:  obs.NewCounter(),
		refreshUnch:    obs.NewCounter(),
		infl:           make(map[string]*obs.Gauge, len(servers)),
	}
	c.balanceReads.Store(1)
	if reg := w.Obs; reg != nil {
		c.writeRPCs = reg.Counter("petal.write.retries#" + machine)
		c.writeVRPCs = reg.Counter("petal.writev.rpcs#" + machine)
		c.writeVExtents = reg.Counter("petal.writev.extents#" + machine)
		c.readRPCs = reg.Counter("petal.read.retries#" + machine)
		c.readVRPCs = reg.Counter("petal.readv.rpcs#" + machine)
		c.readVExtents = reg.Counter("petal.readv.extents#" + machine)
		c.readPrimary = reg.Counter("petal.read.primary#" + machine)
		c.readBackup = reg.Counter("petal.read.backup#" + machine)
		c.balancePct = reg.Gauge("petal.read.balance.pct#" + machine)
		c.refreshRPCs = reg.Counter("petal.refresh.rpcs#" + machine)
		c.refreshSkipped = reg.Counter("petal.refresh.skipped#" + machine)
		c.refreshFanout = reg.Counter("petal.refresh.fanout#" + machine)
		c.refreshUnch = reg.Counter("petal.refresh.unchanged#" + machine)
		for _, s := range servers {
			c.infl[s] = reg.Gauge("petal.client.inflight#" + machine + "." + s)
		}
		c.now = reg.Now
		c.tr = reg.Tracer()
		c.acct = reg.Accounts()
		c.jr = reg.Journal(machine)
		c.opLats = map[string]*obs.Histogram{
			"read":   reg.Histogram("petal.read.latency#" + machine),
			"readv":  reg.Histogram("petal.readv.latency#" + machine),
			"write":  reg.Histogram("petal.write.latency#" + machine),
			"writev": reg.Histogram("petal.writev.latency#" + machine),
		}
	} else {
		for _, s := range servers {
			c.infl[s] = obs.NewGauge()
		}
	}
	c.ep = rpc.NewEndpoint(ClientAddr(machine), carrier, w.Clock, nil)
	return c
}

// instr wraps one client operation in a latency histogram and — when
// the caller is inside a traced operation — a child span, which fn
// passes on so the operation appears in cross-layer trace trees and
// the rpc layer propagates its context to the Petal servers.
func (c *Client) instr(parent *obs.Span, op string, fn func(sp *obs.Span) error) error {
	if c.now == nil {
		return fn(parent)
	}
	start := c.now()
	sp := c.tr.Child(parent, "petal", op)
	err := fn(sp)
	sp.Done()
	c.opLats[op].Record(c.now() - start)
	return err
}

// SetLeaseInfo installs the callback used to stamp writes with lease
// information. Pass nil to disable stamping.
func (c *Client) SetLeaseInfo(f func() (expireAt int64, leaseID uint64)) {
	c.mu.Lock()
	c.leaseInfo = f
	c.mu.Unlock()
}

// Close releases the client's endpoint.
func (c *Client) Close() { c.ep.Close() }

// refreshState refreshes the routing view unconditionally (legacy
// entry point; admin paths use it after mutating the directory).
func (c *Client) refreshState() error { return c.refreshSince(-1) }

// refreshSince refreshes the global-state view, version-aware and
// incremental. usedVersion is the version the caller routed with when
// it hit trouble (-1 for "just refresh"):
//
//   - If the cached view has already advanced past usedVersion —
//     another caller refreshed first — skip the network entirely.
//   - Concurrent refreshes coalesce onto one in-flight probe.
//   - The probe itself asks ONE server (rotating round-robin) with
//     HaveVersion, so the common answer is a tiny Unchanged reply;
//     only a failed or unusable probe falls back to a bounded
//     parallel fan-out over the remaining servers.
//
// The old implementation swept every server sequentially on every
// refresh — an O(N) wall-clock and message cost per failover that
// dominated control traffic at big N.
func (c *Client) refreshSince(usedVersion int64) error {
	c.mu.Lock()
	for {
		if c.stateOK && c.state.Version > usedVersion {
			c.mu.Unlock()
			c.refreshSkipped.Add(1)
			return nil
		}
		ch := c.refreshWait
		if ch == nil {
			break
		}
		// A refresh is in flight: wait for it, then re-judge. The
		// waiters coalesce rather than stampeding the servers.
		c.mu.Unlock()
		<-ch
		c.mu.Lock()
		if c.stateOK {
			c.mu.Unlock()
			c.refreshSkipped.Add(1)
			return nil
		}
		// The in-flight refresh failed and we never had a view; fall
		// through to run our own probe (refreshWait is nil again, or
		// someone else started one and we wait again).
	}
	ch := make(chan struct{})
	c.refreshWait = ch
	have := int64(-1)
	if c.stateOK {
		have = c.state.Version
	}
	c.mu.Unlock()

	err := c.doRefresh(have)

	c.mu.Lock()
	c.refreshWait = nil
	c.mu.Unlock()
	close(ch)
	return err
}

// doRefresh runs one refresh: a single version-aware probe, then a
// bounded fan-out only if the probe fails.
func (c *Client) doRefresh(have int64) error {
	n := len(c.servers)
	if n == 0 {
		return ErrUnavailable
	}
	probe := c.servers[int(c.refreshRR.Add(1)-1)%n]
	c.refreshRPCs.Add(1)
	resp, err := c.ep.Call(nil, DataAddr(probe), StateReq{HaveVersion: have}, dataTimeout)
	if err == nil {
		if sr, ok := resp.(StateResp); ok && sr.OK {
			if sr.Unchanged {
				// Server is no newer than us; nothing to adopt. Retry
				// loops that still fail will rotate to other servers.
				c.refreshUnch.Add(1)
				return nil
			}
			c.adoptState(sr.State)
			return nil
		}
	}
	// Probe failed: bounded parallel fan-out over the remaining
	// servers, adopting the best view any of them returns. Servers
	// apply Paxos decisions asynchronously, so keeping the highest
	// version guards against a lagging straggler.
	c.refreshFanout.Add(1)
	rest := make([]string, 0, n-1)
	for _, s := range c.servers {
		if s != probe {
			rest = append(rest, s)
		}
	}
	if len(rest) == 0 {
		return ErrUnavailable
	}
	var rmu sync.Mutex
	got, gotState := false, false
	var best GlobalState
	_ = boundedPar(4, rest, func(s string) error {
		c.refreshRPCs.Add(1)
		resp, err := c.ep.Call(nil, DataAddr(s), StateReq{HaveVersion: have}, dataTimeout)
		if err != nil {
			return nil
		}
		sr, ok := resp.(StateResp)
		if !ok || !sr.OK {
			return nil
		}
		rmu.Lock()
		got = true // a server current with us still counts as an answer
		if !sr.Unchanged && (!gotState || sr.State.Version > best.Version) {
			best = sr.State
			gotState = true
		}
		rmu.Unlock()
		return nil
	})
	if !got {
		return ErrUnavailable
	}
	if gotState {
		c.adoptState(best)
	}
	return nil
}

// adoptState installs a fetched view unless the cached one is newer.
func (c *Client) adoptState(st GlobalState) {
	c.mu.Lock()
	if !c.stateOK || st.Version >= c.state.Version {
		c.state = st
		c.stateOK = true
	}
	c.mu.Unlock()
}

func (c *Client) getState() (GlobalState, error) {
	c.mu.Lock()
	ok := c.stateOK
	st := c.state
	c.mu.Unlock()
	if ok {
		return st, nil
	}
	if err := c.refreshState(); err != nil {
		return GlobalState{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state, nil
}

// targetList holds replica routing candidates without heap
// allocation: a chunk has at most two replicas, each of which can
// appear once alive-filtered and once unconditionally.
type targetList struct {
	srv [4]string
	n   int
}

func (t *targetList) add(s string, alive map[string]bool, mustBeAlive bool) {
	if s == "" {
		return
	}
	if mustBeAlive && !alive[s] {
		return
	}
	for i := 0; i < t.n; i++ {
		if t.srv[i] == s {
			return
		}
	}
	t.srv[t.n] = s
	t.n++
}

// list returns the candidates in preference order.
func (t *targetList) list() []string { return t.srv[:t.n] }

// targets fills tl with the replica servers for a chunk in write and
// failover preference order: alive primary, then alive backup, then
// both regardless (the state may be stale). The caller supplies the
// targetList so the hot path stays allocation-free.
func (c *Client) targets(st *GlobalState, v VDiskID, chunk int64, tl *targetList) {
	p1, p2 := st.replicas(v, chunk)
	tl.n = 0
	tl.add(p1, st.Alive, true)
	tl.add(p2, st.Alive, true)
	tl.add(p1, st.Alive, false)
	tl.add(p2, st.Alive, false)
}

// SetReadBalance toggles read load balancing across replicas. On (the
// default), first-choice read routing spreads over both alive copies;
// off, reads always prefer the primary — the pre-optimization
// behaviour, kept as a benchmark baseline.
func (c *Client) SetReadBalance(on bool) {
	var v int32
	if on {
		v = 1
	}
	c.balanceReads.Store(v)
}

// readTargets fills tl with replica candidates for a read. When both
// replicas are alive and balancing is on, the first choice is the
// replica with fewer of this client's RPCs outstanding (Petal serves
// reads from either copy); ties alternate round-robin. The losing
// replica stays second, so per-extent failover still reaches every
// copy, and writes keep the primary-first order from targets.
func (c *Client) readTargets(st *GlobalState, v VDiskID, chunk int64, tl *targetList) {
	p1, p2 := st.replicas(v, chunk)
	if c.balanceReads.Load() == 0 || p1 == "" || p2 == "" || p1 == p2 ||
		!st.Alive[p1] || !st.Alive[p2] {
		c.targets(st, v, chunk, tl)
		return
	}
	first, second := p1, p2
	o1, o2 := c.infl[p1].Value(), c.infl[p2].Value()
	if o2 < o1 || (o1 == o2 && c.rr.Add(1)%2 == 1) {
		first, second = p2, p1
	}
	if first == p1 {
		c.readPrimary.Add(1)
	} else {
		c.readBackup.Add(1)
	}
	if p, b := c.readPrimary.Value(), c.readBackup.Value(); p+b > 0 {
		c.balancePct.Set(b * 100 / (p + b))
	}
	tl.n = 0
	tl.add(first, st.Alive, false)
	tl.add(second, st.Alive, false)
}

// Retry backoff for chunk operations: exponential from retryBase,
// capped at retryCap, with jitter in [d/2, d) so clients hammering a
// recovering server decorrelate. The fixed 100 ms pause this replaces
// both overloaded servers during short outages (every client retried
// in lockstep) and wasted most of the window when routing recovered
// quickly.
const (
	retryBase = 10 * time.Millisecond
	retryCap  = 640 * time.Millisecond
)

// backoffDelay computes the pause before retry number attempt
// (0-based): exponential growth capped at retryCap, jittered into
// [d/2, d) when a randomness source is supplied.
func backoffDelay(attempt int, randIntn func(int) int) sim.Duration {
	d := retryBase
	for i := 0; i < attempt && d < retryCap; i++ {
		d *= 2
	}
	if d > retryCap {
		d = retryCap
	}
	if randIntn != nil {
		d = d/2 + sim.Duration(randIntn(int(d/2)))
	}
	return d
}

// retryPause sleeps before retry number attempt, never past deadline.
func (c *Client) retryPause(sp *obs.Span, attempt int, deadline sim.Time) {
	d := backoffDelay(attempt, c.randIntn)
	left := sim.Duration(deadline - c.clock.Now())
	if left <= 0 {
		return
	}
	if d > left {
		d = left
	}
	c.jr.RecordIn(sp, "petal", "io", "backoff", uint64(attempt), int64(d), "")
	c.clock.Sleep(d)
}

// call issues one data-path RPC on behalf of sp's operation, tracking
// the per-server outstanding gauge that read routing balances on.
func (c *Client) call(sp *obs.Span, srv string, req any, timeout sim.Duration) (any, error) {
	g := c.infl[srv]
	g.Add(1)
	// Every data-path RPC (including retries and failovers) is charged
	// to the principal whose operation issued it.
	c.acct.RPC(sp.Who(), 1)
	resp, err := c.ep.Call(sp, DataAddr(srv), req, timeout)
	g.Add(-1)
	return resp, err
}

// span describes one chunk-aligned piece of a larger I/O.
type span struct {
	chunk  int64
	off    int
	length int
	bufOff int
}

func spans(off int64, length int) []span {
	var out []span
	bufOff := 0
	for length > 0 {
		chunk := off / ChunkSize
		inOff := int(off % ChunkSize)
		n := ChunkSize - inOff
		if n > length {
			n = length
		}
		out = append(out, span{chunk: chunk, off: inOff, length: n, bufOff: bufOff})
		off += int64(n)
		bufOff += n
		length -= n
	}
	return out
}

// boundedPar runs f over items with at most limit in flight,
// returning the first error. A single item runs inline.
func boundedPar[T any](limit int, items []T, f func(T) error) error {
	if len(items) == 1 {
		return f(items[0])
	}
	if limit < 1 {
		limit = 1
	}
	sem := make(chan struct{}, limit)
	errCh := make(chan error, len(items))
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		sem <- struct{}{}
		go func(it T) {
			defer wg.Done()
			errCh <- f(it)
			<-sem
		}(it)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return err
		}
	}
	return nil
}

// ioSpan is one chunk-local piece of a read or write on its way
// through the retry loop. buf is the read destination or the write
// payload.
type ioSpan struct {
	chunk int64
	off   int
	buf   []byte
	// srv is the replica the current attempt goes to; alt is the
	// other copy, the failover target ("" when there is none).
	srv, alt string
	// err is the outcome of the last attempt, nil once served.
	err error
}

// appendSpans splits b, which lives at byte offset off of the vdisk,
// at chunk boundaries and appends the pieces to dst.
func appendSpans(dst []ioSpan, off int64, b []byte) []ioSpan {
	for _, s := range spans(off, len(b)) {
		dst = append(dst, ioSpan{chunk: s.chunk, off: s.off, buf: b[s.bufOff : s.bufOff+s.length]})
	}
	return dst
}

// Per-request caps for one batch, reads and writes alike: bound the
// simulated transfer time of one RPC (network ~17 MB/s, disks
// ~6 MB/s) well under its timeout, and keep message sizes sane.
const (
	batchMaxBytes   = 1 << 20
	batchMaxExtents = 256
	batchTimeout    = 15 * time.Second
)

// replicaError marks a failure local to one replica — an unreachable
// server, an unexpected reply or a damaged extent — that the other
// copy can ordinarily recover (§4).
type replicaError struct{ error }

// serverError maps a batch-level error string from a server back to
// its sentinel, so the retry loop can tell stale routing from a
// rejection.
func serverError(op, msg string) error {
	switch msg {
	case ErrNoSuchVDisk.Error():
		return ErrNoSuchVDisk
	case ErrStaleEpoch.Error():
		return ErrStaleEpoch
	case ErrLeaseExpired.Error():
		return ErrLeaseExpired
	}
	return fmt.Errorf("petal %s: %s", op, msg)
}

// setErr sets the outcome of every span of a batch.
func setErr(b []*ioSpan, err error) {
	for _, s := range b {
		s.err = err
	}
}

// A sender issues one batch of spans, all routed to srv, and sets
// each span's err. first marks an operation's first attempt; the
// stats count resends apart.
type sender func(st *GlobalState, srv string, b []*ioSpan, first bool)

// transfer is the retry loop every read and write runs through. A
// round routes the pending spans with the current view of the global
// state (route orders each chunk's replicas), sends them in
// per-server batches, and sends every span that failed there to its
// other replica. Spans that still failed, or met stale routing (an
// unknown vdisk or a pre-snapshot epoch), wait out a version-aware
// state refresh and a backoff pause, until the op deadline. A lease
// rejection or any other server error ends the operation at once.
func (c *Client) transfer(sp *obs.Span, v VDiskID, todo []ioSpan,
	route func(*GlobalState, VDiskID, int64, *targetList), send sender) error {
	if len(todo) == 0 {
		return nil
	}
	pend := make([]*ioSpan, len(todo))
	for i := range todo {
		pend[i] = &todo[i]
	}
	deadline := c.clock.Now() + sim.Time(c.opDeadline)
	var lastErr error
	var tl targetList
	first := true
	routedVer := int64(-1)
	for attempt := 0; ; attempt++ {
		if st, err := c.getState(); err == nil {
			routedVer = st.Version
			for _, s := range pend {
				route(&st, v, s.chunk, &tl)
				if tl.n == 0 {
					return ErrUnavailable
				}
				s.srv, s.alt = tl.srv[0], ""
				if tl.n > 1 {
					s.alt = tl.srv[1]
				}
			}
			var wait []*ioSpan
			for pass := 0; len(pend) > 0; pass++ {
				c.sendAll(&st, pend, first, send)
				first = false
				var over []*ioSpan
				for _, s := range pend {
					switch err := s.err.(type) {
					case nil:
					case replicaError:
						lastErr = err.error
						if pass == 0 && s.alt != "" {
							s.srv = s.alt
							over = append(over, s)
						} else {
							wait = append(wait, s)
						}
					default:
						if err != ErrNoSuchVDisk && err != ErrStaleEpoch {
							return err
						}
						wait = append(wait, s)
					}
				}
				pend = over
			}
			if len(wait) == 0 {
				return nil
			}
			pend = wait
		}
		if c.clock.Now() >= deadline {
			if lastErr != nil {
				return lastErr
			}
			return ErrUnavailable
		}
		// Version-aware: if another caller already refreshed past the
		// view we routed with, the retry reuses it without touching
		// the network (petal.refresh.skipped counts these).
		_ = c.refreshSince(routedVer)
		c.retryPause(sp, attempt, deadline)
	}
}

// sendAll groups spans by target server into batches under the
// per-request caps and sends them with bounded parallelism.
func (c *Client) sendAll(st *GlobalState, pend []*ioSpan, first bool, send sender) {
	groups := make(map[string][]*ioSpan)
	for _, s := range pend {
		groups[s.srv] = append(groups[s.srv], s)
	}
	var batches [][]*ioSpan
	for _, g := range groups {
		start, bytes := 0, 0
		for i, s := range g {
			if i > start && (bytes+len(s.buf) > batchMaxBytes || i-start >= batchMaxExtents) {
				batches = append(batches, g[start:i])
				start, bytes = i, 0
			}
			bytes += len(s.buf)
		}
		batches = append(batches, g[start:])
	}
	// Outcomes come back through each span's err, not boundedPar's.
	_ = boundedPar(c.parallelism, batches, func(b []*ioSpan) error {
		send(st, b[0].srv, b, first)
		return nil
	})
}

// Read fills p from the virtual disk at byte offset off, on behalf of
// sp's operation (nil for none). Uncommitted ranges read as zeros.
func (c *Client) Read(sp *obs.Span, v VDiskID, off int64, p []byte) error {
	if off < 0 {
		return ErrBounds
	}
	return c.instr(sp, "read", func(sp *obs.Span) error {
		return c.read(sp, v, appendSpans(nil, off, p))
	})
}

// ReadExtent is one destination range of a scatter-gather read: Dst
// is filled from byte offset Off of the virtual disk.
type ReadExtent struct {
	Off int64
	Dst []byte
}

// ReadV is ReadVIn outside any operation.
func (c *Client) ReadV(v VDiskID, extents []ReadExtent) error { return c.ReadVIn(nil, v, extents) }

// ReadVIn fills every extent's Dst on behalf of sp's operation. Like
// Read it goes through transfer, so chunk spans that route to the
// same server share one ReadVReq.
func (c *Client) ReadVIn(sp *obs.Span, v VDiskID, extents []ReadExtent) error {
	var todo []ioSpan
	for _, e := range extents {
		if e.Off < 0 {
			return ErrBounds
		}
		todo = appendSpans(todo, e.Off, e.Dst)
	}
	return c.instr(sp, "readv", func(sp *obs.Span) error { return c.read(sp, v, todo) })
}

// read runs chunk spans through the retry loop, each routed first to
// its balanced read replica.
func (c *Client) read(sp *obs.Span, v VDiskID, todo []ioSpan) error {
	return c.transfer(sp, v, todo, c.readTargets, func(_ *GlobalState, srv string, b []*ioSpan, first bool) {
		c.readBatch(sp, v, srv, b, first)
	})
}

// readBatch sends one ReadVReq and copies each served extent into its
// destination. A short reply or a hole zero-fills the rest of the
// destination; a failed extent leaves it to a later attempt.
func (c *Client) readBatch(sp *obs.Span, v VDiskID, srv string, b []*ioSpan, first bool) {
	exts := make([]ReadVExtent, len(b))
	for i, s := range b {
		exts[i] = ReadVExtent{Chunk: s.chunk, Off: s.off, Len: len(s.buf)}
	}
	if first {
		c.readVRPCs.Add(1)
		c.readVExtents.Add(int64(len(b)))
	} else {
		c.readRPCs.Add(1)
	}
	resp, err := c.call(sp, srv, ReadVReq{VDisk: v, Extents: exts}, batchTimeout)
	if err != nil {
		c.jr.RecordIn(sp, "petal", "read", "failover", uint64(b[0].chunk), int64(len(b)), srv)
		setErr(b, replicaError{err})
		return
	}
	rr, ok := resp.(ReadVResp)
	if !ok {
		setErr(b, replicaError{ErrUnavailable})
		return
	}
	// Once the data is copied out, recycle the pooled receive buffer
	// it aliases on TCP.
	defer rpc.Release(rr)
	switch {
	case !rr.OK:
		setErr(b, serverError("read", rr.Err))
		return
	case len(rr.Results) != len(b):
		setErr(b, replicaError{ErrUnavailable})
		return
	}
	for i, res := range rr.Results {
		s := b[i]
		if !res.OK {
			c.jr.RecordIn(sp, "petal", "read", "replica-fail", uint64(s.chunk), 0, srv)
			s.err = replicaError{fmt.Errorf("petal read: %s", res.Err)}
			continue
		}
		n := copy(s.buf, res.Data)
		clear(s.buf[n:])
		s.err = nil
	}
}

// Write stores p at byte offset off on behalf of sp's operation (nil
// for none), committing chunks as needed. The caller may reuse p as
// soon as Write returns.
func (c *Client) Write(sp *obs.Span, v VDiskID, off int64, p []byte) error {
	if off < 0 {
		return ErrBounds
	}
	return c.instr(sp, "write", func(sp *obs.Span) error {
		// The in-memory transport passes payloads by reference and
		// callers reuse their buffers (the WAL does); snapshot the
		// bytes here, where a real driver would DMA. The snapshot
		// comes from the shared size-classed pool, so the write path
		// recycles a small working set of buffers.
		bufp := bufpool.Get(len(p))
		copy(*bufp, p)
		leaked, err := c.write(sp, v, appendSpans(nil, off, *bufp))
		if !leaked {
			// No attempt timed out, so no in-flight message can still
			// reference the snapshot; safe to recycle.
			bufpool.Put(bufp)
		}
		return err
	})
}

// Extent is one contiguous byte range of a scatter-gather write.
type Extent struct {
	Off  int64
	Data []byte
}

// WriteV is WriteVIn outside any operation.
func (c *Client) WriteV(v VDiskID, extents []Extent) error { return c.WriteVIn(nil, v, extents) }

// WriteVIn stores every extent on behalf of sp's operation. Like Write
// it goes through transfer, so chunk spans with the same primary
// share one WriteVReq, applied under a single lease/epoch check.
// Unlike Write it copies nothing: the extent data itself goes on the
// wire, so the caller must hand over buffers it will not touch again.
// fs does: its flush runs are freshly allocated for each write-back.
func (c *Client) WriteVIn(sp *obs.Span, v VDiskID, extents []Extent) error {
	var todo []ioSpan
	for _, e := range extents {
		if e.Off < 0 {
			return ErrBounds
		}
		todo = appendSpans(todo, e.Off, e.Data)
	}
	return c.instr(sp, "writev", func(sp *obs.Span) error {
		_, err := c.write(sp, v, todo)
		return err
	})
}

// write runs chunk spans through the retry loop, each routed first to
// its primary replica. leaked reports that an attempt timed out: its
// message may still be queued at the carrier, still referencing the
// span data.
func (c *Client) write(sp *obs.Span, v VDiskID, todo []ioSpan) (leaked bool, err error) {
	c.mu.Lock()
	li := c.leaseInfo
	c.mu.Unlock()
	var expireAt int64
	var leaseID uint64
	if li != nil {
		expireAt, leaseID = li()
	}
	var timedOut atomic.Bool
	err = c.transfer(sp, v, todo, c.targets, func(st *GlobalState, srv string, b []*ioSpan, first bool) {
		exts := make([]WriteVExtent, len(b))
		for i, s := range b {
			exts[i] = WriteVExtent{Chunk: s.chunk, Off: s.off, Data: s.buf}
		}
		req := WriteVReq{VDisk: v, Extents: exts, ExpireAt: expireAt, LeaseID: leaseID}
		// Stamp the epoch we are writing at so replicas lagging a
		// snapshot wait for Paxos catch-up instead of writing into the
		// frozen epoch.
		if meta, ok := st.VDisks[v]; ok && !meta.ReadOnly {
			req.Epoch = meta.Epoch
		}
		if first {
			c.writeVRPCs.Add(1)
			c.writeVExtents.Add(int64(len(b)))
		} else {
			c.writeRPCs.Add(1)
		}
		resp, err := c.call(sp, srv, req, batchTimeout)
		if err != nil {
			timedOut.Store(true)
			c.jr.RecordIn(sp, "petal", "write", "failover", uint64(b[0].chunk), int64(len(b)), srv)
			setErr(b, replicaError{err})
			return
		}
		wr, ok := resp.(WriteVResp)
		switch {
		case !ok:
			setErr(b, replicaError{ErrUnavailable})
		case !wr.OK:
			err := serverError("write", wr.Err)
			if err == ErrLeaseExpired {
				c.jr.RecordIn(sp, "petal", "write", "lease-rejected", uint64(b[0].chunk), 0, srv)
			}
			setErr(b, err)
		default:
			setErr(b, nil)
		}
	})
	return timedOut.Load(), err
}

// admin submits a global-state command via any answering server.
func (c *Client) admin(cmd Command) error {
	var lastErr error = ErrUnavailable
	for _, s := range c.servers {
		resp, err := c.ep.Call(nil, DataAddr(s), AdminReq{Cmd: cmd}, 120*time.Second)
		if err != nil {
			lastErr = err
			continue
		}
		ar, ok := resp.(AdminResp)
		if !ok {
			continue
		}
		if !ar.OK {
			return fmt.Errorf("petal admin: %s", ar.Err)
		}
		// The command advanced the directory version: refresh past the
		// view we held going in (skips if a rival refresh already did).
		c.mu.Lock()
		cur := int64(-1)
		if c.stateOK {
			cur = c.state.Version
		}
		c.mu.Unlock()
		_ = c.refreshSince(cur)
		return nil
	}
	return lastErr
}

// CreateVDisk creates a new writable virtual disk.
func (c *Client) CreateVDisk(id VDiskID) error { return c.admin(CmdCreateVDisk{ID: id}) }

// DeleteVDisk removes a virtual disk.
func (c *Client) DeleteVDisk(id VDiskID) error { return c.admin(CmdDeleteVDisk{ID: id}) }

// Snapshot creates a read-only, crash-consistent snapshot of parent
// named snap: "Petal allows a client to create an exact copy of a
// virtual disk at any point in time ... using copy-on-write
// techniques" (§8).
func (c *Client) Snapshot(parent, snap VDiskID) error {
	return c.admin(CmdSnapshot{Parent: parent, Snap: snap})
}

// Decommit frees physical storage backing [off, off+length) of the
// virtual disk, on behalf of sp's operation (nil for none). Only whole
// chunks fully inside the range are freed, matching Petal's 64 KB
// decommit granularity.
func (c *Client) Decommit(sp *obs.Span, v VDiskID, off int64, length int64) error {
	first := (off + ChunkSize - 1) / ChunkSize
	last := (off+length)/ChunkSize - 1
	if last < first {
		return nil
	}
	// Every server sweeps its own committed chunks in the range; the
	// request is O(1) on the wire and O(committed) at each server.
	any := false
	for _, srv := range c.servers {
		resp, err := c.ep.Call(sp, DataAddr(srv), DecommitReq{VDisk: v, FirstChunk: first, LastChunk: last}, dataTimeout)
		if err != nil {
			continue
		}
		if ar, ok := resp.(AdminResp); ok {
			if !ar.OK {
				return fmt.Errorf("petal decommit: %s", ar.Err)
			}
			any = true
		}
	}
	if !any {
		return ErrUnavailable
	}
	return nil
}

// ListChunks enumerates the committed chunk indexes of a vdisk by
// querying every server; restore tooling uses it to copy only
// committed space.
func (c *Client) ListChunks(v VDiskID) ([]int64, error) {
	seen := make(map[int64]bool)
	any := false
	for _, s := range c.servers {
		resp, err := c.ep.Call(nil, DataAddr(s), ListChunksReq{VDisk: v}, dataTimeout)
		if err != nil {
			continue
		}
		if lr, ok := resp.(ListChunksResp); ok {
			any = true
			for _, ch := range lr.Chunks {
				seen[ch] = true
			}
		}
	}
	if !any {
		return nil, ErrUnavailable
	}
	out := make([]int64, 0, len(seen))
	for ch := range seen {
		out = append(out, ch)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

// State returns the client's (possibly refreshed) view of the global
// state.
func (c *Client) State() (GlobalState, error) { return c.getState() }

// VDisk binds a client and a disk id into a handle with a local-disk
// feel.
type VDisk struct {
	c  *Client
	id VDiskID
}

// Open returns a handle for the named virtual disk.
func (c *Client) Open(id VDiskID) *VDisk { return &VDisk{c: c, id: id} }

// ID returns the vdisk name.
func (d *VDisk) ID() VDiskID { return d.id }

// ReadAt fills p at byte offset off.
func (d *VDisk) ReadAt(p []byte, off int64) error { return d.c.Read(nil, d.id, off, p) }

// WriteAt stores p at byte offset off.
func (d *VDisk) WriteAt(p []byte, off int64) error { return d.c.Write(nil, d.id, off, p) }

// WriteV stores a set of extents with one scatter-gather call.
func (d *VDisk) WriteV(extents []Extent) error { return d.c.WriteV(d.id, extents) }

// ReadV fills a set of extents with one scatter-gather call.
func (d *VDisk) ReadV(extents []ReadExtent) error { return d.c.ReadV(d.id, extents) }
