package lockservice

import (
	"fmt"
	"sync"
	"time"

	"frangipani/internal/obs"
	"frangipani/internal/paxos"
	"frangipani/internal/rpc"
	"frangipani/internal/sim"
)

// Config tunes a lock server.
type Config struct {
	LeaseDuration  sim.Duration
	HeartbeatEvery sim.Duration
	SuspectAfter   sim.Duration
	RevokeRetry    sim.Duration // retransmit interval for revokes
	SweepEvery     sim.Duration // lease-expiry sweep period
	SyncTimeout    sim.Duration // clerk state recovery deadline
	// IdleDiscard is how long a clerk keeps an unused sticky grant
	// before releasing it to bound lock memory (§6; 1 hour). Zero
	// uses the default.
	IdleDiscard sim.Duration
	// Shards is the number of lock-table shards (0 = DefaultShards).
	// Every server and clerk of one deployment must agree on it.
	Shards int
	// CPUPerMsg and CPUPerOp override the modelled protocol-processing
	// cost per inbound message / per lock operation carried (0 = the
	// package defaults). Experiments scale them up to move the
	// capacity wall down to op rates the host simulates faithfully.
	CPUPerMsg sim.Duration
	CPUPerOp  sim.Duration
}

// DefaultConfig returns paper-flavored timing (30 s leases).
func DefaultConfig() Config {
	return Config{
		LeaseDuration:  DefaultLeaseDuration,
		HeartbeatEvery: 2 * time.Second,
		SuspectAfter:   10 * time.Second,
		RevokeRetry:    2 * time.Second,
		SweepEvery:     5 * time.Second,
		SyncTimeout:    20 * time.Second,
		IdleDiscard:    DefaultIdleDiscard,
	}
}

// Modelled lock-server CPU cost, charged against a per-server
// sim.Resource: ~60 µs of protocol processing per message plus ~5 µs
// per lock operation carried. One server therefore saturates around
// 16 k messages/s — the capacity wall the lock-scaling experiment
// measures — and vectored batches amortize the per-message cost.
const (
	cpuPerMsg = 60 * time.Microsecond
	cpuPerOp  = 5 * time.Microsecond
)

// lockKey names one lock.
type lockKey struct {
	Table string
	Lock  uint64
}

type waiter struct {
	clerk string
	mode  Mode
	epoch int64
}

// lockState is the volatile per-lock state on its serving lock
// server. It is reconstructed from clerks after reassignment.
type lockState struct {
	holders    map[string]Mode // clerk -> Shared/Exclusive
	waiters    []waiter
	lastRevoke sim.Time
}

// shardSync tracks reconstruction of one shard's state from clerks.
// A shard stays pending until EVERY live clerk has reported its held
// locks: granting from partial knowledge could hand out a lock some
// silent clerk still holds. Clerks whose sessions die are pruned (the
// recovery path releases their locks).
type shardSync struct {
	seq     uint64
	shards  []int
	waiting map[string]bool // clerks not yet heard from
}

// recoveryJob tracks crash recovery of one dead clerk.
type recoveryJob struct {
	dead      string
	table     string
	slot      int
	recoverer string
	seq       uint64
	lastSent  sim.Time
}

// Server is one lock server.
type Server struct {
	name string
	w    *sim.World
	cfg  Config
	ep   *rpc.Endpoint
	px   *paxos.Node
	det  *paxos.Detector
	cpu  *sim.Resource // modelled protocol-processing capacity

	mu         sync.Mutex
	state      GState
	locks      map[lockKey]*lockState
	pendingGrp map[int]*shardSync // shard -> in-progress handoff sync
	renewals   map[string]sim.Time
	// ackCast is the last time a piggyback RenewAck was cast to each
	// clerk; acks are rate-limited so a clerk streaming batches gets
	// O(1) ack traffic per lease window, not one ack per batch.
	ackCast map[string]sim.Time
	recoveries map[string]*recoveryJob // session key -> job
	nextSeq    uint64
	crashed    bool
	closed     bool
	cancels    []func()

	reqC             *obs.Counter
	revC             *obs.Counter
	wrongC           *obs.Counter
	renewPigC        *obs.Counter // piggybacked renewals accepted
	renewStdC        *obs.Counter // standalone RenewMsg served
	locksG, memBytes *obs.Gauge
	shardC           []*obs.Counter    // lazy per-shard op counters
	acct             *obs.AccountTable // per-principal server-op attribution
	jr               *obs.Journal      // flight recorder (nil-safe)

	// Trace, when set, receives debug events.
	Trace func(format string, args ...any)
}

func (s *Server) trace(format string, args ...any) {
	if s.Trace != nil {
		s.Trace(format, args...)
	}
}

// Addr returns the network name of a lock server's endpoint.
func Addr(name string) string { return name + ".lock" }

// ClerkAddr returns the network name of a clerk's endpoint.
func ClerkAddr(machine string) string { return machine + ".clerk" }

// NewServer creates one lock server among the fixed peer set, on the
// world's simulated network.
func NewServer(w *sim.World, name string, peers []string, cfg Config) *Server {
	return NewServerWithCarrier(w, name, peers, cfg, rpc.SimCarrier{Net: w.Net})
}

// NewServerWithCarrier creates a lock server on an arbitrary message
// carrier (e.g. rpc.NewTCPCarrier() for real cross-process
// deployment).
func NewServerWithCarrier(w *sim.World, name string, peers []string, cfg Config, carrier rpc.Carrier) *Server {
	s := &Server{
		name:       name,
		w:          w,
		cfg:        cfg,
		state:      NewGState(peers, cfg.Shards),
		locks:      make(map[lockKey]*lockState),
		pendingGrp: make(map[int]*shardSync),
		renewals:   make(map[string]sim.Time),
		ackCast:    make(map[string]sim.Time),
		recoveries: make(map[string]*recoveryJob),
		cpu:        sim.NewResource(w.Clock, name+".lockcpu"),
	}
	s.shardC = make([]*obs.Counter, s.state.Shards)
	if reg := w.Obs; reg != nil {
		s.reqC = reg.Counter("lockservice.server.requests#" + name)
		s.revC = reg.Counter("lockservice.server.revokes#" + name)
		s.wrongC = reg.Counter("lockservice.server.wrongshard#" + name)
		s.renewPigC = reg.Counter("lockservice.server.renew.piggyback#" + name)
		s.renewStdC = reg.Counter("lockservice.server.renew.standalone#" + name)
		s.locksG = reg.Gauge("lockservice.server.locks#" + name)
		s.memBytes = reg.Gauge("lockservice.server.bytes#" + name)
		s.acct = reg.Accounts()
		s.jr = reg.Journal(name)
	}
	s.px = paxos.NewNode(name, peers, carrier, w.Clock, s.applyCmd)
	s.det = paxos.NewDetector(name, peers, carrier, w.Clock,
		cfg.HeartbeatEvery, cfg.SuspectAfter, s.onLiveness)
	s.ep = rpc.NewEndpoint(Addr(name), carrier, w.Clock, s.handle)
	s.cancels = append(s.cancels,
		w.Clock.Tick(cfg.SweepEvery, s.sweep),
		w.Clock.Tick(cfg.RevokeRetry, s.retryRevokes),
		w.Clock.Tick(cfg.SyncTimeout, s.syncRetry),
	)
	return s
}

// shardCounter returns the shared per-shard operation counter,
// creating it lazily so untouched shards do not pollute snapshots.
// Counters are named by shard (not by server), so after a handoff the
// new owner keeps incrementing the same series. Called with s.mu held.
func (s *Server) shardCounter(shard int) *obs.Counter {
	if shard < 0 || shard >= len(s.shardC) || s.w.Obs == nil {
		return nil
	}
	if s.shardC[shard] == nil {
		s.shardC[shard] = s.w.Obs.Counter(fmt.Sprintf("lockservice.shard.ops#s%03d", shard))
	}
	return s.shardC[shard]
}

// Name returns the server's name.
func (s *Server) Name() string { return s.name }

// State returns a copy of this server's view of the global state.
func (s *Server) State() GState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.Clone()
}

func (s *Server) isDown() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed || s.closed
}

// Crash silences the server; its volatile lock state is lost.
func (s *Server) Crash() {
	s.mu.Lock()
	s.crashed = true
	s.locks = make(map[lockKey]*lockState) // volatile state dies
	s.pendingGrp = make(map[int]*shardSync)
	s.mu.Unlock()
	s.px.Crash()
	s.det.Crash()
}

// Restart revives a crashed server. It proposes itself alive; the
// resulting reassignment hands it shards, whose state it then
// recovers from the clerks.
func (s *Server) Restart() {
	s.mu.Lock()
	s.crashed = false
	// A fresh renewal table would read as "silence evidence" to the
	// coordinator's majority expiry rule; grant every known session a
	// fresh window instead.
	s.renewals = make(map[string]sim.Time)
	now := s.w.Clock.Now()
	for _, sess := range s.state.Sessions {
		s.renewals[sess.Clerk] = now
	}
	s.mu.Unlock()
	s.px.Recover()
	s.det.Recover()
	go func() {
		_ = s.px.Submit(CmdSetAlive{Server: s.name, Alive: true}, 120*time.Second)
	}()
}

// Close shuts the server down permanently.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	for _, c := range s.cancels {
		c()
	}
	s.det.Stop()
	s.px.Close()
	s.ep.Close()
}

// onLiveness: coordinator proposes death transitions; rejoiners
// propose their own return (see Restart).
func (s *Server) onLiveness(peer string, alive bool) {
	if s.isDown() || alive {
		return
	}
	s.mu.Lock()
	already := !s.state.Alive[peer]
	s.mu.Unlock()
	if already || !s.amCoordinator() {
		return
	}
	go func() {
		_ = s.px.Submit(CmdSetAlive{Server: peer, Alive: false}, 120*time.Second)
	}()
}

// amCoordinator reports whether this server is the lowest-named one
// it believes alive; the coordinator runs lease sweeps and liveness
// proposals.
func (s *Server) amCoordinator() bool {
	for _, p := range s.det.Members() {
		if p == s.name {
			return true
		}
		if s.det.Alive(p) {
			return false
		}
	}
	return true
}

// applyCmd applies a decided command and reacts to shard-map changes:
// shards lost are discarded immediately (phase one of the paper's
// reassignment), shards gained enter recovery from clerks (phase
// two). Epoch changes are journaled so forensics can replay who owned
// a shard when.
func (s *Server) applyCmd(seq int64, cmd paxos.Command) {
	s.mu.Lock()
	oldAssign := append([]string(nil), s.state.Assignment...)
	oldEpoch := s.state.Epoch
	s.state.Apply(cmd)
	newAssign := s.state.Assignment

	var gained, lost []int
	for sh := range newAssign {
		if oldAssign[sh] == newAssign[sh] {
			continue
		}
		if oldAssign[sh] == s.name {
			// Phase one: discard state for shards we lost.
			for k := range s.locks {
				if s.state.ShardOf(k.Lock) == sh {
					delete(s.locks, k)
				}
			}
			delete(s.pendingGrp, sh)
			lost = append(lost, sh)
		}
		if newAssign[sh] == s.name {
			gained = append(gained, sh)
		}
	}
	if s.state.Epoch != oldEpoch {
		moved := 0
		for sh := range newAssign {
			if oldAssign[sh] != newAssign[sh] {
				moved++
			}
		}
		s.jr.Record("lockservice", "shardmap", "epoch", 0, s.state.Epoch,
			fmt.Sprintf("%d shards reassigned (+%d/-%d here)", moved, len(gained), len(lost)))
	}
	if len(lost) > 0 {
		s.jr.Record("lockservice", "handoff", "dropped", 0, int64(len(lost)),
			fmt.Sprintf("shards %v surrendered", lost))
	}
	if c, ok := cmd.(CmdCloseSession); ok {
		s.dropClerkLocked(c.Clerk, c.Table)
		delete(s.recoveries, sessionKey(c.Clerk, c.Table))
	}
	if c, ok := cmd.(CmdOpenSession); ok {
		// Fresh sessions start with a full lease locally.
		if _, ok := s.renewals[c.Clerk]; !ok {
			s.renewals[c.Clerk] = s.w.Clock.Now()
		}
	}
	s.mu.Unlock()

	if len(gained) > 0 && !s.isDown() {
		go s.syncShards(gained)
	}
}

// dropClerkLocked removes a clerk from all lock state (it is dead and
// recovered, or cleanly closed) and regrants what it held.
func (s *Server) dropClerkLocked(clerk, table string) {
	var outs []outMsg
	for k, ls := range s.locks {
		if k.Table != table {
			continue
		}
		changed := false
		if _, ok := ls.holders[clerk]; ok {
			delete(ls.holders, clerk)
			changed = true
		}
		var nw []waiter
		for _, w := range ls.waiters {
			if w.clerk != clerk {
				nw = append(nw, w)
			} else {
				changed = true
			}
		}
		ls.waiters = nw
		if changed {
			outs = append(outs, s.tryGrantLocked(k, ls)...)
		}
		if len(ls.holders) == 0 && len(ls.waiters) == 0 {
			delete(s.locks, k)
		}
	}
	go s.send(outs)
}

// outMsg is a message to transmit once the state lock is dropped.
type outMsg struct {
	to   string
	body any
}

func (s *Server) send(outs []outMsg) {
	for _, o := range outs {
		_ = s.ep.Cast(nil, o.to, o.body)
	}
}

// cpuCost models the protocol-processing time of one inbound message:
// a fixed per-message cost plus a per-lock-operation cost for the
// vectored types (which is what makes batching pay).
func (s *Server) cpuCost(body any) sim.Duration {
	ops := 0
	switch m := body.(type) {
	case AcquireBatch:
		ops = len(m.Reqs)
	case ReleaseBatch:
		ops = len(m.Rels)
	case ReqMsg, RelMsg:
		ops = 1
	case SyncResp:
		ops = len(m.Locks)
	}
	perMsg, perOp := s.cfg.CPUPerMsg, s.cfg.CPUPerOp
	if perMsg == 0 {
		perMsg = cpuPerMsg
	}
	if perOp == 0 {
		perOp = cpuPerOp
	}
	return perMsg + sim.Duration(ops)*perOp
}

// handle serves the lock protocol. sp carries the sender's trace
// context and principal.
func (s *Server) handle(sp *obs.Span, from string, body any) any {
	if s.isDown() {
		return nil
	}
	s.cpu.Use(s.cpuCost(body))
	s.reqC.Inc()
	// Server-side work is charged to the originating client.
	s.acct.ServerOp(sp.Who())
	switch m := body.(type) {
	case ReqMsg:
		s.onAcquireBatch(m.Clerk, m.Table, 0, []BatchReq{{Lock: m.Lock, Mode: m.Mode, Epoch: m.Epoch}})
	case RelMsg:
		s.onReleaseBatch(m.Clerk, m.Table, 0, []BatchRel{{Lock: m.Lock, NewMode: m.NewMode}})
	case AcquireBatch:
		if m.Renew {
			s.piggyRenew(m.Clerk, m.LeaseID)
		}
		s.onAcquireBatch(m.Clerk, m.Table, m.MapEpoch, m.Reqs)
	case ReleaseBatch:
		if m.Renew {
			s.piggyRenew(m.Clerk, m.LeaseID)
		}
		s.onReleaseBatch(m.Clerk, m.Table, m.MapEpoch, m.Rels)
	case RenewMsg:
		s.renewStdC.Inc()
		s.mu.Lock()
		s.renewals[m.Clerk] = s.w.Clock.Now()
		valid := false
		for _, sess := range s.state.Sessions {
			if sess.Clerk == m.Clerk && sess.LeaseID == m.LeaseID && !sess.Dead {
				valid = true
				break
			}
		}
		epoch := s.state.Epoch
		s.mu.Unlock()
		return RenewAck{Server: s.name, LeaseID: m.LeaseID, Valid: valid, MapEpoch: epoch}
	case RenewalsReq:
		s.mu.Lock()
		times := make(map[string]int64, len(s.renewals))
		for c, t := range s.renewals {
			times[c] = int64(t)
		}
		s.mu.Unlock()
		return RenewalsResp{OK: true, Times: times}
	case OpenReq:
		return s.onOpen(m)
	case CloseReq:
		s.onClose(m)
	case StateReq:
		s.mu.Lock()
		st := s.state.Clone()
		s.mu.Unlock()
		return StateResp{OK: true, State: st}
	case SyncResp:
		s.onSyncResp(m)
	case RecoveryDone:
		s.onRecoveryDone(m)
	}
	return nil
}

func (s *Server) lock(k lockKey) *lockState {
	ls := s.locks[k]
	if ls == nil {
		ls = &lockState{holders: make(map[string]Mode)}
		s.locks[k] = ls
	}
	return ls
}

// piggyRenew serves a lease renewal riding on a batch message: record
// the renewal exactly as a standalone RenewMsg would, then cast a
// RenewAck back — rate-limited per clerk, so a clerk streaming
// batches costs O(1) ack messages per lease window instead of one
// per batch. An invalid session (expired and recovered while the
// clerk was stalled) is acked immediately and with Valid=false so the
// zombie learns its fate without waiting out the limiter.
func (s *Server) piggyRenew(clerk string, leaseID uint64) {
	now := s.w.Clock.Now()
	s.mu.Lock()
	s.renewals[clerk] = now
	valid := false
	for _, sess := range s.state.Sessions {
		if sess.Clerk == clerk && sess.LeaseID == leaseID && !sess.Dead {
			valid = true
			break
		}
	}
	limit := s.cfg.LeaseDuration / 6
	if limit <= 0 {
		limit = DefaultLeaseDuration / 6
	}
	ack := !valid || sim.Duration(now-s.ackCast[clerk]) >= limit
	if ack {
		s.ackCast[clerk] = now
	}
	epoch := s.state.Epoch
	s.mu.Unlock()
	s.renewPigC.Inc()
	if ack {
		_ = s.ep.Cast(nil, ClerkAddr(clerk), RenewAck{Server: s.name, LeaseID: leaseID, Valid: valid, MapEpoch: epoch})
	}
}

// onAcquireBatch serves a vectored lock request: every lock we own is
// processed under one state-lock acquisition; locks we do NOT own are
// nacked back in a single WrongShard carrying our map epoch, so a
// clerk that routed with a stale shard map refetches and retries
// against the new owner instead of waiting forever on a silent drop.
func (s *Server) onAcquireBatch(clerk, table string, mapEpoch int64, reqs []BatchReq) {
	var outs []outMsg
	var wrong []uint64
	s.mu.Lock()
	epoch := s.state.Epoch
	for _, r := range reqs {
		if s.state.ServerFor(r.Lock) != s.name {
			wrong = append(wrong, r.Lock)
			continue
		}
		if ctr := s.shardCounter(s.state.ShardOf(r.Lock)); ctr != nil {
			ctr.Inc()
		}
		k := lockKey{table, r.Lock}
		ls := s.lock(k)
		// Refresh or add the waiter (idempotent retransmits).
		found := false
		for i := range ls.waiters {
			if ls.waiters[i].clerk == clerk {
				ls.waiters[i].mode = r.Mode
				if r.Epoch > ls.waiters[i].epoch {
					ls.waiters[i].epoch = r.Epoch
				}
				found = true
				break
			}
		}
		if !found {
			// Already holding at sufficient mode? Re-grant (lost grant).
			if held, ok := ls.holders[clerk]; ok && held >= r.Mode {
				outs = append(outs, outMsg{ClerkAddr(clerk), GrantMsg{Table: table, Lock: r.Lock, Mode: held, Ver: s.state.Version, Epoch: r.Epoch}})
				continue
			}
			ls.waiters = append(ls.waiters, waiter{clerk, r.Mode, r.Epoch})
			// A new conflict deserves an immediate revoke; the rate limit
			// only applies to retransmissions of the same conflict.
			ls.lastRevoke = 0
		}
		outs = append(outs, s.tryGrantLocked(k, ls)...)
	}
	s.mu.Unlock()
	if len(wrong) > 0 {
		s.nackWrongShard(clerk, table, epoch, mapEpoch, wrong)
	}
	s.send(outs)
}

// onReleaseBatch serves a vectored release/downgrade. Releases for
// locks we do not own are nacked like acquires: a release lost to a
// silent drop would leave the new owner believing the clerk holds the
// lock forever.
func (s *Server) onReleaseBatch(clerk, table string, mapEpoch int64, rels []BatchRel) {
	var outs []outMsg
	var wrong []uint64
	s.mu.Lock()
	epoch := s.state.Epoch
	for _, r := range rels {
		if s.state.ServerFor(r.Lock) != s.name {
			wrong = append(wrong, r.Lock)
			continue
		}
		if ctr := s.shardCounter(s.state.ShardOf(r.Lock)); ctr != nil {
			ctr.Inc()
		}
		k := lockKey{table, r.Lock}
		ls := s.locks[k]
		if ls == nil {
			continue
		}
		if r.NewMode == None {
			delete(ls.holders, clerk)
		} else if _, ok := ls.holders[clerk]; ok {
			ls.holders[clerk] = r.NewMode
		}
		// Holder state changed: if a conflict persists, revoke the
		// remaining holders without waiting out the retransmit limiter.
		ls.lastRevoke = 0
		outs = append(outs, s.tryGrantLocked(k, ls)...)
		if len(ls.holders) == 0 && len(ls.waiters) == 0 {
			delete(s.locks, k)
		}
	}
	s.mu.Unlock()
	if len(wrong) > 0 {
		s.nackWrongShard(clerk, table, epoch, mapEpoch, wrong)
	}
	s.send(outs)
}

// nackWrongShard tells a clerk its routing was stale for the listed
// locks, quoting our shard-map epoch.
func (s *Server) nackWrongShard(clerk, table string, epoch, clerkEpoch int64, locks []uint64) {
	s.wrongC.Add(int64(len(locks)))
	for _, lk := range locks {
		s.jr.Record("lockservice", "shard", "wrongshard", lk, epoch,
			fmt.Sprintf("%s routed with epoch %d", clerk, clerkEpoch))
	}
	s.trace("wrong-shard nack to %s: %d locks (epoch %d, clerk had %d)", clerk, len(locks), epoch, clerkEpoch)
	_ = s.ep.Cast(nil, ClerkAddr(clerk), WrongShard{Server: s.name, Table: table, Epoch: epoch, Locks: locks})
}

// tryGrantLocked grants as many head waiters as compatibility allows
// (strict FIFO for fairness: "Our distributed lock manager has been
// designed to be fair in granting locks") and emits revokes toward
// the holders blocking the head waiter.
func (s *Server) tryGrantLocked(k lockKey, ls *lockState) []outMsg {
	if s.pendingGrp[s.state.ShardOf(k.Lock)] != nil {
		return nil // shard state still being recovered from clerks
	}
	var outs []outMsg
	for len(ls.waiters) > 0 {
		w := ls.waiters[0]
		if s.sessionDead(w.clerk, k.Table) {
			ls.waiters = ls.waiters[1:]
			continue
		}
		if !s.compatibleLocked(ls, w) {
			break
		}
		ls.holders[w.clerk] = w.mode
		ls.waiters = ls.waiters[1:]
		s.jr.Record("lockservice", "grant", "sent", k.Lock, int64(w.mode), w.clerk)
		outs = append(outs, outMsg{ClerkAddr(w.clerk), GrantMsg{Table: k.Table, Lock: k.Lock, Mode: w.mode, Ver: s.state.Version, Epoch: w.epoch}})
	}
	if len(ls.waiters) > 0 {
		outs = append(outs, s.revokesFor(k, ls)...)
	}
	return outs
}

func (s *Server) compatibleLocked(ls *lockState, w waiter) bool {
	for clerk, mode := range ls.holders {
		if clerk == w.clerk {
			continue // upgrade/re-grant for the same clerk
		}
		if mode == Exclusive || w.mode == Exclusive {
			return false
		}
	}
	return true
}

// revokesFor emits revocations to the holders conflicting with the
// head waiter, rate-limited by RevokeRetry. Dead clerks are skipped:
// their locks stay frozen until recovery releases them.
func (s *Server) revokesFor(k lockKey, ls *lockState) []outMsg {
	now := s.w.Clock.Now()
	if sim.Duration(now-ls.lastRevoke) < s.cfg.RevokeRetry {
		return nil
	}
	ls.lastRevoke = now
	w := ls.waiters[0]
	var outs []outMsg
	for clerk, mode := range ls.holders {
		if clerk == w.clerk || s.sessionDead(clerk, k.Table) {
			continue
		}
		target := None
		if w.mode == Shared && mode == Exclusive {
			target = Shared // downgrade suffices
		} else if w.mode == Shared && mode == Shared {
			continue // not conflicting
		}
		s.revC.Inc()
		s.jr.Record("lockservice", "revoke", "sent", k.Lock, int64(target), clerk)
		outs = append(outs, outMsg{ClerkAddr(clerk), RevokeMsg{Table: k.Table, Lock: k.Lock, NewMode: target}})
	}
	return outs
}

func (s *Server) sessionDead(clerk, table string) bool {
	sess, ok := s.state.Sessions[sessionKey(clerk, table)]
	return ok && sess.Dead
}

// retryRevokes re-emits revokes for locks with blocked waiters.
func (s *Server) retryRevokes() {
	if s.isDown() {
		return
	}
	s.mu.Lock()
	var outs []outMsg
	for k, ls := range s.locks {
		if len(ls.waiters) > 0 {
			outs = append(outs, s.tryGrantLocked(k, ls)...)
		}
	}
	s.mu.Unlock()
	s.send(outs)
}

func (s *Server) onOpen(m OpenReq) OpenResp {
	if err := s.px.Submit(CmdOpenSession{Clerk: m.Clerk, Table: m.Table}, 120*time.Second); err != nil {
		return OpenResp{Err: err.Error()}
	}
	s.mu.Lock()
	sess, ok := s.state.Sessions[sessionKey(m.Clerk, m.Table)]
	s.renewals[m.Clerk] = s.w.Clock.Now()
	s.mu.Unlock()
	if !ok {
		return OpenResp{Err: "session vanished"}
	}
	return OpenResp{OK: true, LeaseID: sess.LeaseID, LogSlot: sess.LogSlot}
}

func (s *Server) onClose(m CloseReq) {
	_ = s.px.Submit(CmdCloseSession{Clerk: m.Clerk, Table: m.Table}, 120*time.Second)
}

// majorityRenewals aggregates the renewal tables of all reachable
// lock servers and returns, per clerk, the k-th freshest renewal
// time with k = majority — mirroring the clerk's own lease rule.
func (s *Server) majorityRenewals() map[string]sim.Time {
	peers := s.det.Members()
	tables := make([]map[string]int64, 0, len(peers))
	s.mu.Lock()
	own := make(map[string]int64, len(s.renewals))
	for c, t := range s.renewals {
		own[c] = int64(t)
	}
	s.mu.Unlock()
	tables = append(tables, own)
	for _, p := range peers {
		if p == s.name || !s.det.Alive(p) {
			continue
		}
		resp, err := s.ep.Call(nil, Addr(p), RenewalsReq{}, 5*time.Second)
		if err != nil {
			continue
		}
		if rr, ok := resp.(RenewalsResp); ok && rr.OK {
			tables = append(tables, rr.Times)
		}
	}
	quorum := len(peers)/2 + 1
	if len(tables) < quorum {
		// Not enough evidence: an unreachable lock server is NOT
		// evidence that a clerk stopped renewing. Skip expiry.
		return nil
	}
	out := make(map[string]sim.Time)
	clerks := make(map[string]bool)
	for _, tab := range tables {
		for c := range tab {
			clerks[c] = true
		}
	}
	for c := range clerks {
		var times []int64
		for _, tab := range tables {
			times = append(times, tab[c]) // zero = this server never heard c
		}
		// Descending selection of the quorum-th freshest among the
		// RESPONDING servers: a session expires only when at least a
		// quorum of servers each positively report prolonged silence.
		for i := 0; i < len(times); i++ {
			for j := i + 1; j < len(times); j++ {
				if times[j] > times[i] {
					times[i], times[j] = times[j], times[i]
				}
			}
		}
		out[c] = sim.Time(times[quorum-1])
	}
	return out
}

// sweep runs on every server but acts only on the coordinator: expire
// leases, mark their sessions dead, and drive recovery jobs.
func (s *Server) sweep() {
	if s.isDown() || !s.amCoordinator() || !s.det.QuorumAlive() {
		return
	}
	now := s.w.Clock.Now()
	renewed := s.majorityRenewals()
	if renewed == nil {
		return // cannot reach a quorum of renewal tables; judge later
	}
	type expiredSess struct{ clerk, table string }
	var expired []expiredSess
	var jobs []recoveryJob
	s.mu.Lock()
	for key, sess := range s.state.Sessions {
		last, ok := renewed[sess.Clerk]
		if !ok || last == 0 {
			// Never renewed anywhere yet (fresh session after a
			// coordinator change): give it a full window, tracked
			// locally.
			if _, seen := s.renewals[sess.Clerk]; !seen {
				s.renewals[sess.Clerk] = now
			}
			last = s.renewals[sess.Clerk]
		}
		if !sess.Dead && sim.Duration(now-last) > s.cfg.LeaseDuration {
			expired = append(expired, expiredSess{sess.Clerk, sess.Table})
		}
		if sess.Dead {
			job := s.recoveries[key]
			if job == nil {
				job = &recoveryJob{dead: sess.Clerk, table: sess.Table, slot: sess.LogSlot}
				s.recoveries[key] = job
			}
			// (Re)assign a recoverer if missing or itself expired.
			rl := renewed[job.recoverer]
			stale := rl == 0 || sim.Duration(now-rl) > s.cfg.LeaseDuration
			if job.recoverer == "" || stale || sim.Duration(now-job.lastSent) > 4*s.cfg.SweepEvery {
				if r := s.pickRecoverer(sess, renewed, now); r != "" {
					if r != job.recoverer {
						s.nextSeq++
						job.seq = s.nextSeq
						job.recoverer = r
					}
					job.lastSent = now
					jobs = append(jobs, *job)
				}
			}
		}
	}
	s.mu.Unlock()

	for _, e := range expired {
		s.trace("EXPIRE session %s/%s", e.clerk, e.table)
		s.jr.Record("lockservice", "lease", "expire", 0, 0, e.clerk+"/"+e.table)
		_ = s.px.Submit(CmdMarkDead{Clerk: e.clerk, Table: e.table}, 120*time.Second)
	}
	for _, j := range jobs {
		s.trace("RECOVER %s by %s", j.dead, j.recoverer)
		s.jr.Record("lockservice", "recovery", "assign", 0, int64(j.slot), j.dead+" by "+j.recoverer)
		_ = s.ep.Cast(nil, ClerkAddr(j.recoverer), RecoverReq{
			Server: s.name, Table: j.table, Dead: j.dead, DeadSlot: j.slot, Seq: j.seq,
		})
	}
}

// pickRecoverer chooses a live clerk of the same table, judged by
// the majority renewal view. Called with s.mu held.
func (s *Server) pickRecoverer(dead Session, renewed map[string]sim.Time, now sim.Time) string {
	best := ""
	var bestSeen sim.Time
	for _, sess := range s.state.Sessions {
		if sess.Table != dead.Table || sess.Dead || sess.Clerk == dead.Clerk {
			continue
		}
		seen := renewed[sess.Clerk]
		if seen == 0 || sim.Duration(now-seen) > s.cfg.LeaseDuration {
			continue
		}
		if best == "" || seen > bestSeen {
			best, bestSeen = sess.Clerk, seen
		}
	}
	return best
}

func (s *Server) onRecoveryDone(m RecoveryDone) {
	s.mu.Lock()
	key := sessionKey(m.Dead, m.Table)
	job := s.recoveries[key]
	valid := job != nil && job.seq == m.Seq
	s.mu.Unlock()
	if !valid {
		return
	}
	s.jr.Record("lockservice", "recovery", "closed", 0, 0, m.Dead)
	_ = s.px.Submit(CmdCloseSession{Clerk: m.Dead, Table: m.Table}, 120*time.Second)
}

// syncShards reconstructs gained shards' lock state from the clerks
// (phase two of reassignment): "lock servers that gain locks contact
// the clerks that have the relevant lock tables open. The servers
// recover the state of their new locks from the clerks."
func (s *Server) syncShards(shards []int) {
	s.mu.Lock()
	s.nextSeq++
	seq := s.nextSeq
	waiting := make(map[string]bool)
	for _, sess := range s.state.Sessions {
		if !sess.Dead {
			waiting[sess.Clerk] = true
		}
	}
	gs := &shardSync{seq: seq, shards: shards, waiting: waiting}
	for _, sh := range shards {
		s.pendingGrp[sh] = gs
	}
	var clerks []string
	tables := make(map[string]bool)
	for _, sess := range s.state.Sessions {
		if !sess.Dead {
			clerks = append(clerks, sess.Clerk)
			tables[sess.Table] = true
		}
	}
	ver := s.state.Version
	nshards := s.state.Shards
	s.jr.Record("lockservice", "handoff", "begin", 0, int64(len(shards)),
		fmt.Sprintf("shards %v seq %d, syncing %d clerks", shards, seq, len(clerks)))
	s.mu.Unlock()

	for _, clerk := range clerks {
		for table := range tables {
			_ = s.ep.Cast(nil, ClerkAddr(clerk), SyncReq{Server: s.name, Table: table, Shards: shards, NumShards: nshards, Seq: seq, Ver: ver})
		}
	}
	if len(clerks) == 0 {
		s.finishSync(seq)
	}
	// Laggards are re-asked by the syncRetry ticker; the shards stay
	// pending (no grants) until every live clerk has answered or its
	// session has died.
}

// syncRetry re-sends SyncReqs for pending shards and prunes clerks
// whose sessions are gone.
func (s *Server) syncRetry() {
	if s.isDown() {
		return
	}
	s.mu.Lock()
	type ask struct {
		clerk  string
		table  string
		shards []int
		seq    uint64
		ver    int64
	}
	var asks []ask
	var finished []uint64
	seen := make(map[uint64]bool)
	nshards := s.state.Shards
	for _, gs := range s.pendingGrp {
		if seen[gs.seq] {
			continue
		}
		seen[gs.seq] = true
		for clerk := range gs.waiting {
			alive := false
			table := ""
			for _, sess := range s.state.Sessions {
				if sess.Clerk == clerk && !sess.Dead {
					alive = true
					table = sess.Table
					break
				}
			}
			if !alive {
				delete(gs.waiting, clerk)
				continue
			}
			asks = append(asks, ask{clerk, table, gs.shards, gs.seq, s.state.Version})
		}
		if len(gs.waiting) == 0 {
			finished = append(finished, gs.seq)
		}
	}
	s.mu.Unlock()
	for _, a := range asks {
		_ = s.ep.Cast(nil, ClerkAddr(a.clerk), SyncReq{Server: s.name, Table: a.table, Shards: a.shards, NumShards: nshards, Seq: a.seq, Ver: a.ver})
	}
	for _, seq := range finished {
		s.finishSync(seq)
	}
}

func (s *Server) onSyncResp(m SyncResp) {
	s.mu.Lock()
	var gs *shardSync
	for _, p := range s.pendingGrp {
		if p.seq == m.Seq {
			gs = p
			break
		}
	}
	if gs == nil || !gs.waiting[m.Clerk] {
		s.mu.Unlock()
		return
	}
	delete(gs.waiting, m.Clerk)
	for _, h := range m.Locks {
		// Table comes from the session; clerk reports per its table.
		table := ""
		for _, sess := range s.state.Sessions {
			if sess.Clerk == m.Clerk {
				table = sess.Table
				break
			}
		}
		if table == "" {
			continue
		}
		k := lockKey{table, h.Lock}
		ls := s.lock(k)
		ls.holders[m.Clerk] = h.Mode
	}
	done := len(gs.waiting) == 0
	s.mu.Unlock()
	if done {
		s.finishSync(m.Seq)
	}
}

// finishSync marks shards with the given sync sequence ready and
// kicks granting.
func (s *Server) finishSync(seq uint64) {
	s.mu.Lock()
	var ready []int
	for sh, p := range s.pendingGrp {
		if p.seq == seq {
			ready = append(ready, sh)
		}
	}
	for _, sh := range ready {
		delete(s.pendingGrp, sh)
	}
	var outs []outMsg
	if len(ready) > 0 {
		s.jr.Record("lockservice", "handoff", "end", 0, int64(len(ready)),
			fmt.Sprintf("shards %v recovered, granting resumes", ready))
		for k, ls := range s.locks {
			sh := s.state.ShardOf(k.Lock)
			for _, r := range ready {
				if sh == r {
					outs = append(outs, s.tryGrantLocked(k, ls)...)
					break
				}
			}
		}
	}
	s.mu.Unlock()
	s.send(outs)
}

// Stats reports the paper's lock memory model applied to this
// server's current state.
func (s *Server) Stats() (locks int, bytes int64) {
	s.mu.Lock()
	for _, ls := range s.locks {
		locks++
		bytes += ServerBytesPerLock
		bytes += int64((len(ls.holders) + len(ls.waiters))) * ServerBytesPerClerk
	}
	s.mu.Unlock()
	// Mirror the computed values into the registry so snapshots see
	// them without calling Stats.
	s.locksG.Set(int64(locks))
	s.memBytes.Set(bytes)
	return locks, bytes
}
