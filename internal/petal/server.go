package petal

import (
	"sort"
	"sync"
	"time"

	"frangipani/internal/obs"
	"frangipani/internal/paxos"
	"frangipani/internal/rpc"
	"frangipani/internal/sim"
)

// ServerConfig sizes one Petal server.
type ServerConfig struct {
	// Disks per server and per-disk parameters. The paper's servers
	// each had 9 RZ29 drives.
	NumDisks   int
	DiskParams sim.DiskParams
	// NVRAM, if > 0, places a PrestoServe-like write buffer of this
	// many bytes in front of every disk.
	NVRAM int
	// CPU cost model for the data path.
	CPUPerOp sim.Duration
	CPUPerKB sim.Duration
	// Heartbeat timing for the failure detector.
	HeartbeatEvery sim.Duration
	SuspectAfter   sim.Duration
	// WriteGuard, if non-nil, can reject writes (lease validation).
	// It receives the request and the current simulated time in ns.
	WriteGuard func(req WriteReq, now int64) bool
	// NoReplicate disables write forwarding to the partner replica —
	// an ablation knob for the Figure 7 replication-cost study. Only
	// safe in failure-free runs.
	NoReplicate bool
}

// DefaultServerConfig mirrors the paper's testbed per-server sizing,
// scaled to the given per-disk capacity.
func DefaultServerConfig(diskCapacity int64) ServerConfig {
	return ServerConfig{
		NumDisks:       9,
		DiskParams:     sim.DefaultDiskParams(diskCapacity),
		CPUPerOp:       30 * time.Microsecond,
		CPUPerKB:       1 * time.Microsecond,
		HeartbeatEvery: 250 * time.Millisecond,
		SuspectAfter:   1500 * time.Millisecond,
	}
}

// Server is one Petal storage server. Servers replicate chunk writes
// pairwise, share the virtual-disk directory via Paxos, and detect
// each other's failures by heartbeat.
type Server struct {
	name string
	w    *sim.World
	cfg  ServerConfig
	ep   *rpc.Endpoint
	px   *paxos.Node
	det  *paxos.Detector
	cpu  *sim.CPU
	st   *store

	mu      sync.Mutex
	state   GlobalState
	missed  map[string]map[chunkKey]bool // partner -> keys it missed
	crashed bool
	closed  bool

	rejoinMu sync.Mutex // serializes rejoin passes
	aeCancel func()
	nvs      []*sim.NVRAM

	tr       *obs.Tracer
	reqC     *obs.Counter
	inflight *obs.Gauge        // data-path requests currently being served
	depthHi  *obs.Gauge        // high-water mark of inflight (queue depth)
	missedG  *obs.Gauge        // replica-lag backlog: chunks partners missed
	acct     *obs.AccountTable // per-principal server-op attribution
	jr       *obs.Journal      // flight recorder (nil-safe)
}

const dataTimeout = 5 * time.Second

// DataAddr returns the network name of a server's data endpoint.
func DataAddr(name string) string { return name + ".petal" }

// NewServer creates (but does not interconnect) one Petal server.
// peers must list all Petal server names including this one; the set
// is fixed for the life of the cluster, as in our Paxos layer.
func NewServer(w *sim.World, name string, peers []string, cfg ServerConfig) *Server {
	return NewServerWithCarrier(w, name, peers, cfg, rpc.SimCarrier{Net: w.Net})
}

// NewServerWithCarrier creates a Petal server on an explicit message
// carrier (TCP for daemon deployments, sim for tests).
func NewServerWithCarrier(w *sim.World, name string, peers []string, cfg ServerConfig, carrier rpc.Carrier) *Server {
	s := &Server{
		name:   name,
		w:      w,
		cfg:    cfg,
		cpu:    w.CPU(name),
		state:  NewGlobalState(peers),
		missed: make(map[string]map[chunkKey]bool),
	}
	var disks []*sim.Disk
	var nvs []*sim.NVRAM
	for i := 0; i < cfg.NumDisks; i++ {
		d := sim.NewDisk(w.Clock, name, cfg.DiskParams)
		disks = append(disks, d)
		if cfg.NVRAM > 0 {
			nvs = append(nvs, sim.NewNVRAM(w.Clock, d, cfg.NVRAM, 50*time.Microsecond))
		} else {
			nvs = append(nvs, nil)
		}
	}
	s.nvs = nvs
	s.st = newStore(disks, nvs)
	s.tr = w.Obs.Tracer()
	if reg := w.Obs; reg != nil {
		s.reqC = reg.Counter("petal.server.requests#" + name)
		s.inflight = reg.Gauge("petal.server.inflight#" + name)
		s.depthHi = reg.Gauge("petal.server.inflight.peak#" + name)
		s.missedG = reg.Gauge("petal.server.missed#" + name)
		s.acct = reg.Accounts()
		s.jr = reg.Journal(name)
	}

	s.px = paxos.NewNode(name, peers, carrier, w.Clock, s.applyCmd)
	s.det = paxos.NewDetector(name, peers, carrier, w.Clock,
		cfg.HeartbeatEvery, cfg.SuspectAfter, s.onLiveness)
	s.ep = rpc.NewEndpoint(DataAddr(name), carrier, w.Clock, s.handle)
	s.aeCancel = w.Clock.Tick(cfg.SuspectAfter, s.antiEntropy)
	return s
}

// Name returns the server's name.
func (s *Server) Name() string { return s.name }

// Disks exposes the server's raw disks for fault injection in tests.
func (s *Server) Disks() []*sim.Disk { return s.st.disks }

// CommittedBytes reports committed physical space on this server.
func (s *Server) CommittedBytes() int64 { return s.st.committedBytes() }

// State returns a copy of the server's view of the global state.
func (s *Server) State() GlobalState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.Clone()
}

// applyCmd is the Paxos applier: all servers apply the same commands
// in the same order.
func (s *Server) applyCmd(seq int64, cmd paxos.Command) {
	s.mu.Lock()
	_ = s.state.Apply(cmd)
	s.mu.Unlock()
}

// onLiveness reacts to failure-detector transitions. The lowest-named
// live server proposes the liveness change into the global state;
// proposals are idempotent there.
func (s *Server) onLiveness(peer string, alive bool) {
	if s.isDown() {
		return
	}
	if alive {
		// The rejoiner proposes itself alive after resync; nothing to
		// do here.
		return
	}
	s.mu.Lock()
	already := !s.state.Alive[peer]
	s.mu.Unlock()
	if already || !s.amCoordinator() {
		return
	}
	s.jr.Record("petal", "replica", "death", 0, 0, peer)
	go func() {
		_ = s.px.Submit(CmdSetAlive{Server: peer, Alive: false}, 60*time.Second)
	}()
}

// amCoordinator reports whether this server is the lowest-named one
// it currently believes alive.
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

func (s *Server) isDown() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed || s.closed
}

// handle serves the Petal data and control protocol. sp carries the
// sender's trace context and principal.
func (s *Server) handle(sp *obs.Span, from string, body any) any {
	if s.isDown() {
		// The request will never be served; recycle any pooled
		// receive buffer its payload occupies.
		rpc.Release(body)
		return nil
	}
	s.reqC.Inc()
	// Server-side work is charged to the originating client.
	s.acct.ServerOp(sp.Who())
	switch m := body.(type) {
	case ReadReq:
		return s.spanned(sp, "server.read", func(*obs.Span) any { return s.onRead(m) })
	case ReadVReq:
		return s.spanned(sp, "server.readv", func(*obs.Span) any { return s.onReadV(m) })
	case WriteReq:
		return s.spanned(sp, "server.write", func(sp *obs.Span) any { return s.onWrite(sp, m) })
	case WriteVReq:
		return s.spanned(sp, "server.writev", func(sp *obs.Span) any { return s.onWriteV(sp, m) })
	case DecommitReq:
		return s.onDecommit(m)
	case AdminReq:
		return s.onAdmin(m)
	case StateReq:
		s.mu.Lock()
		if s.state.Version <= m.HaveVersion {
			// Client is current: answer without cloning or shipping
			// the directory (incremental refresh fast path).
			v := s.state.Version
			s.mu.Unlock()
			return StateResp{OK: true, Unchanged: true, Version: v}
		}
		st := s.state.Clone()
		s.mu.Unlock()
		return StateResp{OK: true, Version: st.Version, State: st}
	case MissedListReq:
		s.mu.Lock()
		var keys []chunkKey
		for k := range s.missed[m.For] {
			keys = append(keys, k)
		}
		s.mu.Unlock()
		return MissedListResp{Keys: keys}
	case ChunkFetchReq:
		data, ok, _ := s.st.getRaw(m.Key)
		return ChunkFetchResp{OK: ok, Data: data}
	case MissedAckReq:
		s.mu.Lock()
		for _, k := range m.Keys {
			delete(s.missed[m.For], k)
		}
		s.mu.Unlock()
		return AdminResp{OK: true}
	case PushChunkReq:
		if err := s.st.putRaw(m.Key, m.Data); err != nil {
			return AdminResp{Err: err.Error()}
		}
		return AdminResp{OK: true}
	case ListChunksReq:
		s.mu.Lock()
		base, ceiling, _, err := s.state.resolve(m.VDisk)
		s.mu.Unlock()
		if err != nil {
			return ListChunksResp{}
		}
		return ListChunksResp{Chunks: s.st.visibleChunks(base, ceiling)}
	case UsageReq:
		return UsageResp{Bytes: s.st.committedBytes()}
	}
	return nil
}

// spanned runs a data-path handler under a server-side child of the
// request's remote span (when it arrived with trace context), tracking
// the server's in-flight request count and its high-water mark.
func (s *Server) spanned(parent *obs.Span, op string, fn func(sp *obs.Span) any) any {
	s.inflight.Add(1)
	s.depthHi.SetMax(s.inflight.Value())
	defer s.inflight.Add(-1)
	sp := s.tr.Child(parent, "petal", op)
	defer sp.Done()
	return fn(sp)
}

// MissedBacklog reports the number of chunk writes this server's
// partners have missed and not yet received via anti-entropy — the
// replica-lag signal for health probing. The mirror gauge
// "petal.server.missed#name" is refreshed as a side effect.
func (s *Server) MissedBacklog() int {
	s.mu.Lock()
	n := 0
	for _, keys := range s.missed {
		n += len(keys)
	}
	s.mu.Unlock()
	s.missedG.Set(int64(n))
	return n
}

// antiEntropy pushes missed chunks to partners that are reachable
// again, repairing replication broken by transient forward failures.
// It runs periodically; rejoin after a declared crash uses the pull
// path instead.
func (s *Server) antiEntropy() {
	if s.isDown() {
		return
	}
	s.mu.Lock()
	var partners []string
	for p, keys := range s.missed {
		if len(keys) > 0 && s.state.Alive[p] {
			partners = append(partners, p)
		}
	}
	s.mu.Unlock()
	for _, p := range partners {
		s.mu.Lock()
		var keys []chunkKey
		for k := range s.missed[p] {
			keys = append(keys, k)
		}
		s.mu.Unlock()
		s.jr.Record("petal", "replica", "resync", 0, int64(len(keys)), p)
		for _, key := range keys {
			data, ok, err := s.st.getRaw(key)
			if err != nil || !ok {
				continue
			}
			resp, err := s.ep.Call(nil, DataAddr(p), PushChunkReq{Key: key, Data: data}, dataTimeout)
			if err != nil {
				break // partner still unreachable; try next period
			}
			if ar, ok := resp.(AdminResp); ok && ar.OK {
				s.mu.Lock()
				delete(s.missed[p], key)
				s.mu.Unlock()
			}
		}
	}
}

func (s *Server) chargeCPU(bytes int) {
	s.cpu.Use(s.cfg.CPUPerOp + sim.Duration(bytes/1024)*s.cfg.CPUPerKB)
}

func (s *Server) onRead(m ReadReq) ReadResp {
	s.chargeCPU(m.Len)
	s.mu.Lock()
	base, ceiling, _, err := s.state.resolve(m.VDisk)
	s.mu.Unlock()
	if err != nil {
		return ReadResp{Err: err.Error()}
	}
	if m.Off < 0 || m.Len < 0 || m.Off+m.Len > ChunkSize {
		return ReadResp{Err: ErrBounds.Error()}
	}
	data, committed, err := s.st.readChunk(base, m.Chunk, ceiling, m.Off, m.Len)
	if err != nil {
		return ReadResp{Err: err.Error()}
	}
	if !committed {
		return ReadResp{OK: true, Data: nil} // hole: reads as zeros
	}
	return ReadResp{OK: true, Data: data}
}

// readVServePar bounds concurrent store reads while serving one
// scatter-gather read; the disk arms serialize actual media time.
const readVServePar = 16

// onReadV serves a scatter-gather read: the vdisk resolves once, then
// every extent is read from the local store with bounded parallelism.
// Reads don't modify anything, so unlike applyExtents no conflict
// chaining is needed. Extent failures (e.g. a CRC error) are reported
// per extent so the client can fail over only the damaged pieces.
func (s *Server) onReadV(m ReadVReq) ReadVResp {
	total := 0
	for _, e := range m.Extents {
		total += e.Len
	}
	s.chargeCPU(total)
	s.mu.Lock()
	base, ceiling, _, err := s.state.resolve(m.VDisk)
	s.mu.Unlock()
	if err != nil {
		return ReadVResp{Err: err.Error()}
	}
	results := make([]ReadVExtentResult, len(m.Extents))
	sem := make(chan struct{}, readVServePar)
	var wg sync.WaitGroup
	for i := range m.Extents {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			e := m.Extents[i]
			if e.Off < 0 || e.Len < 0 || e.Off+e.Len > ChunkSize {
				results[i] = ReadVExtentResult{Err: ErrBounds.Error()}
				return
			}
			data, committed, err := s.st.readChunk(base, e.Chunk, ceiling, e.Off, e.Len)
			if err != nil {
				results[i] = ReadVExtentResult{Err: err.Error()}
				return
			}
			if !committed {
				results[i] = ReadVExtentResult{OK: true} // hole: reads as zeros
				return
			}
			results[i] = ReadVExtentResult{OK: true, Data: data}
		}(i)
	}
	wg.Wait()
	return ReadVResp{OK: true, Results: results}
}

// resolveWriteEpoch maps a vdisk to its writable (base, ceiling)
// pair for a write stamped with epoch. If the writer's epoch is ahead
// the server waits for its Paxos apply loop to catch up; a writer
// behind a snapshot gets ErrStaleEpoch (refresh and retry).
func (s *Server) resolveWriteEpoch(v VDiskID, epoch int64) (base VDiskID, ceiling int64, st GlobalState, errStr string) {
	var writable bool
	waitLimit := s.w.Clock.Now() + sim.Time(dataTimeout)
	for {
		s.mu.Lock()
		var err error
		base, ceiling, writable, err = s.state.resolve(v)
		st = s.state
		s.mu.Unlock()
		if err != nil {
			return "", 0, st, err.Error()
		}
		if epoch == 0 || ceiling >= epoch {
			break
		}
		if s.w.Clock.Now() >= waitLimit || s.isDown() {
			return "", 0, st, ErrUnavailable.Error()
		}
		s.w.Clock.Sleep(20 * time.Millisecond)
	}
	if !writable {
		return "", 0, st, ErrReadOnly.Error()
	}
	if epoch != 0 && ceiling > epoch {
		return "", 0, st, ErrStaleEpoch.Error()
	}
	if epoch != 0 {
		ceiling = epoch
	}
	return base, ceiling, st, ""
}

func (s *Server) onWrite(sp *obs.Span, m WriteReq) WriteResp {
	// On TCP, m.Data aliases a pooled receive buffer. Once the store
	// has copied the bytes and any replica forward has completed, the
	// buffer is recycled — unless a forward timed out, in which case
	// the payload may still be queued at the carrier and the buffer
	// must leak to the garbage collector instead.
	leaked := false
	defer func() {
		if !leaked {
			rpc.Release(m)
		}
	}()
	s.chargeCPU(len(m.Data))
	if g := s.cfg.WriteGuard; g != nil && !m.Forwarded {
		if !g(m, int64(s.w.Clock.Now())) {
			return WriteResp{Err: ErrLeaseExpired.Error()}
		}
	}
	base, ceiling, st, errStr := s.resolveWriteEpoch(m.VDisk, m.Epoch)
	if errStr != "" {
		return WriteResp{Err: errStr}
	}
	if m.Off < 0 || m.Off+len(m.Data) > ChunkSize {
		return WriteResp{Err: ErrBounds.Error()}
	}
	if err := s.st.writeChunk(base, m.Chunk, ceiling, m.Off, m.Data); err != nil {
		return WriteResp{Err: err.Error()}
	}
	if !m.Forwarded && !s.cfg.NoReplicate {
		leaked = s.replicate(sp, st, base, ceiling, m)
	}
	return WriteResp{OK: true}
}

// onWriteV applies a scatter-gather write: one lease check and one
// epoch resolution cover every extent, then the extents land on the
// local store in order. Replication forwards the extents grouped by
// partner so the batch stays batched on the replica hop too.
func (s *Server) onWriteV(sp *obs.Span, m WriteVReq) WriteVResp {
	// Same pooled-buffer discipline as onWrite.
	leaked := false
	defer func() {
		if !leaked {
			rpc.Release(m)
		}
	}()
	total := 0
	for _, e := range m.Extents {
		total += len(e.Data)
	}
	s.chargeCPU(total)
	if g := s.cfg.WriteGuard; g != nil && !m.Forwarded {
		// The guard inspects lease fields only; hand it an equivalent
		// single-write request.
		probe := WriteReq{VDisk: m.VDisk, ExpireAt: m.ExpireAt, LeaseID: m.LeaseID, Epoch: m.Epoch}
		if !g(probe, int64(s.w.Clock.Now())) {
			return WriteVResp{Err: ErrLeaseExpired.Error()}
		}
	}
	base, ceiling, st, errStr := s.resolveWriteEpoch(m.VDisk, m.Epoch)
	if errStr != "" {
		return WriteVResp{Err: errStr}
	}
	for _, e := range m.Extents {
		if e.Off < 0 || e.Off+len(e.Data) > ChunkSize {
			return WriteVResp{Err: ErrBounds.Error()}
		}
	}
	if errStr := s.applyExtents(base, ceiling, m.Extents); errStr != "" {
		return WriteVResp{Err: errStr}
	}
	if !m.Forwarded && !s.cfg.NoReplicate {
		leaked = s.replicateV(sp, st, base, ceiling, m)
	}
	return WriteVResp{OK: true}
}

// writeVApplyPar bounds concurrent store writes while applying one
// scatter-gather batch; the disk arms serialize actual media time.
const writeVApplyPar = 16

// applyExtents applies a batch's extents to the local store with
// bounded parallelism — the disk-level half of scatter-gather.
// Extents whose sector-aligned spans overlap are chained into one
// serial unit so read-modify-write at a shared edge sector stays
// ordered; everything else proceeds concurrently. Returns the first
// error string, or "".
func (s *Server) applyExtents(base VDiskID, ceiling int64, exts []WriteVExtent) string {
	units := conflictUnits(exts)
	var (
		wg   sync.WaitGroup
		emu  sync.Mutex
		ferr string
	)
	sem := make(chan struct{}, writeVApplyPar)
	for _, u := range units {
		wg.Add(1)
		sem <- struct{}{}
		go func(u []WriteVExtent) {
			defer wg.Done()
			defer func() { <-sem }()
			for _, e := range u {
				if err := s.st.writeChunk(base, e.Chunk, ceiling, e.Off, e.Data); err != nil {
					emu.Lock()
					if ferr == "" {
						ferr = err.Error()
					}
					emu.Unlock()
					return
				}
			}
		}(u)
	}
	wg.Wait()
	return ferr
}

// conflictUnits sorts extents by (chunk, offset) and chains those
// whose sector-aligned spans overlap into one serial unit.
func conflictUnits(exts []WriteVExtent) [][]WriteVExtent {
	sorted := append([]WriteVExtent(nil), exts...)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].Chunk != sorted[b].Chunk {
			return sorted[a].Chunk < sorted[b].Chunk
		}
		return sorted[a].Off < sorted[b].Off
	})
	var units [][]WriteVExtent
	var unitChunk, unitHi int64 // current unit's chunk and aligned end
	for _, e := range sorted {
		lo := int64(e.Off) &^ (sim.SectorSize - 1)
		hi := (int64(e.Off+len(e.Data)) + sim.SectorSize - 1) &^ (sim.SectorSize - 1)
		if len(units) > 0 && e.Chunk == unitChunk && lo < unitHi {
			units[len(units)-1] = append(units[len(units)-1], e)
			if hi > unitHi {
				unitHi = hi
			}
			continue
		}
		units = append(units, []WriteVExtent{e})
		unitChunk, unitHi = e.Chunk, hi
	}
	return units
}

// replicateV forwards a scatter-gather write to partner replicas,
// grouped so each partner receives one batched request covering the
// extents it replicates. Extents whose partner misses the forward are
// recorded chunk-by-chunk for rejoin/anti-entropy repair. The
// returned leaked flag is true when a forward call errored — the
// request payload may still be queued at the carrier, so the caller
// must not recycle its buffer.
func (s *Server) replicateV(sp *obs.Span, st GlobalState, base VDiskID, epoch int64, m WriteVReq) (leaked bool) {
	byPartner := make(map[string][]WriteVExtent)
	for _, e := range m.Extents {
		p1, p2 := st.replicas(base, e.Chunk)
		partner := p1
		if p1 == s.name {
			partner = p2
		}
		if partner == "" || partner == s.name {
			continue
		}
		byPartner[partner] = append(byPartner[partner], e)
	}
	for partner, exts := range byPartner {
		fw := WriteVReq{VDisk: m.VDisk, Extents: exts, Forwarded: true, Epoch: epoch}
		s.mu.Lock()
		partnerAlive := st.Alive[partner]
		s.mu.Unlock()
		if partnerAlive {
			resp, err := s.ep.Call(sp, DataAddr(partner), fw, dataTimeout)
			if err == nil {
				if wr, ok := resp.(WriteVResp); ok && wr.OK {
					continue
				}
			} else {
				leaked = true
			}
		}
		s.mu.Lock()
		mm := s.missed[partner]
		if mm == nil {
			mm = make(map[chunkKey]bool)
			s.missed[partner] = mm
		}
		for _, e := range exts {
			mm[chunkKey{base, e.Chunk, epoch}] = true
		}
		s.mu.Unlock()
	}
	return leaked
}

// replicate forwards a client write to the partner replica, recording
// a missed write if the partner is down or unreachable. As with
// replicateV, leaked reports that the forwarded payload may still be
// queued at the carrier.
func (s *Server) replicate(sp *obs.Span, st GlobalState, base VDiskID, epoch int64, m WriteReq) (leaked bool) {
	p1, p2 := st.replicas(base, m.Chunk)
	partner := p1
	if p1 == s.name {
		partner = p2
	}
	if partner == "" || partner == s.name {
		return false
	}
	fw := m
	fw.Forwarded = true
	fw.Epoch = epoch
	s.mu.Lock()
	partnerAlive := st.Alive[partner]
	s.mu.Unlock()
	if partnerAlive {
		resp, err := s.ep.Call(sp, DataAddr(partner), fw, dataTimeout)
		if err == nil {
			if wr, ok := resp.(WriteResp); ok && wr.OK {
				return false
			}
		} else {
			leaked = true
		}
	}
	// Partner missed this write; remember the exact chunk key so
	// rejoin (or anti-entropy) can copy the whole chunk image.
	key := chunkKey{base, m.Chunk, epoch}
	s.mu.Lock()
	mm := s.missed[partner]
	if mm == nil {
		mm = make(map[chunkKey]bool)
		s.missed[partner] = mm
	}
	mm[key] = true
	s.mu.Unlock()
	return leaked
}

func (s *Server) onDecommit(m DecommitReq) AdminResp {
	s.chargeCPU(0)
	s.mu.Lock()
	base, ceiling, writable, err := s.state.resolve(m.VDisk)
	s.mu.Unlock()
	if err != nil {
		return AdminResp{Err: err.Error()}
	}
	if !writable {
		return AdminResp{Err: ErrReadOnly.Error()}
	}
	s.st.decommitRange(base, m.FirstChunk, m.LastChunk, ceiling)
	return AdminResp{OK: true}
}

func (s *Server) onAdmin(m AdminReq) AdminResp {
	// Pre-validate against our current state for a friendly error;
	// the authoritative application happens via Paxos on all servers.
	s.mu.Lock()
	probe := s.state.Clone()
	s.mu.Unlock()
	if err := probe.Apply(m.Cmd); err != nil {
		return AdminResp{Err: err.Error()}
	}
	if err := s.px.Submit(m.Cmd, 60*time.Second); err != nil {
		return AdminResp{Err: err.Error()}
	}
	return AdminResp{OK: true}
}

// Crash stops the server: data path, Paxos, and heartbeats all go
// silent. Disk contents are retained.
func (s *Server) Crash() {
	s.mu.Lock()
	s.crashed = true
	s.mu.Unlock()
	s.jr.Record("petal", "replica", "crash", 0, 0, "")
	s.px.Crash()
	s.det.Crash()
}

// Restart revives a crashed server. It resynchronizes the writes it
// missed from its partners and then proposes itself alive; clients
// route reads back to it only after that point.
func (s *Server) Restart() {
	s.mu.Lock()
	s.crashed = false
	s.mu.Unlock()
	s.jr.Record("petal", "replica", "restart", 0, 0, "resync from partners")
	s.px.Recover()
	s.det.Recover()
	go s.rejoin()
}

// rejoin pulls missed chunks from every partner, then proposes
// aliveness.
func (s *Server) rejoin() {
	s.rejoinMu.Lock()
	defer s.rejoinMu.Unlock()
	for _, p := range s.det.Members() {
		if p == s.name || s.isDown() {
			continue
		}
		resp, err := s.ep.Call(nil, DataAddr(p), MissedListReq{For: s.name}, dataTimeout)
		if err != nil {
			continue
		}
		ml, ok := resp.(MissedListResp)
		if !ok {
			continue
		}
		var synced []chunkKey
		for _, key := range ml.Keys {
			fr, err := s.ep.Call(nil, DataAddr(p), ChunkFetchReq{Key: key}, dataTimeout)
			if err != nil {
				continue
			}
			cf, ok := fr.(ChunkFetchResp)
			if !ok || !cf.OK {
				continue
			}
			if err := s.st.putRaw(key, cf.Data); err == nil {
				synced = append(synced, key)
			}
		}
		if len(synced) > 0 {
			_, _ = s.ep.Call(nil, DataAddr(p), MissedAckReq{For: s.name, Keys: synced}, dataTimeout)
		}
	}
	_ = s.px.Submit(CmdSetAlive{Server: s.name, Alive: true}, 60*time.Second)
}

// DebugReadChunk reads length bytes at off within a chunk directly
// from this server's local store, bypassing routing — a diagnostic
// aid for replica-divergence investigations.
func (s *Server) DebugReadChunk(v VDiskID, chunk int64, off, length int) ([]byte, bool) {
	s.mu.Lock()
	base, ceiling, _, err := s.state.resolve(v)
	s.mu.Unlock()
	if err != nil {
		return nil, false
	}
	data, ok, err := s.st.readChunk(base, chunk, ceiling, off, length)
	if err != nil {
		return nil, false
	}
	return data, ok
}

// Close shuts the server down permanently.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.aeCancel()
	s.det.Stop()
	s.px.Close()
	s.ep.Close()
	for _, nv := range s.nvs {
		if nv != nil {
			go nv.Close() // drains asynchronously; the disks are dead anyway
		}
	}
}
