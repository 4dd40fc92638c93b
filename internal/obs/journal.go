package obs

import (
	"sync"
	"time"
)

func wallNow() int64 { return time.Now().UnixNano() }

// Event is one fixed-size flight-recorder record. Events are written
// into a per-server Journal ring at points the metrics layer cannot
// explain after the fact: lease expiry, revoke stalls, log replay,
// Petal failover, connection churn. The struct holds only scalars and
// string headers; callers pass static or pre-formatted strings so a
// Record call does not allocate.
type Event struct {
	Seq    uint64 `json:"seq"`              // per-journal sequence number
	T      int64  `json:"t_ns"`             // ns on the deployment clock (sim or wall)
	Server string `json:"server"`           // journal owner ("ws1", "petal0", "cluster")
	Layer  string `json:"layer"`            // "lockservice", "wal", "petal", "rpc", "fs", "obs"
	Op     string `json:"op"`               // "acquire", "lease", "flush", "conn", ...
	Kind   string `json:"kind"`             // "wait", "expire", "retry", "crit", ...
	Key    uint64 `json:"key,omitempty"`    // entity: lock id, inode, WAL seq, chunk
	Arg    int64  `json:"arg,omitempty"`    // small numeric payload: ns, bytes, count, slot
	Trace  uint64 `json:"trace,omitempty"`  // trace ID if recorded inside a span
	Detail string `json:"detail,omitempty"` // short free text ("ws1->petal2", error)
}

// DefaultJournalCap is the per-server ring size used by
// Registry.Journal. At ~100 B/record a server's journal is bounded at
// a few hundred KB and holds the trailing few thousand events — hours
// of failure-relevant history, minutes of hot-path history.
const DefaultJournalCap = 4096

// Journal is one server's bounded flight-recorder ring. Writers
// overwrite the oldest record once the ring is full; readers get a
// snapshot copy. All methods are nil-safe no-ops, matching the rest
// of the obs package, so unwired components cost nothing.
type Journal struct {
	server string
	now    NowFunc

	mu   sync.Mutex
	ring []Event
	pos  int // next write slot
	size int // occupied slots, <= len(ring)
	seq  uint64
}

// NewJournal returns a standalone journal (see NewCounter for the
// standalone-collector idiom). A nil now means wall time; capacity
// < 1 falls back to DefaultJournalCap.
func NewJournal(server string, capacity int, now NowFunc) *Journal {
	if capacity < 1 {
		capacity = DefaultJournalCap
	}
	if now == nil {
		now = wallNow
	}
	return &Journal{
		server: server,
		now:    now,
		ring:   make([]Event, capacity),
	}
}

// Server returns the journal owner's name.
func (j *Journal) Server() string {
	if j == nil {
		return ""
	}
	return j.server
}

// Record appends one event recorded outside any operation.
func (j *Journal) Record(layer, op, kind string, key uint64, arg int64, detail string) {
	j.RecordIn(nil, layer, op, kind, key, arg, detail)
}

// RecordIn appends one event, stamping the clock and the trace ID of
// sp (the operation it was recorded in, or nil), so timelines can be
// joined with traces. Copy-in to a preallocated slot: no allocation
// beyond the strings the caller already holds.
func (j *Journal) RecordIn(sp *Span, layer, op, kind string, key uint64, arg int64, detail string) {
	if j == nil {
		return
	}
	var trace uint64
	if sp != nil {
		trace = sp.TraceID
	}
	j.mu.Lock()
	// Stamp inside the lock: ring order and timestamp order agree,
	// so a journal's events are non-decreasing in T.
	t := j.now()
	j.seq++
	j.ring[j.pos] = Event{
		Seq:    j.seq,
		T:      t,
		Server: j.server,
		Layer:  layer,
		Op:     op,
		Kind:   kind,
		Key:    key,
		Arg:    arg,
		Trace:  trace,
		Detail: detail,
	}
	j.pos = (j.pos + 1) % len(j.ring)
	if j.size < len(j.ring) {
		j.size++
	}
	j.mu.Unlock()
}

// Len returns the number of retained events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Seq returns the total number of events ever recorded, including
// those the ring has since overwritten.
func (j *Journal) Seq() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Events returns a snapshot of the retained events, oldest first.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, 0, j.size)
	start := j.pos - j.size
	if start < 0 {
		start += len(j.ring)
	}
	for i := 0; i < j.size; i++ {
		out = append(out, j.ring[(start+i)%len(j.ring)])
	}
	return out
}

// SetJournalCap sets the ring capacity used for journals created
// after the call (existing rings keep their size — components capture
// the journal pointer once at construction, so set the cap before
// wiring). Values < 1 reset to DefaultJournalCap.
func (r *Registry) SetJournalCap(n int) {
	if r == nil {
		return
	}
	if n < 1 {
		n = 0
	}
	r.mu.Lock()
	r.journalCap = n
	r.mu.Unlock()
}

// SetJournal enables or disables flight-recorder journals on this
// registry. Disabling makes Journal return nil, and since every
// Journal method is nil-safe the recorder then costs nothing — the
// knob the obs-overhead ablation uses to isolate recorder cost.
// Call before components are wired: they capture the pointer once.
func (r *Registry) SetJournal(on bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.journalOff = !on
	r.mu.Unlock()
}

// Journal returns the named server's flight-recorder journal,
// creating it on first use on the registry's clock.
func (r *Registry) Journal(server string) *Journal {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	j, off := r.journals[server], r.journalOff
	r.mu.RUnlock()
	if off {
		return nil
	}
	if j != nil {
		return j
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if j = r.journals[server]; j == nil {
		j = NewJournal(server, r.journalCap, r.now)
		r.journals[server] = j
	}
	return j
}

// Journals returns every journal in the registry, sorted by server
// name — the input to timeline reconstruction.
func (r *Registry) Journals() []*Journal {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Journal, 0, len(r.journals))
	for _, name := range sortedKeys(r.journals) {
		out = append(out, r.journals[name])
	}
	return out
}
