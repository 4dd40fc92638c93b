package obs

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Per-principal resource accounting: every byte moved, RPC issued,
// lock-wait nanosecond, and cache miss is attributed to the client or
// tenant ("principal") on whose behalf the work ran. Callers tag work
// with WithPrincipal; each public fs operation reads the tag once, into
// its root span's Principal field. From there the span carries it as
// an explicit argument through every layer and across machines in the
// rpc envelope, so server-side work done for a remote client is charged
// to that client, not to the server.
//
// Work that runs outside any tagged operation — background flushers,
// lease renewals, recovery — lands in the reserved UnknownPrincipal account
// rather than being dropped: unattributed load stays visible, and the
// attribution-coverage gate in the noisy-neighbor experiment measures
// exactly how much of the cluster's work the tags explain.

const (
	// UnknownPrincipal absorbs work recorded outside any tagged
	// operation.
	UnknownPrincipal = "unknown"
	// OtherPrincipal absorbs accounts folded out of a full table, so
	// totals are never lost to eviction.
	OtherPrincipal = "other"
)

// ---- goroutine-local principal binding --------------------------

// The binding table is sharded by goroutine ID, with a global
// bound-count so CurrentPrincipal bails with one atomic load when
// nothing is bound anywhere.
type plShard struct {
	mu sync.Mutex
	m  map[uint64]string
}

const plShards = 64

var (
	plTab   [plShards]plShard
	plBound atomic.Int64
)

func init() {
	for i := range plTab {
		plTab[i].m = make(map[uint64]string)
	}
}

// goid parses the current goroutine's ID from its stack header
// ("goroutine N [...]"). Go offers no public accessor; this is the
// standard portable fallback. It formats the whole traceback, so it
// costs microseconds on deep stacks: it runs only while some principal
// is bound, at most once per tagged fs operation.
func goid() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	// skip "goroutine "
	var id uint64
	for _, c := range buf[10:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// CurrentPrincipal returns the principal bound to this goroutine, or
// "" when none is bound.
func CurrentPrincipal() string {
	if plBound.Load() == 0 {
		return ""
	}
	g := goid()
	s := &plTab[g%plShards]
	s.mu.Lock()
	p := s.m[g]
	s.mu.Unlock()
	return p
}

// BoundPrincipals returns the number of live goroutine->principal
// bindings across all shards, expected to drain to zero once every
// bound operation has returned.
func BoundPrincipals() int {
	n := 0
	for i := range plTab {
		s := &plTab[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// WithPrincipal binds principal p to the calling goroutine while fn
// runs, restoring any previous binding afterwards; the restore is
// deferred, so panics and early returns unwind the table. An empty p
// just runs fn.
func WithPrincipal(p string, fn func()) {
	if p == "" {
		fn()
		return
	}
	g := goid()
	s := &plTab[g%plShards]
	s.mu.Lock()
	prev, had := s.m[g]
	s.m[g] = p
	s.mu.Unlock()
	plBound.Add(1)
	defer func() {
		s.mu.Lock()
		if had {
			s.m[g] = prev
		} else {
			delete(s.m, g)
		}
		s.mu.Unlock()
		plBound.Add(-1)
	}()
	fn()
}

// ---- account table ----------------------------------------------

// maxAccounts bounds one table's principal count. When a new
// principal would exceed it, the coldest evictable account is folded
// into OtherPrincipal (counters summed, latency histogram merged), so
// the table is bounded but cluster totals stay exact.
const maxAccounts = 64

type account struct {
	ops         atomic.Int64
	bytesIn     atomic.Int64 // written by the principal
	bytesOut    atomic.Int64 // read by the principal
	walBytes    atomic.Int64
	rpcs        atomic.Int64
	serverOps   atomic.Int64
	lockWaitNs  atomic.Int64
	cacheMisses atomic.Int64
	lat         *Histogram
}

func (a *account) total() int64 {
	return a.bytesIn.Load() + a.bytesOut.Load() + a.ops.Load()
}

// idle reports whether nothing has ever been charged to the account.
// Only the pre-created unknown account can be idle: every other
// account exists because some charge created it.
func (a *account) idle() bool {
	return a.ops.Load() == 0 && a.bytesIn.Load() == 0 && a.bytesOut.Load() == 0 &&
		a.walBytes.Load() == 0 && a.rpcs.Load() == 0 && a.serverOps.Load() == 0 &&
		a.lockWaitNs.Load() == 0 && a.cacheMisses.Load() == 0
}

// AccountStat is the exported per-principal summary: cumulative
// totals plus, after an Advance, the last closed window's deltas (the
// "right now" view a top display wants).
type AccountStat struct {
	Principal   string `json:"principal"`
	Ops         int64  `json:"ops"`
	BytesIn     int64  `json:"bytes_in"`
	BytesOut    int64  `json:"bytes_out"`
	WALBytes    int64  `json:"wal_bytes"`
	RPCs        int64  `json:"rpcs"`
	ServerOps   int64  `json:"server_ops"`
	LockWaitNs  int64  `json:"lock_wait_ns"`
	CacheMisses int64  `json:"cache_misses"`
	OpP50Ns     int64  `json:"op_p50_ns"`
	OpP99Ns     int64  `json:"op_p99_ns"`

	// Last closed window (zero until the first Advance).
	WinSeconds    float64 `json:"win_seconds,omitempty"`
	WinOps        int64   `json:"win_ops,omitempty"`
	WinBytesIn    int64   `json:"win_bytes_in,omitempty"`
	WinBytesOut   int64   `json:"win_bytes_out,omitempty"`
	WinLockWaitNs int64   `json:"win_lock_wait_ns,omitempty"`
	WinOpP99Ns    int64   `json:"win_op_p99_ns,omitempty"`
}

// Bytes returns the cumulative bytes moved either direction.
func (st AccountStat) Bytes() int64 { return st.BytesIn + st.BytesOut }

// WinBytes returns the last window's bytes moved either direction.
func (st AccountStat) WinBytes() int64 { return st.WinBytesIn + st.WinBytesOut }

// acctMark is one account's counter state at a window boundary.
type acctMark struct {
	ops, bytesIn, bytesOut, lockWaitNs int64
	hist                               histCounts
}

type acctWin struct {
	seconds                            float64
	ops, bytesIn, bytesOut, lockWaitNs int64
	p99                                int64
}

// AccountTable is the bounded per-principal accounting table. All
// recording methods are nil-safe no-ops (the ablation knob hands out
// a nil table), normalize an empty principal to UnknownPrincipal, and
// take only a short read lock on the hot path.
type AccountTable struct {
	now NowFunc

	// unknown is the reserved account for unattributed work. It is
	// never folded, so the pointer is stable for the table's lifetime;
	// caching it lets the common unbound charge skip the lock and map
	// lookup entirely.
	unknown *account

	mu    sync.RWMutex
	m     map[string]*account
	prevT int64
	prev  map[string]acctMark
	wins  map[string]acctWin
}

// NewAccountTable returns a standalone table (see NewCounter for the
// standalone-collector idiom). A nil now means wall time.
func NewAccountTable(now NowFunc) *AccountTable {
	if now == nil {
		now = wallNow
	}
	t := &AccountTable{
		now:     now,
		unknown: &account{lat: NewHistogram()},
		m:       make(map[string]*account),
		prev:    make(map[string]acctMark),
		wins:    make(map[string]acctWin),
	}
	t.m[UnknownPrincipal] = t.unknown
	t.prevT = now()
	return t
}

// get returns the principal's account, creating (and if necessary
// evicting) under the write lock.
func (t *AccountTable) get(p string) *account {
	if p == "" || p == UnknownPrincipal {
		return t.unknown
	}
	t.mu.RLock()
	a := t.m[p]
	t.mu.RUnlock()
	if a != nil {
		return a
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if a = t.m[p]; a != nil {
		return a
	}
	// Folding into a fresh other account does not shrink the table on
	// the first pass (one removed, one added), so loop until a slot is
	// actually free or nothing evictable remains.
	for len(t.m) >= maxAccounts && t.foldColdestLocked() {
	}
	a = &account{lat: NewHistogram()}
	t.m[p] = a
	return a
}

// foldColdestLocked folds the least active evictable account into
// OtherPrincipal: counters are summed and the latency histogram
// merged, so nothing the cluster did disappears from the totals —
// only its fine-grained identity is given up. The reserved unknown
// and other accounts are never folded.
func (t *AccountTable) foldColdestLocked() bool {
	var victim string
	var va *account
	for p, a := range t.m {
		if p == UnknownPrincipal || p == OtherPrincipal {
			continue
		}
		if va == nil || a.total() < va.total() {
			victim, va = p, a
		}
	}
	if va == nil {
		return false
	}
	other := t.m[OtherPrincipal]
	if other == nil {
		other = &account{lat: NewHistogram()}
		t.m[OtherPrincipal] = other
	}
	other.ops.Add(va.ops.Load())
	other.bytesIn.Add(va.bytesIn.Load())
	other.bytesOut.Add(va.bytesOut.Load())
	other.walBytes.Add(va.walBytes.Load())
	other.rpcs.Add(va.rpcs.Load())
	other.serverOps.Add(va.serverOps.Load())
	other.lockWaitNs.Add(va.lockWaitNs.Load())
	other.cacheMisses.Add(va.cacheMisses.Load())
	other.lat.absorb(va.lat)
	delete(t.m, victim)
	delete(t.prev, victim)
	delete(t.wins, victim)
	return true
}

// absorb adds src's observations into h (bucket-wise), for folding an
// evicted account's latency distribution into the other account.
func (h *Histogram) absorb(src *Histogram) {
	if h == nil || src == nil {
		return
	}
	for i := range src.buckets {
		if v := src.buckets[i].Load(); v != 0 {
			h.buckets[i].Add(v)
		}
	}
	h.count.Add(src.count.Load())
	h.sum.Add(src.sum.Load())
	for {
		m, cur := src.max.Load(), h.max.Load()
		if m <= cur || h.max.CompareAndSwap(cur, m) {
			return
		}
	}
}

// Op records one completed operation and its duration for principal p.
func (t *AccountTable) Op(p string, durNs int64) {
	if t == nil {
		return
	}
	a := t.get(p)
	a.ops.Add(1)
	a.lat.Record(durNs)
}

// Bytes records bytes written (in) and read (out) by principal p.
func (t *AccountTable) Bytes(p string, in, out int64) {
	if t == nil || (in <= 0 && out <= 0) {
		return
	}
	a := t.get(p)
	if in > 0 {
		a.bytesIn.Add(in)
	}
	if out > 0 {
		a.bytesOut.Add(out)
	}
}

// WAL records n log bytes appended on behalf of principal p.
func (t *AccountTable) WAL(p string, n int64) {
	if t == nil || n <= 0 {
		return
	}
	t.get(p).walBytes.Add(n)
}

// RPC records n RPCs issued on behalf of principal p.
func (t *AccountTable) RPC(p string, n int64) {
	if t == nil || n <= 0 {
		return
	}
	t.get(p).rpcs.Add(n)
}

// ServerOp records one server-side request handled for principal p
// (the principal arrives in the rpc envelope).
func (t *AccountTable) ServerOp(p string) {
	if t == nil {
		return
	}
	t.get(p).serverOps.Add(1)
}

// LockWait records ns spent waiting for a lock on behalf of p.
func (t *AccountTable) LockWait(p string, ns int64) {
	if t == nil || ns <= 0 {
		return
	}
	t.get(p).lockWaitNs.Add(ns)
}

// CacheMiss records n cache misses charged to principal p.
func (t *AccountTable) CacheMiss(p string, n int64) {
	if t == nil || n <= 0 {
		return
	}
	t.get(p).cacheMisses.Add(n)
}

// Len returns the number of tracked principals.
func (t *AccountTable) Len() int {
	if t == nil {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.m)
}

// Advance closes the window since the previous Advance (or since
// construction): per-principal deltas and a per-window op p99 via
// histogram bucket deltas, the same math WindowRing applies to named
// metrics. The results ride the next Snapshot's Win* fields.
func (t *AccountTable) Advance() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	secs := float64(now-t.prevT) / 1e9
	for p, a := range t.m {
		var cur acctMark
		cur.ops = a.ops.Load()
		cur.bytesIn = a.bytesIn.Load()
		cur.bytesOut = a.bytesOut.Load()
		cur.lockWaitNs = a.lockWaitNs.Load()
		cur.hist.buckets, cur.hist.count, cur.hist.sum = a.lat.counts()
		prev := t.prev[p]
		win := acctWin{
			seconds:    secs,
			ops:        cur.ops - prev.ops,
			bytesIn:    cur.bytesIn - prev.bytesIn,
			bytesOut:   cur.bytesOut - prev.bytesOut,
			lockWaitNs: cur.lockWaitNs - prev.lockWaitNs,
		}
		if dcount := cur.hist.count - prev.hist.count; dcount > 0 {
			var delta [numBuckets]int64
			var maxB int
			for i := range cur.hist.buckets {
				if d := cur.hist.buckets[i] - prev.hist.buckets[i]; d > 0 {
					delta[i] = d
					maxB = i
				}
			}
			_, hi := BucketBounds(maxB)
			wmax := hi - 1
			if cm := a.lat.Max(); wmax > cm {
				wmax = cm
			}
			win.p99 = quantileOf(delta[:], dcount, 0.99, wmax)
		}
		t.prev[p] = cur
		t.wins[p] = win
	}
	t.prevT = now
}

// Snapshot returns every account's cumulative totals plus the last
// closed window, sorted by total bytes moved (desc), ties by ops then
// principal name for determinism.
func (t *AccountTable) Snapshot() []AccountStat {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	out := make([]AccountStat, 0, len(t.m))
	for p, a := range t.m {
		if a.idle() {
			continue
		}
		st := AccountStat{
			Principal:   p,
			Ops:         a.ops.Load(),
			BytesIn:     a.bytesIn.Load(),
			BytesOut:    a.bytesOut.Load(),
			WALBytes:    a.walBytes.Load(),
			RPCs:        a.rpcs.Load(),
			ServerOps:   a.serverOps.Load(),
			LockWaitNs:  a.lockWaitNs.Load(),
			CacheMisses: a.cacheMisses.Load(),
			OpP50Ns:     a.lat.Quantile(0.50),
			OpP99Ns:     a.lat.Quantile(0.99),
		}
		if w, ok := t.wins[p]; ok {
			st.WinSeconds = w.seconds
			st.WinOps = w.ops
			st.WinBytesIn = w.bytesIn
			st.WinBytesOut = w.bytesOut
			st.WinLockWaitNs = w.lockWaitNs
			st.WinOpP99Ns = w.p99
		}
		out = append(out, st)
	}
	t.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Bytes() != b.Bytes() {
			return a.Bytes() > b.Bytes()
		}
		if a.Ops != b.Ops {
			return a.Ops > b.Ops
		}
		return a.Principal < b.Principal
	})
	return out
}

// RenderAccounts renders the per-principal table, top style: one row
// per principal, cumulative totals with the last window's rates when
// a window has been closed.
func RenderAccounts(stats []AccountStat) string {
	if len(stats) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "principals (%d):\n  %-16s %10s %12s %12s %10s %12s %9s %9s %12s\n",
		len(stats), "principal", "ops", "wr MB", "rd MB", "rpcs",
		"lockwait ms", "p99 ms", "misses", "now MB/s")
	for _, st := range stats {
		rate := "-"
		if st.WinSeconds > 0 {
			rate = fmt.Sprintf("%.2f", float64(st.WinBytes())/1e6/st.WinSeconds)
		}
		fmt.Fprintf(&b, "  %-16s %10d %12.2f %12.2f %10d %12.3f %9.3f %9d %12s\n",
			st.Principal, st.Ops,
			float64(st.BytesIn)/1e6, float64(st.BytesOut)/1e6,
			st.RPCs, float64(st.LockWaitNs)/1e6,
			float64(st.OpP99Ns)/1e6, st.CacheMisses, rate)
	}
	return b.String()
}
