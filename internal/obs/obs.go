// Package obs is a zero-dependency metrics and tracing layer shared
// by every Frangipani subsystem.
//
// It provides a Registry of race-safe named counters, gauges, and
// log-bucketed latency histograms, plus a Tracer whose spans are
// passed down the stack as an explicit argument and through rpc
// message headers, so a single file-system operation can be followed
// fs -> wal -> lockservice -> petal across machines. The registry is clock-agnostic: simulated runs plug in
// sim.Clock time, TCP deployments use wall time.
//
// Metric names follow the convention "layer.op.metric", with a
// "#instance" suffix when several servers share one registry, e.g.
// "fs.sync.latency#ws1" or "cache.hits#ws1.meta".
//
// All methods are nil-safe: a nil *Registry hands out nil collectors
// and a nil *Tracer hands out nil spans, all of whose methods are
// no-ops, so instrumented code never needs to branch on whether
// observability is wired up.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// NowFunc returns the current time in nanoseconds on whatever clock
// the deployment runs on (simulated or wall).
type NowFunc func() int64

// Counter is a monotonically increasing race-safe counter.
type Counter struct {
	v atomic.Int64
}

// NewCounter returns a standalone counter not attached to any
// registry. Components that may run unwired (unit tests, bare
// constructors) start with standalone collectors and swap in
// registry-backed ones when observability is attached.
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a race-safe instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// NewGauge returns a standalone gauge (see NewCounter).
func NewGauge() *Gauge { return &Gauge{} }

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the value by n (may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// SetMax raises the gauge to n if n is larger (high-water mark).
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds all named metrics for one deployment (one sim
// World, or one process in a TCP deployment) plus its Tracer.
type Registry struct {
	now NowFunc
	tr  *Tracer

	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	restabs    map[string]*ResourceTable
	journals   map[string]*Journal
	journalOff bool
	journalCap int
	accounts   *AccountTable
	acctOff    bool
}

// NewRegistry builds a registry on the given clock. A nil now means
// wall time.
func NewRegistry(now NowFunc) *Registry {
	if now == nil {
		now = func() int64 { return time.Now().UnixNano() }
	}
	return &Registry{
		now:      now,
		tr:       newTracer(now),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		restabs:  make(map[string]*ResourceTable),
		journals: make(map[string]*Journal),
	}
}

// Now returns the registry's notion of current time in nanoseconds.
// On a nil registry it falls back to wall time.
func (r *Registry) Now() int64 {
	if r == nil {
		return time.Now().UnixNano()
	}
	return r.now()
}

// Tracer returns the registry's span tracer (nil on a nil registry).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tr
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = NewCounter()
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = NewGauge()
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Resources returns the named per-resource contention table, creating
// it on first use (e.g. "lockservice.locks" for the hot-lock table).
func (r *Registry) Resources(name string) *ResourceTable {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	t := r.restabs[name]
	r.mu.RUnlock()
	if t != nil {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t = r.restabs[name]; t == nil {
		t = newResourceTable()
		r.restabs[name] = t
	}
	return t
}

// Accounts returns the registry's per-principal account table,
// creating it on first use on the registry's clock. Returns nil when
// accounting is disabled (SetAccounting) — every AccountTable method
// is nil-safe, so the ablation knob costs callers nothing.
func (r *Registry) Accounts() *AccountTable {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	t, off := r.accounts, r.acctOff
	r.mu.RUnlock()
	if off {
		return nil
	}
	if t != nil {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.accounts == nil {
		r.accounts = NewAccountTable(r.now)
	}
	return r.accounts
}

// SetAccounting enables or disables per-principal accounting.
// Disabling makes Accounts return nil. Call before components are
// wired: they capture the pointer once at construction.
func (r *Registry) SetAccounting(on bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.acctOff = !on
	r.mu.Unlock()
}

// names returns the sorted metric names of one kind, for snapshots.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
