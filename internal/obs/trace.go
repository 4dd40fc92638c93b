package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed region of a trace, and the context an operation
// passes down the stack as an explicit argument. A root span has
// ID == TraceID; children share the root's TraceID and point at their
// parent's ID. Spans created by Remote carry context received over
// the wire and are never recorded themselves — they only parent the
// receiver's own spans.
type Span struct {
	TraceID uint64
	ID      uint64
	Parent  uint64
	Layer   string
	Op      string
	// Principal is the client or tenant the operation runs for. Child
	// spans and Remote stubs copy it, so every layer charges its work
	// to the principal of the span it was handed.
	Principal string
	Start     int64 // ns on the tracer's clock
	End       int64 // ns; 0 until Done

	tr *Tracer
}

// Who returns the span's principal; "" (charged as unknown) for a nil
// span.
func (sp *Span) Who() string {
	if sp == nil {
		return ""
	}
	return sp.Principal
}

// Duration is End-Start; valid after Done.
func (sp *Span) Duration() int64 {
	if sp == nil {
		return 0
	}
	return sp.End - sp.Start
}

// Done stamps the end time and records the span into the tracer's
// ring. If the span is a trace root and the whole trace took at
// least the slow-op threshold, a rendered dump of the tree is kept.
func (sp *Span) Done() {
	if sp == nil || sp.tr == nil {
		return
	}
	t := sp.tr
	sp.End = t.now()
	t.mu.Lock()
	t.ring[t.pos] = *sp
	t.pos = (t.pos + 1) % len(t.ring)
	if t.size < len(t.ring) {
		t.size++
	}
	if sp.ID == sp.TraceID {
		t.lastRoot = sp.TraceID
		if thr := t.slow.Load(); thr > 0 && sp.Duration() >= thr {
			dump := t.renderLocked(sp.TraceID)
			// Bound each retained dump: a pathological trace can have
			// thousands of ring-resident spans, and maxSlowDumps of
			// those must not pin megabytes.
			if len(dump) > maxDumpBytes {
				dump = dump[:maxDumpBytes] + "\n  ... (dump truncated)\n"
			}
			t.dumps = append(t.dumps, dump)
			if len(t.dumps) > maxSlowDumps {
				t.dumps = t.dumps[len(t.dumps)-maxSlowDumps:]
			}
		}
	}
	t.mu.Unlock()
}

const (
	ringSpans    = 8192
	maxSlowDumps = 16
	maxDumpBytes = 16 << 10 // per-dump cap; total dump memory <= 16*16 KB
)

// Tracer allocates span IDs and collects completed spans in a ring
// buffer for rendering.
type Tracer struct {
	now  NowFunc
	ids  atomic.Uint64
	slow atomic.Int64 // ns threshold for slow-op dumps; 0 = off

	mu       sync.Mutex
	ring     []Span
	pos      int
	size     int
	lastRoot uint64
	dumps    []string
}

func newTracer(now NowFunc) *Tracer {
	return &Tracer{now: now, ring: make([]Span, ringSpans)}
}

// SetSlowThreshold enables slow-op dumps for root spans lasting at
// least d (0 disables).
func (t *Tracer) SetSlowThreshold(d time.Duration) {
	if t != nil {
		t.slow.Store(int64(d))
	}
}

// Start begins a span under parent, inheriting its principal. A nil
// parent, or one that carries no trace, roots a fresh trace.
func (t *Tracer) Start(parent *Span, layer, op string) *Span {
	if t == nil {
		return nil
	}
	id := t.ids.Add(1)
	sp := &Span{TraceID: id, ID: id, Layer: layer, Op: op, Start: t.now(), tr: t}
	if parent != nil {
		sp.Principal = parent.Principal
		if parent.TraceID != 0 {
			sp.TraceID, sp.Parent = parent.TraceID, parent.ID
		}
	}
	return sp
}

// Child is like Start but records nothing outside a trace: sub-layer
// operations (wal flushes, petal RPCs, lease checks) only produce
// spans inside a traced operation, so background write-behind traffic
// does not flood the ring with single-span root traces. A nil parent
// gives nil; an untraced parent (a principal-only stub) is returned
// as is, so its principal still reaches the layers below.
func (t *Tracer) Child(parent *Span, layer, op string) *Span {
	if t == nil {
		return nil
	}
	if parent == nil || parent.TraceID == 0 {
		return parent
	}
	return t.Start(parent, layer, op)
}

// Remote reconstructs a parent span stub from the context received
// over the wire. The stub is never recorded; it parents the spans the
// receiver starts and carries the sender's principal. It is nil when
// the sender had neither a trace nor a principal.
func Remote(traceID, spanID uint64, principal string) *Span {
	if traceID == 0 && principal == "" {
		return nil
	}
	return &Span{TraceID: traceID, ID: spanID, Principal: principal}
}

// LastRoot returns the trace ID of the most recently completed root
// span, or 0.
func (t *Tracer) LastRoot() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastRoot
}

// SpansFor returns copies of all ring-resident spans of one trace.
func (t *Tracer) SpansFor(traceID uint64) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for i := 0; i < t.size; i++ {
		if t.ring[i].TraceID == traceID {
			out = append(out, t.ring[i])
		}
	}
	return out
}

// Roots returns the trace IDs of completed root spans resident in
// the ring, most recent first, at most max of them (0 means all).
// It feeds the critical-path analyzer: every returned trace has its
// root's full interval available for attribution.
func (t *Tracer) Roots(max int) []uint64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []uint64
	// Walk the ring newest to oldest: pos-1 is the most recent write.
	for i := 0; i < t.size; i++ {
		idx := (t.pos - 1 - i + len(t.ring)) % len(t.ring)
		sp := t.ring[idx]
		if sp.ID == sp.TraceID && sp.ID != 0 {
			out = append(out, sp.TraceID)
			if max > 0 && len(out) >= max {
				break
			}
		}
	}
	return out
}

// SlowDumps returns the retained slow-op trace dumps, oldest first.
func (t *Tracer) SlowDumps() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.dumps...)
}

// RenderTrace renders one trace's span tree as indented text:
//
//	trace 42 (total 12.3ms)
//	  fs.sync             +0.000ms  12.300ms
//	    wal.flush         +0.100ms   2.000ms
//
// Columns are offset from the trace root's start and span duration.
func (t *Tracer) RenderTrace(traceID uint64) string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.renderLocked(traceID)
}

func (t *Tracer) renderLocked(traceID uint64) string {
	var spans []Span
	for i := 0; i < t.size; i++ {
		if t.ring[i].TraceID == traceID {
			spans = append(spans, t.ring[i])
		}
	}
	if len(spans) == 0 {
		return fmt.Sprintf("trace %d: no spans\n", traceID)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	present := make(map[uint64]bool, len(spans))
	for _, sp := range spans {
		present[sp.ID] = true
	}
	children := make(map[uint64][]Span)
	var roots []Span
	base := spans[0].Start
	var total int64
	for _, sp := range spans {
		if sp.Start < base {
			base = sp.Start
		}
		if sp.End-base > total {
			total = sp.End - base
		}
		// A span whose parent is missing from the ring (evicted, or
		// a wire-level stub) renders as a top-level subtree.
		if sp.Parent != 0 && present[sp.Parent] {
			children[sp.Parent] = append(children[sp.Parent], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %d (total %.3fms, %d spans)\n",
		traceID, float64(total)/1e6, len(spans))
	var walk func(sp Span, depth int)
	walk = func(sp Span, depth int) {
		name := sp.Layer + "." + sp.Op
		fmt.Fprintf(&b, "  %s%-*s +%.3fms  %.3fms\n",
			strings.Repeat("  ", depth), 28-2*depth, name,
			float64(sp.Start-base)/1e6, float64(sp.Duration())/1e6)
		for _, ch := range children[sp.ID] {
			walk(ch, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}
