package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic NowFunc for trace tests.
type fakeClock struct {
	mu sync.Mutex
	t  int64
}

func (c *fakeClock) now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += 1e6 // 1ms per observation
	return c.t
}

func TestSpanTreeStructure(t *testing.T) {
	r := NewRegistry((&fakeClock{}).now)
	tr := r.Tracer()

	root := tr.Start(nil, "fs", "sync")
	root.Principal = "alice"
	if root.TraceID != root.ID || root.Parent != 0 {
		t.Fatalf("root span malformed: %+v", root)
	}
	child := tr.Start(root, "wal", "flush")
	if child.TraceID != root.TraceID || child.Parent != root.ID {
		t.Fatalf("child not parented: %+v", child)
	}
	g := tr.Child(child, "petal", "write")
	if g.Parent != child.ID || g.TraceID != root.TraceID {
		t.Fatalf("grandchild not parented: %+v", g)
	}
	if g.Who() != "alice" {
		t.Fatalf("grandchild principal %q, want alice", g.Who())
	}
	g.Done()
	child.Done()
	root.Done()

	spans := tr.SpansFor(root.TraceID)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	out := tr.RenderTrace(root.TraceID)
	for _, want := range []string{"fs.sync", "wal.flush", "petal.write"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// petal.write must be indented deeper than wal.flush.
	if strings.Index(out, "    wal.flush") < 0 || strings.Index(out, "      petal.write") < 0 {
		t.Errorf("tree indentation wrong:\n%s", out)
	}
}

func TestChildRequiresBinding(t *testing.T) {
	r := NewRegistry((&fakeClock{}).now)
	tr := r.Tracer()
	if sp := tr.Child(nil, "wal", "flush"); sp != nil {
		t.Fatal("Child outside any trace must return nil")
	}
	// A principal-only stub records nothing but still carries the
	// principal to the layers below.
	stub := Remote(0, 0, "bob")
	if sp := tr.Child(stub, "wal", "flush"); sp != stub {
		t.Fatalf("Child of an untraced stub = %+v, want the stub", sp)
	}
	root := tr.Start(nil, "fs", "write")
	if sp := tr.Child(root, "wal", "flush"); sp == nil {
		t.Fatal("Child inside a trace must return a span")
	} else {
		sp.Done()
	}
	root.Done()
	if n := len(tr.SpansFor(root.TraceID)); n != 2 {
		t.Fatalf("trace has %d spans, want 2", n)
	}
}

func TestRemoteParenting(t *testing.T) {
	r := NewRegistry((&fakeClock{}).now)
	tr := r.Tracer()
	// Simulate the receive side of an rpc carrying trace context.
	stub := Remote(42, 7, "carol")
	sp := tr.Start(stub, "petal", "server.write")
	sp.Done()
	if sp.TraceID != 42 || sp.Parent != 7 || sp.Principal != "carol" {
		t.Fatalf("remote-parented span: %+v", sp)
	}
	if Remote(0, 9, "") != nil {
		t.Fatal("Remote with zero trace ID and no principal must be nil")
	}
}

func TestSlowDumps(t *testing.T) {
	r := NewRegistry((&fakeClock{}).now)
	tr := r.Tracer()
	tr.SetSlowThreshold(500 * time.Microsecond) // every op is "slow" on the fake clock
	sp := tr.Start(nil, "fs", "create")
	sp.Done()
	dumps := tr.SlowDumps()
	if len(dumps) != 1 || !strings.Contains(dumps[0], "fs.create") {
		t.Fatalf("slow dump not captured: %q", dumps)
	}
	if tr.LastRoot() != sp.TraceID {
		t.Fatalf("LastRoot %d, want %d", tr.LastRoot(), sp.TraceID)
	}
	// Dumps ring must stay bounded.
	for i := 0; i < 3*maxSlowDumps; i++ {
		s := tr.Start(nil, "fs", "create")
		s.Done()
	}
	if n := len(tr.SlowDumps()); n > maxSlowDumps {
		t.Fatalf("%d dumps retained, cap is %d", n, maxSlowDumps)
	}
}

func TestConcurrentTracing(t *testing.T) {
	r := NewRegistry(nil) // wall clock
	tr := r.Tracer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				root := tr.Start(nil, "fs", "op")
				c := tr.Child(root, "wal", "append")
				if c.TraceID != root.TraceID || c.Parent != root.ID {
					t.Error("child joined another goroutine's trace")
				}
				c.Done()
				root.Done()
			}
		}()
	}
	wg.Wait()
}

func TestRingEviction(t *testing.T) {
	r := NewRegistry((&fakeClock{}).now)
	tr := r.Tracer()
	first := tr.Start(nil, "fs", "op")
	first.Done()
	for i := 0; i < ringSpans+10; i++ {
		sp := tr.Start(nil, "fs", "op")
		sp.Done()
	}
	if got := tr.SpansFor(first.TraceID); len(got) != 0 {
		t.Fatalf("evicted span still visible: %v", got)
	}
}
