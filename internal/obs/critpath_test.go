package obs

import (
	"strings"
	"testing"
)

func mkSpan(trace, id, parent uint64, layer, op string, start, end int64) Span {
	return Span{TraceID: trace, ID: id, Parent: parent, Layer: layer, Op: op, Start: start, End: end}
}

// Overlapping concurrent siblings must partition, not double count:
// the overlap goes to the earlier-starting span and the attributed
// total equals the root duration exactly.
func TestCritPathPartitionsOverlappingSiblings(t *testing.T) {
	cp := NewCritPath()
	cp.AddTrace([]Span{
		mkSpan(1, 1, 0, "fs", "sync", 0, 100),
		mkSpan(1, 2, 1, "wal", "flush", 10, 40),
		mkSpan(1, 3, 1, "petal", "write", 30, 80),
	})
	if got := cp.Coverage("fs.sync"); got != 1 {
		t.Fatalf("coverage = %v, want exactly 1", got)
	}
	want := map[string]int64{
		"wal.flush":   30, // [10,40)
		"petal.write": 40, // [40,80): overlap [30,40) went to wal.flush
		"fs.sync":     30, // 100 - 70 covered
	}
	for _, e := range cp.Profile("fs.sync") {
		if e.SelfNs != want[e.Name] {
			t.Errorf("%s self = %d, want %d", e.Name, e.SelfNs, want[e.Name])
		}
		delete(want, e.Name)
	}
	if len(want) != 0 {
		t.Fatalf("missing entries: %v", want)
	}
}

// A child outliving its parent window (background completion) is
// clipped; a sibling fully shadowed by an earlier one contributes
// nothing.
func TestCritPathClipsAndShadows(t *testing.T) {
	cp := NewCritPath()
	cp.AddTrace([]Span{
		mkSpan(7, 7, 0, "fs", "write", 0, 100),
		mkSpan(7, 8, 7, "petal", "write", 90, 150), // clipped to [90,100)
		mkSpan(7, 9, 7, "wal", "append", 92, 98),   // fully shadowed by sibling 8
	})
	if got := cp.Coverage("fs.write"); got != 1 {
		t.Fatalf("coverage = %v, want 1", got)
	}
	prof := cp.Profile("fs.write")
	self := map[string]int64{}
	for _, e := range prof {
		self[e.Name] = e.SelfNs
	}
	if self["fs.write"] != 90 || self["petal.write"] != 10 {
		t.Fatalf("bad attribution: %+v", self)
	}
	if _, ok := self["wal.append"]; ok {
		t.Fatal("shadowed sibling must contribute nothing")
	}
}

// Grandchildren subtract from their parent, not the root.
func TestCritPathNesting(t *testing.T) {
	cp := NewCritPath()
	cp.AddTrace([]Span{
		mkSpan(3, 3, 0, "fs", "sync", 0, 100),
		mkSpan(3, 4, 3, "wal", "flush", 20, 80),
		mkSpan(3, 5, 4, "petal", "write", 30, 60),
	})
	self := map[string]int64{}
	for _, e := range cp.Profile("fs.sync") {
		self[e.Name] = e.SelfNs
	}
	if self["fs.sync"] != 40 || self["wal.flush"] != 30 || self["petal.write"] != 30 {
		t.Fatalf("bad attribution: %+v", self)
	}
}

// Spans whose parent was evicted from the ring are skipped entirely
// so coverage never exceeds 1.
func TestCritPathSkipsOrphans(t *testing.T) {
	cp := NewCritPath()
	cp.AddTrace([]Span{
		mkSpan(5, 5, 0, "fs", "read", 0, 50),
		mkSpan(5, 6, 999, "petal", "read", 0, 50), // parent not in slice
	})
	if got := cp.Coverage("fs.read"); got != 1 {
		t.Fatalf("coverage = %v, want 1", got)
	}
	if prof := cp.Profile("fs.read"); len(prof) != 1 || prof[0].Name != "fs.read" {
		t.Fatalf("orphan leaked into profile: %+v", prof)
	}
}

func TestCritPathFromTracer(t *testing.T) {
	r := NewRegistry((&fakeClock{}).now)
	tr := r.Tracer()
	for i := 0; i < 3; i++ {
		root := tr.Start(nil, "fs", "sync")
		tr.Start(root, "wal", "flush").Done()
		root.Done()
	}
	cp := NewCritPath()
	cp.AddTracer(tr, 0)
	if got := cp.Count("fs.sync"); got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
	ops := cp.RootOps()
	if len(ops) != 1 || ops[0] != "fs.sync" {
		t.Fatalf("RootOps = %v", ops)
	}
	if cov := cp.Coverage("fs.sync"); cov < 0.99 || cov > 1.01 {
		t.Fatalf("coverage = %v", cov)
	}
	if cp.MeanNs("fs.sync") <= 0 {
		t.Fatal("mean must be positive")
	}
	rep := cp.Report()
	for _, want := range []string{"fs.sync", "wal.flush", "attributed"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestCritPathNilAndEmpty(t *testing.T) {
	var cp *CritPath
	cp.AddTrace(nil)
	if cp.Report() != "" || cp.RootOps() != nil || cp.Coverage("x") != 0 {
		t.Fatal("nil CritPath must be inert")
	}
	cp2 := NewCritPath()
	cp2.AddTrace([]Span{mkSpan(1, 2, 1, "fs", "x", 0, 10)}) // no root
	if len(cp2.RootOps()) != 0 {
		t.Fatal("rootless trace must be ignored")
	}
}
