package obs

import (
	"strings"
	"testing"
	"time"
)

// Slow-op dumps are individually size-bounded so maxSlowDumps of them
// cannot pin megabytes of rendered traces.
func TestSlowDumpTruncated(t *testing.T) {
	r := NewRegistry((&fakeClock{}).now)
	tr := r.Tracer()
	tr.SetSlowThreshold(time.Nanosecond)
	root := tr.Start(nil, "fs", "sync")
	for i := 0; i < 2000; i++ {
		tr.Start(root, "petal", "write-with-a-rather-long-operation-name").Done()
	}
	root.Done()
	dumps := tr.SlowDumps()
	if len(dumps) == 0 {
		t.Fatal("no slow dump captured")
	}
	d := dumps[len(dumps)-1]
	if len(d) > maxDumpBytes+64 {
		t.Fatalf("dump is %d bytes, cap is %d", len(d), maxDumpBytes)
	}
	if !strings.Contains(d, "truncated") {
		t.Fatal("oversized dump not marked truncated")
	}
}
