package frangipani_test

import (
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"frangipani"
)

// TestCloseLeavesNoGoroutines drives every path that starts a
// background goroutine in the file server — a prefetching sequential
// read, a write burst past the write-behind threshold and a
// cross-server revoke — and closes the cluster while the last
// prefetch and write-behind may still be in flight. The goroutine
// count must be back at its baseline within 100 ms of Close.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	// At compression 1 a simulated timeout is as long as a real one,
	// so a goroutine that merely waits out an RPC timeout after Close
	// shows up as a leak, as it does in perfbench.
	cfg := frangipani.DefaultClusterConfig()
	cfg.Compression = 1
	c, err := frangipani.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			c.Close()
		}
	}()
	ws1, err := c.AddServer("ws1")
	if err != nil {
		t.Fatal(err)
	}
	ws2, err := c.AddServer("ws2")
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 64<<10)
	writeBurst := func(path string, size int) {
		t.Helper()
		h, err := ws1.OpenFile(path, true)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < size; off += len(chunk) {
			for i := range chunk {
				chunk[i] = byte(off/len(chunk) + i)
			}
			if _, err := h.WriteAt(chunk, int64(off)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// readSeq reads a file on ws2 in sequential 64 KB steps, which
	// starts ws2's read-ahead, and stops after max bytes.
	readSeq := func(path string, max int64) {
		t.Helper()
		h, err := ws2.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64<<10)
		for off := int64(0); off < max; off += int64(len(buf)) {
			if _, err := h.ReadAt(buf, off); err == io.EOF {
				return
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}

	// ws1 holds /shared dirty under an exclusive lock; ws2's read
	// revokes it, so ws1 writes the pages back and downgrades.
	writeBurst("/shared", 1<<20)
	readSeq("/shared", 1<<20)
	if st := ws2.Stats(); st.ReadAheadHits+st.ReadAheadWasted == 0 {
		t.Fatalf("sequential read never prefetched: %+v", ws2.Stats())
	}
	// 3 MB of dirty pages crosses the 2 MB write-behind threshold;
	// the last write-behind flush and ws2's new read pass are still
	// running when the cluster closes.
	writeBurst("/burst", 3<<20)
	if st := ws1.Stats(); st.FlushBatches == 0 {
		t.Fatalf("write burst never flushed: %+v", st)
	}
	readSeq("/shared", 3*64<<10)
	c.Close()
	closed = true

	deadline := time.Now().Add(100 * time.Millisecond)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		stacks := make([]byte, 1<<20)
		stacks = stacks[:runtime.Stack(stacks, true)]
		var leaked []string
		for _, g := range strings.Split(string(stacks), "\n\n") {
			if !strings.Contains(g, "testing.") {
				leaked = append(leaked, g)
			}
		}
		t.Fatalf("%d goroutines 100 ms after Close, baseline %d:\n%s", n, base, strings.Join(leaked, "\n\n"))
	}
}
