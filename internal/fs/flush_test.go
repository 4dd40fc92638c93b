package fs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestSyncConcurrentWithWrites drives the update demon path by hand
// while foreground writers keep dirtying pages, exercising the
// pipelined write-back (snapshot generations, scatter-gather
// dispatch, MarkFlushed) under the race detector. Every byte
// written must be readable afterwards, from this server and — after
// an unmount — from a fresh one.
func TestSyncConcurrentWithWrites(t *testing.T) {
	tw := newTestWorld(t)
	f := tw.mount(t, "m0", func(c *Config) {
		c.SyncEvery = time.Hour // we drive Sync ourselves
	})

	// One foreground writer (the FS serializes ops per server through
	// its lock clerk; cross-goroutine op concurrency is a non-goal) —
	// the interesting concurrency is writer vs. the sync demon.
	const (
		writers  = 1
		files    = 10
		fileSize = 48 << 10
	)
	var syncWG, writeWG sync.WaitGroup
	stop := make(chan struct{})
	syncWG.Add(1)
	go func() {
		defer syncWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := f.Sync(); err != nil {
				t.Errorf("sync: %v", err)
				return
			}
		}
	}()
	content := func(w, i int) []byte {
		return bytes.Repeat([]byte{byte(0x11*w + i + 1)}, fileSize)
	}
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < files; i++ {
				path := fmt.Sprintf("/w%d-%d", w, i)
				h, err := f.OpenFile(path, true)
				if err != nil {
					t.Errorf("open %s: %v", path, err)
					return
				}
				data := content(w, i)
				// Write in page-sized strides so the sync demon keeps
				// catching the file half-dirty.
				for off := 0; off < len(data); off += BlockSize {
					end := off + BlockSize
					if end > len(data) {
						end = len(data)
					}
					if _, err := h.WriteAt(data[off:end], int64(off)); err != nil {
						t.Errorf("write %s: %v", path, err)
						return
					}
				}
			}
		}(w)
	}
	writeWG.Wait()
	close(stop)
	syncWG.Wait()

	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < files; i++ {
			path := fmt.Sprintf("/w%d-%d", w, i)
			if got := readFile(t, f, path); !bytes.Equal(got, content(w, i)) {
				t.Fatalf("%s corrupted after concurrent sync", path)
			}
		}
	}
	st := f.Stats()
	if st.FlushBatches == 0 || st.FlushRuns == 0 || st.FlushPages == 0 {
		t.Fatalf("pipeline counters empty: %+v", st)
	}
	t.Logf("batches=%d runs=%d pages=%d peak=%d",
		st.FlushBatches, st.FlushRuns, st.FlushPages, st.FlushPeakInFlight)

	// A fresh server must see the same bytes (write-back actually
	// reached Petal, not just the cache).
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	f2 := tw.mount(t, "m1", nil)
	for w := 0; w < writers; w++ {
		for i := 0; i < files; i++ {
			path := fmt.Sprintf("/w%d-%d", w, i)
			if got := readFile(t, f2, path); !bytes.Equal(got, content(w, i)) {
				t.Fatalf("%s wrong on fresh mount", path)
			}
		}
	}
}

// TestDirtyEvictionUsesBatchPath writes a file with more dirty pages
// than the data cache holds (but fewer than the write-behind
// threshold), so the cache must evict dirty pages before any Sync.
// Those evictions go through the batched write-back path, and the
// bytes they wrote must survive on a second server.
func TestDirtyEvictionUsesBatchPath(t *testing.T) {
	tw := newTestWorld(t)
	f := tw.mount(t, "m0", func(c *Config) {
		c.DataCacheCap = 64
		c.SyncEvery = time.Hour // no update demon before the assertion
	})
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i*7 + i>>12)
	}
	writeFile(t, f, "/big", data)
	if st := f.Stats(); st.FlushBatches == 0 {
		t.Fatalf("dirty evictions bypassed the batch path: %+v", st)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f2 := tw.mount(t, "m1", nil)
	if got := readFile(t, f2, "/big"); !bytes.Equal(got, data) {
		t.Fatal("file differs on the second server")
	}
	rep, err := Check(tw.client("chk"), tw.vd, tw.lay)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Problems {
		t.Errorf("fsck: %s %s", p.Kind, p.Msg)
	}
}
