package localfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"frangipani/internal/sim"
)

func newFS(t *testing.T) *FS {
	t.Helper()
	w := sim.NewWorld(1000, 3)
	cfg := DefaultConfig()
	cfg.DiskParams = sim.DefaultDiskParams(64 << 20)
	f := New(w, "adv", cfg)
	t.Cleanup(func() {
		f.Close()
		w.Stop()
	})
	return f
}

func TestNamespaceOps(t *testing.T) {
	f := newFS(t)
	if err := f.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := f.Create("/d/x"); err != nil {
		t.Fatal(err)
	}
	if err := f.Create("/d/x"); !errors.Is(err, ErrExist) {
		t.Fatalf("dup create: %v", err)
	}
	info, err := f.Stat("/d/x")
	if err != nil || info.IsDir {
		t.Fatalf("stat: %+v %v", info, err)
	}
	ents, err := f.ReadDir("/d")
	if err != nil || len(ents) != 1 || ents[0].Name != "x" {
		t.Fatalf("readdir: %v %v", ents, err)
	}
	if err := f.Rename("/d/x", "/y"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat("/d/x"); !errors.Is(err, ErrNotExist) {
		t.Fatal("rename left source")
	}
	if err := f.Rmdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := f.Remove("/y"); err != nil {
		t.Fatal(err)
	}
	if err := f.Rmdir("/nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("rmdir missing: %v", err)
	}
}

func TestFileIO(t *testing.T) {
	f := newFS(t)
	h, err := f.OpenFile("/f", true)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 200<<10) // spans several stripe units
	for i := range data {
		data[i] = byte(i * 31)
	}
	if _, err := h.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if n, err := h.ReadAt(got, 0); err != nil && err != io.EOF || n != len(data) {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	// Durability through cache eviction: force a sync, drop pages by
	// overfilling, then re-read.
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ReadAt(got[:100], int64(len(data))); err != io.EOF {
		t.Fatalf("EOF read: %v", err)
	}
}

func TestEvictionWriteback(t *testing.T) {
	w := sim.NewWorld(2000, 3)
	defer w.Stop()
	cfg := DefaultConfig()
	cfg.DiskParams = sim.DefaultDiskParams(64 << 20)
	cfg.CacheCap = 8 // tiny cache forces eviction
	f := New(w, "adv", cfg)
	defer f.Close()
	h, err := f.OpenFile("/f", true)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64*PageSize)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if _, err := h.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := h.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data lost through eviction")
	}
}

func TestStripingSpreadsDisks(t *testing.T) {
	f := newFS(t)
	h, _ := f.OpenFile("/big", true)
	data := make([]byte, 8*StripeSize)
	if _, err := h.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	used := 0
	for _, d := range f.disks {
		if _, w, _, _ := d.Stats(); w > 0 {
			used++
		}
	}
	if used < 4 {
		t.Fatalf("writes hit only %d disks; striping ineffective", used)
	}
}

func TestManySmallFiles(t *testing.T) {
	f := newFS(t)
	for i := 0; i < 100; i++ {
		path := fmt.Sprintf("/s%d", i)
		h, err := f.OpenFile(path, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt([]byte("tiny"), 0); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := f.ReadDir("/")
	if err != nil || len(ents) != 100 {
		t.Fatalf("readdir: %d err=%v", len(ents), err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseStopsGoroutines checks Close leaves no goroutine behind:
// the sync demon and every NVRAM destager exit, so the goroutine
// count returns to its level from before New.
func TestCloseStopsGoroutines(t *testing.T) {
	w := sim.NewWorld(1000, 3)
	defer w.Stop()
	cfg := DefaultConfig()
	cfg.DiskParams = sim.DefaultDiskParams(64 << 20)
	cfg.NVRAM = 1 << 20
	base := runtime.NumGoroutine()
	f := New(w, "adv", cfg)
	h, err := f.OpenFile("/f", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(make([]byte, 4*PageSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n < base+cfg.NumDisks {
		t.Fatalf("%d goroutines while mounted, want at least %d (one destager per disk)", n, base+cfg.NumDisks)
	}
	f.Close()
	// The sync ticker's goroutine exits asynchronously after its
	// cancel; the destagers have already exited when Close returns.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Close, baseline %d", n, base)
	}
}
