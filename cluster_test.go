package frangipani_test

import (
	"errors"
	"io"
	"testing"

	"frangipani"
	"frangipani/internal/obs"
)

func newTestCluster(t *testing.T) *frangipani.Cluster {
	t.Helper()
	cfg := frangipani.DefaultClusterConfig()
	cfg.GuardWrites = true
	c, err := frangipani.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestClusterLifecycle(t *testing.T) {
	c := newTestCluster(t)
	ws1, err := c.AddServer("ws1")
	if err != nil {
		t.Fatal(err)
	}
	if c.Server("ws1") != ws1 {
		t.Fatal("Server() lookup failed")
	}
	if _, err := c.AddServer("ws1"); err == nil {
		t.Fatal("duplicate machine accepted")
	}
	if err := ws1.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveServer("ws1"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveServer("ws1"); err == nil {
		t.Fatal("double remove accepted")
	}
	// State persists across the server's life.
	ws2, err := c.AddServer("ws2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws2.Stat("/a"); err != nil {
		t.Fatalf("state lost across server remove/add: %v", err)
	}
}

func TestClusterSharedNamespace(t *testing.T) {
	c := newTestCluster(t)
	ws1, _ := c.AddServer("ws1")
	ws2, _ := c.AddServer("ws2")
	h, err := ws1.OpenFile("/data.bin", true)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("written on machine one")
	if _, err := h.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	h2, err := ws2.Open("/data.bin")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := h2.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("ws2 read %q", got)
	}
}

func TestClusterFsckOnIdle(t *testing.T) {
	c := newTestCluster(t)
	ws1, _ := c.AddServer("ws1")
	for _, p := range []string{"/x", "/y", "/z"} {
		if err := ws1.Create(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := ws1.Sync(); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck problems: %+v", rep.Problems)
	}
	if rep.Files != 3 || rep.Dirs != 1 {
		t.Fatalf("fsck counts: %+v", rep)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	cfg := frangipani.DefaultClusterConfig()
	cfg.PetalServers = 0
	if _, err := frangipani.NewCluster(cfg); err == nil {
		t.Fatal("zero petal servers accepted")
	}
	for _, cap := range []int{0, -4096} {
		cfg := frangipani.DefaultClusterConfig()
		cfg.JournalCap = cap
		if _, err := frangipani.NewCluster(cfg); err == nil {
			t.Fatalf("JournalCap=%d accepted", cap)
		}
	}
}

// TestClusterJournalCap checks a custom flight-recorder ring size
// actually bounds the per-server journals.
func TestClusterJournalCap(t *testing.T) {
	cfg := frangipani.DefaultClusterConfig()
	cfg.JournalCap = 8
	c, err := frangipani.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	jr := c.Obs().Journal("captest")
	for i := 0; i < 50; i++ {
		jr.Record("test", "fill", "ok", uint64(i), 0, "")
	}
	if n := jr.Len(); n != 8 {
		t.Fatalf("journal holds %d events, want ring cap 8", n)
	}
	evs := jr.Events()
	if first := evs[0].Key; first != 42 {
		t.Fatalf("oldest surviving event key %d, want 42 (ring of 8)", first)
	}
}

// TestClusterAccountingKnob checks NoAccounting suppresses the
// account table while plain clusters attribute bound work.
func TestClusterAccountingKnob(t *testing.T) {
	cfg := frangipani.DefaultClusterConfig()
	cfg.NoAccounting = true
	off, err := frangipani.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(off.Close)
	if off.Accounts() != nil {
		t.Fatal("NoAccounting cluster still has an account table")
	}

	c := newTestCluster(t)
	ws1, err := c.AddServer("ws1")
	if err != nil {
		t.Fatal(err)
	}
	h, err := ws1.OpenFile("/acct.bin", true)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64<<10)
	obs.WithPrincipal("tenant-a", func() {
		if _, err := h.WriteAt(payload, 0); err != nil {
			t.Fatal(err)
		}
	})
	stats := c.Accounts().Snapshot()
	var got *obs.AccountStat
	for i := range stats {
		if stats[i].Principal == "tenant-a" {
			got = &stats[i]
		}
	}
	if got == nil {
		t.Fatalf("tenant-a missing from account table: %+v", stats)
	}
	if got.BytesIn != int64(len(payload)) {
		t.Fatalf("tenant-a BytesIn = %d, want %d", got.BytesIn, len(payload))
	}
	if got.Ops == 0 || got.WALBytes == 0 {
		t.Fatalf("tenant-a ops/WAL not attributed: %+v", *got)
	}
}

func TestErrorsSurfaceThroughFacade(t *testing.T) {
	c := newTestCluster(t)
	ws1, _ := c.AddServer("ws1")
	if _, err := ws1.Stat("/missing"); !errors.Is(err, errNotExist(ws1)) {
		// fs.ErrNotExist is internal; just assert an error came back.
		if err == nil {
			t.Fatal("stat of missing path succeeded")
		}
	}
}

// errNotExist fishes the canonical not-exist error out via a probe.
func errNotExist(f *frangipani.FS) error {
	_, err := f.Stat("/definitely-not-here-either")
	return err
}

// TestWriteVFanOutChargesPrincipal checks that a principal-tagged
// write whose write-back WriteV fans out to several Petal primaries
// reaches every one of them with the principal: each primary's
// server-side span carries it, and each server charged it a server
// op. The fan-out runs on worker goroutines, so this only holds if
// the span is passed to them rather than found through a binding.
func TestWriteVFanOutChargesPrincipal(t *testing.T) {
	c := newTestCluster(t)
	ws1, err := c.AddServer("ws1")
	if err != nil {
		t.Fatal(err)
	}
	h, err := ws1.OpenFile("/fan.bin", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws1.Sync(); err != nil {
		t.Fatal(err)
	}
	const who = "tenant-fan"
	obs.WithPrincipal(who, func() {
		if _, err := h.WriteAt(make([]byte, 1<<20), 0); err != nil {
			t.Fatal(err)
		}
		if err := ws1.Sync(); err != nil {
			t.Fatal(err)
		}
	})
	tr := c.Obs().Tracer()
	spans := tr.SpansFor(tr.LastRoot())
	writev := map[uint64]bool{}
	for _, sp := range spans {
		if sp.Layer == "petal" && sp.Op == "writev" {
			writev[sp.ID] = true
		}
	}
	// Primaries are the server spans parented directly by a client
	// WriteV; replica forwards hang below them.
	primaries := 0
	for _, sp := range spans {
		if sp.Op != "server.writev" {
			continue
		}
		if sp.Principal != who {
			t.Errorf("server span %d charged to %q, want %q", sp.ID, sp.Principal, who)
		}
		if writev[sp.Parent] {
			primaries++
		}
	}
	if primaries < 2 {
		t.Fatalf("WriteV reached %d primaries, want >= 2 for a fan-out:\n%s", primaries, tr.RenderTrace(tr.LastRoot()))
	}
	var got obs.AccountStat
	for _, st := range c.Accounts().Snapshot() {
		if st.Principal == who {
			got = st
		}
	}
	if got.ServerOps < int64(primaries) {
		t.Fatalf("%s charged %d server ops, want >= %d (one per primary)", who, got.ServerOps, primaries)
	}
}
