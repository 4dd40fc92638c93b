package petal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"frangipani/internal/sim"
)

// testCluster spins up n Petal servers plus one client on a fresh
// world.
type testCluster struct {
	w       *sim.World
	servers []*Server
	client  *Client
}

func newTestCluster(t *testing.T, n int, mutate func(*ServerConfig)) *testCluster {
	t.Helper()
	w := sim.NewWorld(200, 3)
	var names []string
	for i := 0; i < n; i++ {
		names = append(names, fmt.Sprintf("p%d", i))
	}
	cfg := DefaultServerConfig(64 << 20) // 64 MB per disk
	cfg.NumDisks = 3
	// Timer granularity: at high compression, sub-millisecond real
	// periods are unreliable, so widen the detector timing in tests.
	cfg.HeartbeatEvery = 2 * time.Second
	cfg.SuspectAfter = 10 * time.Second
	if mutate != nil {
		mutate(&cfg)
	}
	tc := &testCluster{w: w}
	for _, name := range names {
		tc.servers = append(tc.servers, NewServer(w, name, names, cfg))
	}
	tc.client = NewClient(w, "ws0", names)
	t.Cleanup(func() {
		tc.client.Close()
		for _, s := range tc.servers {
			s.Close()
		}
		w.Stop()
	})
	return tc
}

func (tc *testCluster) mustCreate(t *testing.T, id VDiskID) *VDisk {
	t.Helper()
	if err := tc.client.CreateVDisk(id); err != nil {
		t.Fatalf("create vdisk: %v", err)
	}
	return tc.client.Open(id)
}

func patternBuf(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(seed) + i*7)
	}
	return b
}

func TestVDiskReadWriteRoundTrip(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	data := patternBuf(10000, 1)
	if err := d.WriteAt(data, 5000); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := d.ReadAt(got, 5000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestVDiskCrossChunkIO(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	// Span 3 chunks.
	data := patternBuf(2*ChunkSize+1234, 9)
	off := int64(ChunkSize - 100)
	if err := d.WriteAt(data, off); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := d.ReadAt(got, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-chunk round trip mismatch")
	}
}

func TestVDiskHolesReadZero(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	if err := d.WriteAt([]byte{0xFF}, 10*ChunkSize); err != nil {
		t.Fatal(err)
	}
	// A far-away hole, and the tail of the written chunk.
	got := make([]byte, 100)
	if err := d.ReadAt(got, 500*ChunkSize); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("hole did not read as zeros")
		}
	}
}

func TestSparseCommitAccounting(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	if err := d.WriteAt([]byte{1}, 0); err != nil {
		t.Fatal(err)
	}
	// One byte written: exactly one chunk committed on each of two
	// replicas ("physical storage allocated only on demand", §1).
	total := int64(0)
	for _, s := range tc.servers {
		total += s.CommittedBytes()
	}
	if total != 2*ChunkSize {
		t.Fatalf("committed %d bytes, want %d", total, 2*ChunkSize)
	}
	// Writing at a huge offset commits just one more chunk pair: the
	// 2^64 address space is sparse.
	if err := d.WriteAt([]byte{1}, int64(1)<<50); err != nil {
		t.Fatal(err)
	}
	// Anti-entropy may still be repairing a transiently-missed
	// forward; poll until both replicas of both chunks are committed.
	waitUntil(t, 60*time.Second, func() bool {
		total = 0
		for _, s := range tc.servers {
			total += s.CommittedBytes()
		}
		return total == 4*ChunkSize
	})
}

func TestDecommitFreesSpace(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	data := patternBuf(4*ChunkSize, 2)
	if err := d.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	before := int64(0)
	for _, s := range tc.servers {
		before += s.CommittedBytes()
	}
	if err := tc.client.Decommit(nil, "vol", 0, 4*ChunkSize); err != nil {
		t.Fatal(err)
	}
	after := int64(0)
	for _, s := range tc.servers {
		after += s.CommittedBytes()
	}
	if after >= before {
		t.Fatalf("decommit freed nothing: before=%d after=%d", before, after)
	}
	// Decommitted range reads as zeros.
	got := make([]byte, 1000)
	if err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("decommitted range not zero")
		}
	}
}

func TestVDiskErrors(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	if err := tc.client.CreateVDisk("vol"); err != nil {
		t.Fatal(err)
	}
	if err := tc.client.CreateVDisk("vol"); err == nil {
		t.Fatal("duplicate create succeeded")
	}
	if err := tc.client.Read(nil, "ghost", 0, make([]byte, 10)); err == nil {
		t.Fatal("read of missing vdisk succeeded")
	}
	if err := tc.client.DeleteVDisk("vol"); err != nil {
		t.Fatal(err)
	}
	if err := tc.client.Write(nil, "vol", 0, []byte{1}); err == nil {
		t.Fatal("write to deleted vdisk succeeded")
	}
}

func TestReadFailoverOnCrash(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	data := patternBuf(3*ChunkSize, 5)
	if err := d.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	// Crash one server; every chunk still has a live replica.
	tc.servers[1].Crash()
	got := make([]byte, len(data))
	if err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("failover read mismatch")
	}
}

func TestWriteFailoverAndRejoinSync(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")

	// Crash p1 and wait until the survivors have declared it dead so
	// writes are routed (and missed writes recorded) against fresh
	// state.
	tc.servers[1].Crash()
	waitUntil(t, 20*time.Second, func() bool {
		st := tc.servers[0].State()
		return !st.Alive["p1"]
	})

	data := patternBuf(8*ChunkSize, 7)
	if err := d.WriteAt(data, 0); err != nil {
		t.Fatalf("write with one server down: %v", err)
	}

	// Restart p1: it must resync missed chunks and come back alive.
	tc.servers[1].Restart()
	waitUntil(t, 60*time.Second, func() bool {
		st := tc.servers[0].State()
		return st.Alive["p1"]
	})

	// Now crash both OTHER servers. Chunks replicated on p1 must be
	// served — correct resync is the only way that read can succeed —
	// while chunks whose replica pair is (p0,p2) have no live copy
	// and must be unavailable, matching §6: "parts of the Petal
	// virtual disk will be inaccessible if there is no replica in the
	// majority partition".
	st := tc.servers[1].State()
	tc.servers[0].Crash()
	tc.servers[2].Crash()
	sawOnP1 := 0
	for c := int64(0); c < 8; c++ {
		r1, r2 := st.replicas("vol", c)
		got := make([]byte, ChunkSize)
		err := d.ReadAt(got, c*ChunkSize)
		if r1 == "p1" || r2 == "p1" {
			if err != nil {
				t.Fatalf("chunk %d on rejoined server unreadable: %v", c, err)
			}
			if !bytes.Equal(got, data[c*ChunkSize:(c+1)*ChunkSize]) {
				t.Fatalf("chunk %d stale after rejoin", c)
			}
			sawOnP1++
		} else if err == nil {
			t.Fatalf("chunk %d has no live replica but read succeeded", c)
		}
	}
	if sawOnP1 == 0 {
		t.Fatal("test vacuous: no chunk replicated on p1")
	}
}

func TestCRCErrorMaskedByReplication(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	data := patternBuf(ChunkSize, 3)
	if err := d.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	// Corrupt every sector of every disk on the primary replica of
	// chunk 0.
	st := tc.servers[0].State()
	primary, _ := st.replicas("vol", 0)
	for _, s := range tc.servers {
		if s.Name() != primary {
			continue
		}
		for _, disk := range s.Disks() {
			for sec := int64(0); sec < ChunkSize/sim.SectorSize; sec++ {
				disk.CorruptSector(sec)
			}
		}
	}
	got := make([]byte, ChunkSize)
	if err := d.ReadAt(got, 0); err != nil {
		t.Fatalf("read with corrupt primary: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read returned corrupt data")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	v1 := patternBuf(2*ChunkSize, 1)
	if err := d.WriteAt(v1, 0); err != nil {
		t.Fatal(err)
	}
	if err := tc.client.Snapshot("vol", "snap1"); err != nil {
		t.Fatal(err)
	}
	// Overwrite after the snapshot.
	v2 := patternBuf(2*ChunkSize, 99)
	if err := d.WriteAt(v2, 0); err != nil {
		t.Fatal(err)
	}
	// Parent sees new data; snapshot sees old data.
	got := make([]byte, len(v2))
	if err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		t.Fatal("parent does not see new data")
	}
	snap := tc.client.Open("snap1")
	if err := snap.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v1) {
		t.Fatal("snapshot does not see frozen data")
	}
	// Snapshots are read-only.
	if err := snap.WriteAt([]byte{1}, 0); err == nil {
		t.Fatal("write to snapshot succeeded")
	}
	// Data written only after the snapshot is invisible to it.
	if err := d.WriteAt([]byte{0xEE}, 10*ChunkSize); err != nil {
		t.Fatal(err)
	}
	one := make([]byte, 1)
	if err := snap.ReadAt(one, 10*ChunkSize); err != nil {
		t.Fatal(err)
	}
	if one[0] != 0 {
		t.Fatal("snapshot sees post-snapshot write")
	}
}

func TestSnapshotOfSnapshotAndChain(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	for i := 1; i <= 3; i++ {
		if err := d.WriteAt(patternBuf(1000, byte(i)), 0); err != nil {
			t.Fatal(err)
		}
		if err := tc.client.Snapshot("vol", VDiskID(fmt.Sprintf("s%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 3; i++ {
		got := make([]byte, 1000)
		if err := tc.client.Open(VDiskID(fmt.Sprintf("s%d", i))).ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, patternBuf(1000, byte(i))) {
			t.Fatalf("snapshot s%d does not hold generation %d", i, i)
		}
	}
	// Snapshotting a snapshot is rejected (read-only).
	if err := tc.client.Snapshot("s1", "s1s"); err == nil {
		t.Fatal("snapshot of a snapshot succeeded")
	}
}

func TestWriteGuardRejectsExpiredLease(t *testing.T) {
	tc := newTestCluster(t, 3, func(cfg *ServerConfig) {
		cfg.WriteGuard = func(req WriteReq, now int64) bool {
			return req.ExpireAt == 0 || req.ExpireAt > now
		}
	})
	d := tc.mustCreate(t, "vol")
	// Unstamped writes pass.
	if err := d.WriteAt([]byte{1}, 0); err != nil {
		t.Fatal(err)
	}
	// Expired lease is rejected.
	tc.client.SetLeaseInfo(func() (int64, uint64) { return 1, 42 }) // ancient
	err := d.WriteAt([]byte{2}, 0)
	if !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("err = %v, want ErrLeaseExpired", err)
	}
	// Valid lease passes.
	tc.client.SetLeaseInfo(func() (int64, uint64) {
		return int64(tc.w.Clock.Now()) + int64(time.Hour), 42
	})
	if err := d.WriteAt([]byte{3}, 0); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalStateApply(t *testing.T) {
	g := NewGlobalState([]string{"b", "a", "c"})
	if g.Servers[0] != "a" {
		t.Fatal("server list not sorted")
	}
	if err := g.Apply(CmdCreateVDisk{ID: "v"}); err != nil {
		t.Fatal(err)
	}
	if err := g.Apply(CmdCreateVDisk{ID: "v"}); !errors.Is(err, ErrVDiskExists) {
		t.Fatalf("err = %v", err)
	}
	if err := g.Apply(CmdSnapshot{Parent: "ghost", Snap: "s"}); !errors.Is(err, ErrNoSuchVDisk) {
		t.Fatalf("err = %v", err)
	}
	if err := g.Apply(CmdSnapshot{Parent: "v", Snap: "s"}); err != nil {
		t.Fatal(err)
	}
	if g.VDisks["v"].Epoch != 2 {
		t.Fatalf("parent epoch = %d, want 2", g.VDisks["v"].Epoch)
	}
	if m := g.VDisks["s"]; !m.ReadOnly || m.Parent != "v" || m.Parentance != 1 {
		t.Fatalf("snapshot meta = %+v", m)
	}
	if err := g.Apply(CmdSnapshot{Parent: "s", Snap: "s2"}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("err = %v", err)
	}
	g.Apply(CmdSetAlive{Server: "b", Alive: false})
	if g.Alive["b"] {
		t.Fatal("SetAlive not applied")
	}
	// Unknown server ignored.
	g.Apply(CmdSetAlive{Server: "zz", Alive: false})
	if _, ok := g.Alive["zz"]; ok {
		t.Fatal("unknown server added to liveness map")
	}
}

func TestReplicasStableAndDistinct(t *testing.T) {
	g := NewGlobalState([]string{"a", "b", "c", "d", "e"})
	g.Apply(CmdCreateVDisk{ID: "v"})
	counts := make(map[string]int)
	for c := int64(0); c < 1000; c++ {
		p1a, p2a := g.replicas("v", c)
		p1b, p2b := g.replicas("v", c)
		if p1a != p1b || p2a != p2b {
			t.Fatal("placement not deterministic")
		}
		if p1a == p2a {
			t.Fatal("replicas not distinct")
		}
		counts[p1a]++
	}
	// Placement must be reasonably balanced.
	for s, n := range counts {
		if n < 100 || n > 350 {
			t.Fatalf("server %s is primary for %d of 1000 chunks; badly unbalanced", s, n)
		}
	}
	// Snapshot chunks co-locate with the parent's.
	g.Apply(CmdSnapshot{Parent: "v", Snap: "s"})
	for c := int64(0); c < 50; c++ {
		pv, _ := g.replicas("v", c)
		ps, _ := g.replicas("s", c)
		if pv != ps {
			t.Fatal("snapshot placement differs from parent")
		}
	}
}

func TestSpansProperty(t *testing.T) {
	f := func(off uint32, length uint16) bool {
		o := int64(off)
		n := int(length)
		sp := spans(o, n)
		covered := 0
		pos := o
		for i, s := range sp {
			if s.length <= 0 || s.off < 0 || s.off+s.length > ChunkSize {
				return false
			}
			if s.chunk*ChunkSize+int64(s.off) != pos {
				return false
			}
			if s.bufOff != covered {
				return false
			}
			// Only the last span may end mid-chunk.
			if i < len(sp)-1 && s.off+s.length != ChunkSize {
				return false
			}
			covered += s.length
			pos += int64(s.length)
		}
		return covered == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreCOWAndTombstones(t *testing.T) {
	c := sim.NewClock(5000)
	d := sim.NewDisk(c, "d", sim.DefaultDiskParams(16<<20))
	st := newStore([]*sim.Disk{d}, nil)

	// Epoch 1: write; epoch 2 write must COW and preserve epoch 1.
	if err := st.writeChunk("v", 0, 1, 0, []byte{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := st.writeChunk("v", 0, 2, 1, []byte{2}); err != nil {
		t.Fatal(err)
	}
	old, ok, err := st.readChunk("v", 0, 1, 0, 3)
	if err != nil || !ok || !bytes.Equal(old, []byte{1, 1, 1}) {
		t.Fatalf("epoch-1 view = %v ok=%v err=%v", old, ok, err)
	}
	cur, ok, err := st.readChunk("v", 0, 2, 0, 3)
	if err != nil || !ok || !bytes.Equal(cur, []byte{1, 2, 1}) {
		t.Fatalf("epoch-2 view = %v ok=%v err=%v", cur, ok, err)
	}

	// Decommit at epoch 2 hides data from epoch >= 2 but epoch-1 views
	// still see it.
	st.decommit("v", 0, 2)
	if _, ok, _ := st.readChunk("v", 0, 2, 0, 3); ok {
		t.Fatal("decommitted chunk still visible at current epoch")
	}
	if got, ok, _ := st.readChunk("v", 0, 1, 0, 3); !ok || !bytes.Equal(got, []byte{1, 1, 1}) {
		t.Fatal("snapshot view lost after decommit")
	}

	// Decommit with no older epoch removes everything.
	if err := st.writeChunk("w", 5, 1, 0, []byte{9}); err != nil {
		t.Fatal(err)
	}
	before := st.committedBytes()
	st.decommit("w", 5, 1)
	if st.committedBytes() != before-ChunkSize {
		t.Fatal("simple decommit did not free the chunk")
	}
	if _, ok, _ := st.readChunk("w", 5, 1, 0, 1); ok {
		t.Fatal("decommitted chunk still readable")
	}
}

func waitUntil(t *testing.T, simDeadline time.Duration, f func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second) // real-time backstop
	for time.Now().Before(deadline) {
		if f() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached")
}
