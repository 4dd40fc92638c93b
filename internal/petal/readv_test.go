package petal

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"frangipani/internal/sim"
)

// TestReadVRoundTripBatchesRPCs: a scatter-gather read of many chunk
// extents collapses into at most one RPC per Petal server, and the
// data round-trips.
func TestReadVRoundTripBatchesRPCs(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	const chunks = 24
	want := make([][]byte, chunks)
	for i := 0; i < chunks; i++ {
		want[i] = patternBuf(1024, byte(i+1))
		if err := d.WriteAt(want[i], int64(i)*ChunkSize); err != nil {
			t.Fatal(err)
		}
	}
	before := tc.client.Stats()
	exts := make([]ReadExtent, chunks)
	for i := range exts {
		exts[i] = ReadExtent{Off: int64(i) * ChunkSize, Dst: make([]byte, 1024)}
	}
	if err := d.ReadV(exts); err != nil {
		t.Fatal(err)
	}
	for i := range exts {
		if !bytes.Equal(exts[i].Dst, want[i]) {
			t.Fatalf("extent %d mismatch", i)
		}
	}
	after := tc.client.Stats()
	if got := after.ReadRPCs - before.ReadRPCs; got != 0 {
		t.Fatalf("ReadV fell back to %d per-chunk reads", got)
	}
	if got := after.ReadVRPCs - before.ReadVRPCs; got < 1 || got > 3 {
		t.Fatalf("ReadV used %d RPCs for %d extents on 3 servers; want 1..3", got, chunks)
	}
	if got := after.ReadVExtents - before.ReadVExtents; got != chunks {
		t.Fatalf("ReadV carried %d extents, want %d", got, chunks)
	}
}

// TestReadVHolesReadAsZeros: uncommitted extents fill their
// destination with zeros, never leaving prefill garbage behind.
func TestReadVHolesReadAsZeros(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	if err := d.WriteAt(patternBuf(512, 9), 0); err != nil {
		t.Fatal(err)
	}
	exts := []ReadExtent{
		{Off: 0, Dst: make([]byte, 1024)},                  // committed head, short data
		{Off: 10 * ChunkSize, Dst: make([]byte, 2048)},     // hole
		{Off: 11*ChunkSize - 512, Dst: make([]byte, 1024)}, // hole straddling a chunk edge
	}
	for _, e := range exts {
		for i := range e.Dst {
			e.Dst[i] = 0xAA
		}
	}
	if err := d.ReadV(exts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exts[0].Dst[:512], patternBuf(512, 9)) {
		t.Fatal("committed prefix mismatch")
	}
	for n, e := range exts {
		from := 0
		if n == 0 {
			from = 512
		}
		for i := from; i < len(e.Dst); i++ {
			if e.Dst[i] != 0 {
				t.Fatalf("extent %d byte %d: stale 0x%02x, want zero", n, i, e.Dst[i])
			}
		}
	}
}

// TestReadVPerExtentFailover is the regression test for the
// acceptance criterion: a ReadV whose extents fail on one replica
// (every disk on that server is failed) completes via per-extent
// failover to the other copy, with no stale bytes left in any
// destination buffer.
func TestReadVPerExtentFailover(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	const chunks = 16
	want := make([][]byte, chunks)
	for i := 0; i < chunks; i++ {
		want[i] = patternBuf(2048, byte(i+3))
		if err := d.WriteAt(want[i], int64(i)*ChunkSize); err != nil {
			t.Fatal(err)
		}
	}
	// Fail every disk on one server: its store errors all chunk reads
	// while heartbeats keep it "alive", so routing still selects it
	// and only the per-extent fallback can recover.
	for _, disk := range tc.servers[1].Disks() {
		disk.Fail()
	}
	exts := make([]ReadExtent, chunks+1)
	for i := 0; i < chunks; i++ {
		exts[i] = ReadExtent{Off: int64(i) * ChunkSize, Dst: make([]byte, 2048)}
	}
	// One hole extent too: failover must zero it, not skip it.
	exts[chunks] = ReadExtent{Off: 100 * ChunkSize, Dst: make([]byte, 2048)}
	for _, e := range exts {
		for i := range e.Dst {
			e.Dst[i] = 0xAA
		}
	}
	before := tc.client.Stats()
	if err := d.ReadV(exts); err != nil {
		t.Fatalf("ReadV with one failed replica: %v", err)
	}
	for i := 0; i < chunks; i++ {
		if !bytes.Equal(exts[i].Dst, want[i]) {
			t.Fatalf("extent %d mismatch after failover", i)
		}
	}
	for i, b := range exts[chunks].Dst {
		if b != 0 {
			t.Fatalf("hole extent byte %d: stale 0x%02x after failover", i, b)
		}
	}
	after := tc.client.Stats()
	if after.ReadRPCs == before.ReadRPCs {
		t.Fatal("expected per-extent fallback reads against the surviving replica")
	}
}

// TestReadBalanceSplitsAcrossReplicas: with balancing on (the
// default), first-choice read routing uses both replicas; switched
// off, it reverts to primary-only.
func TestReadBalanceSplitsAcrossReplicas(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	buf := patternBuf(4096, 5)
	for i := 0; i < 8; i++ {
		if err := d.WriteAt(buf, int64(i)*ChunkSize); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, 4096)
	for r := 0; r < 8; r++ {
		for i := 0; i < 8; i++ {
			if err := d.ReadAt(got, int64(i)*ChunkSize); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := tc.client.Stats()
	if st.ReadPrimary == 0 || st.ReadBackup == 0 {
		t.Fatalf("balanced routing used primary %d / backup %d times; want both > 0",
			st.ReadPrimary, st.ReadBackup)
	}
	tc.client.SetReadBalance(false)
	mid := tc.client.Stats()
	for i := 0; i < 8; i++ {
		if err := d.ReadAt(got, int64(i)*ChunkSize); err != nil {
			t.Fatal(err)
		}
	}
	end := tc.client.Stats()
	if end.ReadBackup != mid.ReadBackup || end.ReadPrimary != mid.ReadPrimary {
		t.Fatal("primary-only mode still recorded balanced routing decisions")
	}
}

// TestReadBalancePrefersLessLoadedReplica: with one replica's
// outstanding gauge pinned high, least-outstanding routing sends
// first-choice reads to the other copy.
func TestReadBalancePrefersLessLoadedReplica(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	st, err := tc.client.getState()
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := st.Replicas("vol", 0)
	if p1 == "" || p2 == "" {
		t.Fatalf("placement gave (%q, %q)", p1, p2)
	}
	tc.client.infl[p1].Set(10) // p1 looks busy
	var tl targetList
	for i := 0; i < 4; i++ {
		tc.client.readTargets(&st, "vol", 0, &tl)
		if tl.srv[0] != p2 {
			t.Fatalf("round %d routed to loaded replica %q, want %q", i, tl.srv[0], p2)
		}
	}
	tc.client.infl[p1].Set(0)
	firsts := map[string]int{}
	for i := 0; i < 10; i++ {
		tc.client.readTargets(&st, "vol", 0, &tl)
		firsts[tl.srv[0]]++
	}
	if len(firsts) != 2 {
		t.Fatalf("tied replicas should alternate round-robin, got %v", firsts)
	}
}

// TestTargetsAllocationFree verifies the routing hot path does not
// allocate (satellite: targets used to build a fresh slice per chunk
// read).
func TestTargetsAllocationFree(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.mustCreate(t, "vol")
	st, err := tc.client.getState()
	if err != nil {
		t.Fatal(err)
	}
	var tl targetList
	allocs := testing.AllocsPerRun(200, func() {
		tc.client.targets(&st, "vol", 7, &tl)
		tc.client.readTargets(&st, "vol", 11, &tl)
	})
	if allocs != 0 {
		t.Fatalf("targets/readTargets allocate %.1f objects per call, want 0", allocs)
	}
}

// BenchmarkReadTargets measures the routing decision on the chunk
// read hot path; run with -benchmem to confirm 0 allocs/op.
func BenchmarkReadTargets(b *testing.B) {
	w := sim.NewWorld(200, 3)
	defer w.Stop()
	names := []string{"p0", "p1", "p2"}
	c := NewClient(w, "ws0", names)
	defer c.Close()
	st := NewGlobalState(names)
	var tl targetList
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.readTargets(&st, "vol", int64(i), &tl)
	}
}

// TestBackoffDelayShape pins the retry backoff: exponential doubling
// from retryBase, capped at retryCap, jitter confined to [d/2, d).
func TestBackoffDelayShape(t *testing.T) {
	// Without jitter the ramp is exactly base << attempt, capped.
	want := []sim.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 160 * time.Millisecond, 320 * time.Millisecond,
		640 * time.Millisecond, 640 * time.Millisecond, 640 * time.Millisecond,
	}
	for attempt, w := range want {
		if got := backoffDelay(attempt, nil); got != w {
			t.Fatalf("attempt %d: delay %v, want %v", attempt, got, w)
		}
	}
	// Jitter stays in [d/2, d): the low edge with rand()=0, one short
	// of d with rand()=n-1.
	if got := backoffDelay(3, func(n int) int { return 0 }); got != 40*time.Millisecond {
		t.Fatalf("low jitter edge = %v, want 40ms", got)
	}
	if got := backoffDelay(3, func(n int) int { return n - 1 }); got != 80*time.Millisecond-1 {
		t.Fatalf("high jitter edge = %v, want 80ms-1ns", got)
	}
	// Very large attempt numbers must not overflow past the cap.
	if got := backoffDelay(1000, nil); got != retryCap {
		t.Fatalf("attempt 1000: delay %v, want cap %v", got, retryCap)
	}
}

// TestRetriesRespectOpDeadline: a chunk op against a vdisk that never
// materializes retries with backoff until the op deadline and gives
// up promptly — the final pause is clamped to the deadline, so the
// op cannot overshoot by a full backoff step.
func TestRetriesRespectOpDeadline(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.client.opDeadline = 2 * time.Second
	start := tc.w.Clock.Now()
	err := tc.client.Read(nil, "never-created", 0, make([]byte, 256))
	if err == nil {
		t.Fatal("read of a nonexistent vdisk succeeded")
	}
	elapsed := sim.Duration(tc.w.Clock.Now() - start)
	if elapsed < 2*time.Second {
		t.Fatalf("gave up after %v, before the 2s op deadline", elapsed)
	}
	if elapsed > 2*time.Second+1500*time.Millisecond {
		t.Fatalf("overshot the 2s op deadline by %v", elapsed-2*time.Second)
	}
}

// TestSpansEdgeCases covers the chunk splitter's boundary behaviour.
func TestSpansEdgeCases(t *testing.T) {
	if got := spans(0, 0); len(got) != 0 {
		t.Fatalf("zero-length read produced %d spans", len(got))
	}
	if got := spans(12345, 0); len(got) != 0 {
		t.Fatalf("zero-length read at offset produced %d spans", len(got))
	}
	// Exactly one whole chunk.
	got := spans(0, ChunkSize)
	if len(got) != 1 || got[0] != (span{chunk: 0, off: 0, length: ChunkSize, bufOff: 0}) {
		t.Fatalf("whole-chunk spans = %+v", got)
	}
	// Starting exactly on a chunk boundary.
	got = spans(3*ChunkSize, 10)
	if len(got) != 1 || got[0] != (span{chunk: 3, off: 0, length: 10, bufOff: 0}) {
		t.Fatalf("boundary-start spans = %+v", got)
	}
	// Straddling a boundary by one byte each side.
	got = spans(ChunkSize-1, 2)
	want := []span{
		{chunk: 0, off: ChunkSize - 1, length: 1, bufOff: 0},
		{chunk: 1, off: 0, length: 1, bufOff: 1},
	}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("straddle spans = %+v, want %+v", got, want)
	}
	// Ending exactly on a boundary must not emit an empty tail span.
	got = spans(ChunkSize/2, ChunkSize/2)
	if len(got) != 1 || got[0].length != ChunkSize/2 {
		t.Fatalf("boundary-end spans = %+v", got)
	}
	// Two exact chunks.
	got = spans(ChunkSize, 2*ChunkSize)
	if len(got) != 2 || got[0].chunk != 1 || got[1].chunk != 2 ||
		got[0].length != ChunkSize || got[1].length != ChunkSize ||
		got[1].bufOff != ChunkSize {
		t.Fatalf("two-chunk spans = %+v", got)
	}
}

// TestBoundedParEdgeCases covers the fan-out helper: empty input,
// serial limit, limit coercion, and error propagation from a middle
// item without losing the others' completion.
func TestBoundedParEdgeCases(t *testing.T) {
	if err := boundedPar(4, nil, func(int) error { return nil }); err != nil {
		t.Fatalf("empty items: %v", err)
	}
	// parallelism=1 runs items serially, in order.
	var mu sync.Mutex
	var order []int
	items := []int{0, 1, 2, 3, 4}
	err := boundedPar(1, items, func(i int) error {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(items) {
		t.Fatalf("ran %d items, want %d", len(order), len(items))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("parallelism=1 ran out of order: %v", order)
		}
	}
	// A middle item's error propagates; every item still runs.
	boom := fmt.Errorf("boom")
	var ran int
	err = boundedPar(2, items, func(i int) error {
		mu.Lock()
		ran++
		mu.Unlock()
		if i == 2 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("middle-item error = %v, want boom", err)
	}
	mu.Lock()
	if ran != len(items) {
		t.Fatalf("error cancelled siblings: ran %d of %d", ran, len(items))
	}
	mu.Unlock()
	// limit < 1 is coerced, not deadlocked.
	if err := boundedPar(0, items, func(int) error { return nil }); err != nil {
		t.Fatalf("limit 0: %v", err)
	}
	// Single-item fast path propagates errors too.
	if err := boundedPar(8, []int{7}, func(int) error { return boom }); err != boom {
		t.Fatalf("single-item error = %v, want boom", err)
	}
}

// TestZeroLengthReadIssuesNoRPCs: the degenerate I/O sizes short-cut
// before touching the network.
func TestZeroLengthReadIssuesNoRPCs(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	before := tc.client.Stats()
	if err := d.ReadAt(nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadV(nil); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadV([]ReadExtent{{Off: 5, Dst: nil}}); err != nil {
		t.Fatal(err)
	}
	after := tc.client.Stats()
	if after.ReadRPCs != before.ReadRPCs || after.ReadVRPCs != before.ReadVRPCs {
		t.Fatalf("zero-length reads issued RPCs: %+v -> %+v", before, after)
	}
}
