package petal

import (
	"bytes"
	"testing"
	"time"
)

func TestWriteVScatteredRoundTrip(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	// Scattered extents: same chunk, different chunks, one spanning a
	// chunk boundary.
	exts := []Extent{
		{Off: 0, Data: patternBuf(4096, 1)},
		{Off: 16 * 1024, Data: patternBuf(512, 2)},
		{Off: int64(ChunkSize) - 300, Data: patternBuf(1000, 3)}, // crosses into chunk 1
		{Off: 3 * int64(ChunkSize), Data: patternBuf(8192, 4)},
	}
	if err := d.WriteV(exts); err != nil {
		t.Fatal(err)
	}
	for i, e := range exts {
		got := make([]byte, len(e.Data))
		if err := d.ReadAt(got, e.Off); err != nil {
			t.Fatalf("extent %d read: %v", i, err)
		}
		if !bytes.Equal(got, e.Data) {
			t.Fatalf("extent %d mismatch", i)
		}
	}
	// Untouched gaps still read zero.
	gap := make([]byte, 100)
	if err := d.ReadAt(gap, 8192); err != nil {
		t.Fatal(err)
	}
	for _, b := range gap {
		if b != 0 {
			t.Fatal("WriteV disturbed a hole")
		}
	}
}

func TestWriteVBatchesRPCs(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	// 32 small extents inside one chunk: one RPC per extent would
	// cost 32 write RPCs; scatter-gather should need far fewer (one
	// per replica-server batch).
	var exts []Extent
	for i := 0; i < 32; i++ {
		exts = append(exts, Extent{Off: int64(i) * 1024, Data: patternBuf(256, byte(i))})
	}
	before := tc.client.Stats()
	if err := d.WriteV(exts); err != nil {
		t.Fatal(err)
	}
	after := tc.client.Stats()
	vRPCs := after.WriteVRPCs - before.WriteVRPCs
	vExts := after.WriteVExtents - before.WriteVExtents
	singles := after.WriteRPCs - before.WriteRPCs
	if vExts != 32 {
		t.Fatalf("WriteV carried %d extents, want 32", vExts)
	}
	if vRPCs >= 32/4 {
		t.Fatalf("WriteV used %d RPCs for 32 extents; batching ineffective", vRPCs)
	}
	if singles != 0 {
		t.Fatalf("%d write batches resent on the happy path", singles)
	}
}

func TestWriteVFailoverOnCrash(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	// Crash one server; batches routed to it must fail over to the
	// other replica of each chunk.
	tc.servers[1].Crash()
	waitUntil(t, 20*time.Second, func() bool {
		return !tc.servers[0].State().Alive["p1"]
	})
	var exts []Extent
	for i := 0; i < 8; i++ {
		exts = append(exts, Extent{Off: int64(i) * int64(ChunkSize), Data: patternBuf(2048, byte(i+1))})
	}
	if err := d.WriteV(exts); err != nil {
		t.Fatal(err)
	}
	for i, e := range exts {
		got := make([]byte, len(e.Data))
		if err := d.ReadAt(got, e.Off); err != nil {
			t.Fatalf("extent %d read: %v", i, err)
		}
		if !bytes.Equal(got, e.Data) {
			t.Fatalf("extent %d mismatch after failover", i)
		}
	}
}

func TestWriteVReplicatesAcrossCrash(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	var exts []Extent
	for i := 0; i < 6; i++ {
		exts = append(exts, Extent{Off: int64(i) * int64(ChunkSize), Data: patternBuf(4096, byte(0x40+i))})
	}
	if err := d.WriteV(exts); err != nil {
		t.Fatal(err)
	}
	// Every chunk must survive the loss of any single server: the
	// batched path must have replicated every extent.
	tc.servers[0].Crash()
	waitUntil(t, 20*time.Second, func() bool {
		return !tc.servers[1].State().Alive["p0"]
	})
	for i, e := range exts {
		got := make([]byte, len(e.Data))
		if err := d.ReadAt(got, e.Off); err != nil {
			t.Fatalf("extent %d read after crash: %v", i, err)
		}
		if !bytes.Equal(got, e.Data) {
			t.Fatalf("extent %d lost its replica", i)
		}
	}
}
