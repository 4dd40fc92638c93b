package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"frangipani/internal/obs"
	"frangipani/internal/petal"
	"frangipani/internal/rpc"
	"frangipani/internal/sim"
)

// CodecMux exercises the TCP carrier's multiplexed framing under
// load and asserts the mux actually multiplexes: one (from, to) pair
// carries many concurrent Petal-shaped RPCs, and the receiver must
// observe at least two streams open at once (no head-of-line
// blocking behind one bulk transfer). It runs over real sockets, so
// it also smoke-tests the fast codec end to end: the payloads must
// round-trip bit-exact through encode, frame interleaving,
// reassembly, and zero-copy decode.
func (o Options) CodecMux() (*Table, error) {
	t := &Table{
		ID:     "Codec mux",
		Title:  "Multiplexed TCP transport under concurrent 1 MB WriteV load",
		Header: []string{"Metric", "Value"},
		Notes:  "streams peak >= 2 proves concurrent in-flight RPCs share one connection.",
	}
	carrier := rpc.NewTCPCarrier()
	defer carrier.Close()
	clock := sim.NewClock(1)

	// The server verifies payload integrity and tracks how many
	// requests are being served at once.
	var inflight, inflightPeak atomic.Int64
	var badPayloads atomic.Int64
	srv := rpc.NewEndpoint("codec-srv", carrier, clock, func(_ *obs.Span, from string, body any) any {
		m, ok := body.(petal.WriteVReq)
		if !ok {
			return nil
		}
		n := inflight.Add(1)
		for {
			p := inflightPeak.Load()
			if n <= p || inflightPeak.CompareAndSwap(p, n) {
				break
			}
		}
		for _, e := range m.Extents {
			for j, b := range e.Data {
				if b != byte(int(e.Chunk)+j) {
					badPayloads.Add(1)
					break
				}
			}
		}
		// Hold the request briefly so concurrent calls overlap at the
		// server, then recycle its pooled receive buffer.
		time.Sleep(2 * time.Millisecond)
		inflight.Add(-1)
		rpc.Release(m)
		return petal.WriteVResp{OK: true}
	})
	defer srv.Close()
	cli := rpc.NewEndpoint("codec-cli", carrier, clock, nil)
	defer cli.Close()

	// Each worker sends 1 MB as 16 chunk-sized extents — the cache
	// flusher's batch shape — all through the single codec-cli ->
	// codec-srv connection.
	const (
		workers  = 8
		rounds   = 4
		extents  = 16
		extBytes = petal.ChunkSize
	)
	reqs := make([]petal.WriteVReq, workers)
	for w := range reqs {
		exts := make([]petal.WriteVExtent, extents)
		for i := range exts {
			chunk := int64(w*extents + i)
			data := make([]byte, extBytes)
			for j := range data {
				data[j] = byte(int(chunk) + j)
			}
			exts[i] = petal.WriteVExtent{Chunk: chunk, Data: data}
		}
		reqs[w] = petal.WriteVReq{VDisk: "bench", Extents: exts}
	}
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				resp, err := cli.Call(nil, "codec-srv", reqs[w], 30*time.Second)
				if err != nil {
					errCh <- fmt.Errorf("worker %d round %d: %w", w, r, err)
					return
				}
				if wr, ok := resp.(petal.WriteVResp); !ok || !wr.OK {
					errCh <- fmt.Errorf("worker %d round %d: bad reply %#v", w, r, resp)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	if n := badPayloads.Load(); n > 0 {
		return nil, fmt.Errorf("codec-mux: %d payloads corrupted in transit", n)
	}
	stats := carrier.Stats()
	if stats.StreamsPeak < 2 {
		return nil, fmt.Errorf("codec-mux: streams peak %d, want >= 2 (no multiplexing observed)", stats.StreamsPeak)
	}
	if stats.MsgsFast == 0 {
		return nil, fmt.Errorf("codec-mux: no messages took the fast codec path")
	}
	if stats.DecodeErrs > 0 {
		return nil, fmt.Errorf("codec-mux: %d decode errors on the wire", stats.DecodeErrs)
	}
	payload := int64(workers) * rounds * extents * extBytes
	t.Rows = append(t.Rows,
		[]string{"concurrent RPC peak (server)", fmt.Sprintf("%d", inflightPeak.Load())},
		[]string{"inbound streams peak (one conn)", fmt.Sprintf("%d", stats.StreamsPeak)},
		[]string{"messages fast codec", fmt.Sprintf("%d", stats.MsgsFast)},
		[]string{"messages gob fallback", fmt.Sprintf("%d", stats.MsgsGob)},
		[]string{"frames sent", fmt.Sprintf("%d", stats.FramesSent)},
		[]string{"payload MB", fmt.Sprintf("%.1f", float64(payload)/(1<<20))},
		[]string{"wire MB sent", fmt.Sprintf("%.1f", float64(stats.BytesSent)/(1<<20))},
		[]string{"framing overhead", fmt.Sprintf("%.2f%%", (float64(stats.BytesSent)-float64(payload))/float64(payload)*100)},
		[]string{"throughput MB/s", fmt.Sprintf("%.0f", float64(payload)/(1<<20)/elapsed.Seconds())},
	)
	return t, nil
}
