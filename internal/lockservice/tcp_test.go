package lockservice

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"frangipani/internal/obs"
	"frangipani/internal/rpc"
	"frangipani/internal/sim"
)

// TestLockServiceOverTCP runs the complete lock protocol — Paxos,
// heartbeats, leases, grants, and revocations — over real TCP
// connections instead of the simulated network, demonstrating that
// the stack is transport-agnostic and deployable across processes.
func TestLockServiceOverTCP(t *testing.T) {
	carrier := rpc.NewTCPCarrier()
	defer carrier.Close()
	// Real time (compression 1) since TCP is real.
	w := sim.NewWorld(1, 5)
	defer w.Stop()

	cfg := DefaultConfig()
	cfg.LeaseDuration = 5 * time.Second
	cfg.HeartbeatEvery = 200 * time.Millisecond
	cfg.SuspectAfter = 2 * time.Second
	cfg.RevokeRetry = 200 * time.Millisecond
	cfg.SweepEvery = 500 * time.Millisecond
	cfg.SyncTimeout = time.Second

	names := []string{"tls0", "tls1", "tls2"}
	var servers []*Server
	for _, n := range names {
		servers = append(servers, NewServerWithCarrier(w, n, names, cfg, carrier))
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	mk := func(machine string) *Clerk {
		c := NewClerkWithCarrier(w, machine, "tcpfs", names, cfg, carrier)
		c.SetCallbacks(func(_ *obs.Span, lock uint64, to Mode) {}, nil, nil)
		if err := c.Open(); err != nil {
			t.Fatalf("open %s: %v", machine, err)
		}
		return c
	}
	c1 := mk("tws1")
	defer c1.Close()
	c2 := mk("tws2")
	defer c2.Close()

	if c1.LogSlot() == c2.LogSlot() {
		t.Fatal("log slots collide over TCP")
	}

	// Mutual exclusion across real sockets.
	var inside, violations int32
	var wg sync.WaitGroup
	for _, c := range []*Clerk{c1, c2} {
		wg.Add(1)
		go func(c *Clerk) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if err := c.Lock(9, Exclusive); err != nil {
					t.Errorf("lock: %v", err)
					return
				}
				if atomic.AddInt32(&inside, 1) != 1 {
					atomic.AddInt32(&violations, 1)
				}
				time.Sleep(5 * time.Millisecond)
				atomic.AddInt32(&inside, -1)
				c.Unlock(9)
			}
		}(c)
	}
	wg.Wait()
	if violations != 0 {
		t.Fatalf("%d mutual-exclusion violations over TCP", violations)
	}

	// Shared locks coexist; sticky grants persist.
	if err := c1.Lock(10, Shared); err != nil {
		t.Fatal(err)
	}
	if err := c2.Lock(10, Shared); err != nil {
		t.Fatal(err)
	}
	c1.Unlock(10)
	c2.Unlock(10)
	if c1.Held(10) != Shared || c2.Held(10) != Shared {
		t.Fatal("sticky shared grants lost")
	}
}
