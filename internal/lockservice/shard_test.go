package lockservice

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMidRebalanceConcurrencySafety drives concurrent acquire /
// revoke / release traffic through a mid-stream shard rebalance (a
// server crash and restart) and asserts the two safety properties of
// the handoff protocol: no lock is ever granted to two clerks at
// once, and no acknowledged release is lost (every lock is still
// acquirable afterwards). Run under -race by the full suite.
func TestMidRebalanceConcurrencySafety(t *testing.T) {
	ls := newTestLS(t, 3)
	const nClerks, nWorkers, nLocks, iters = 3, 2, 12, 25

	clerks := make([]*Clerk, nClerks)
	for i := range clerks {
		clerks[i] = ls.clerk(t, fmt.Sprintf("wsr%d", i))
	}

	// Workers of the SAME clerk use disjoint lock ranges: a clerk's
	// sticky grant is legitimately shared by its local users (the FS
	// layer serializes within one machine, §4), so only cross-clerk
	// exclusion is asserted. Workers with the same index on DIFFERENT
	// clerks contend for the same locks.
	const locksPerWorker = nLocks / nWorkers
	var inside [nLocks]int32
	var violations int32
	var ops int64
	var wg sync.WaitGroup
	for ci, c := range clerks {
		for w := 0; w < nWorkers; w++ {
			wg.Add(1)
			go func(c *Clerk, worker, seed int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					lock := uint64(worker*locksPerWorker + (seed*7+i)%locksPerWorker)
					if err := c.Lock(lock, Exclusive); err != nil {
						t.Errorf("lock %d: %v", lock, err)
						return
					}
					if atomic.AddInt32(&inside[lock], 1) != 1 {
						atomic.AddInt32(&violations, 1)
					}
					ls.w.Clock.Sleep(10 * time.Millisecond)
					atomic.AddInt32(&inside[lock], -1)
					c.Unlock(lock)
					atomic.AddInt64(&ops, 1)
				}
			}(c, w, ci)
		}
	}

	// Mid-stream rebalance: crash a shard owner once traffic is
	// flowing, let its shards move, then bring it back so they move
	// again — both handoff directions happen under load.
	waitUntil(t, func() bool { return atomic.LoadInt64(&ops) > 10 })
	ls.servers[1].Crash()
	waitUntil(t, func() bool {
		st := ls.servers[0].State()
		if st.Alive["ls1"] {
			return false
		}
		for _, s := range st.Assignment {
			if s == "ls1" {
				return false
			}
		}
		return true
	})
	ls.servers[1].Restart()
	waitUntil(t, func() bool { return ls.servers[0].State().Alive["ls1"] })

	wg.Wait()
	if v := atomic.LoadInt32(&violations); v != 0 {
		t.Fatalf("%d mutual-exclusion violations across the rebalance", v)
	}
	// No lost acknowledged release: a fresh clerk must be able to take
	// every lock exclusively, which requires each prior release to
	// have reached whichever server owns the shard now.
	fresh := ls.clerk(t, "wsrF")
	for lock := uint64(0); lock < nLocks; lock++ {
		if err := fresh.Lock(lock, Exclusive); err != nil {
			t.Fatalf("post-rebalance acquire of %d: %v", lock, err)
		}
		fresh.Unlock(lock)
	}
}

// TestWrongShardNack forces a clerk to route with a doctored (stale)
// shard map and asserts the wrong-shard path heals it: the misrouted
// server nacks, the clerk refetches the map, retries against the
// right owner, and the acquire still succeeds.
func TestWrongShardNack(t *testing.T) {
	ls := newTestLS(t, 3)
	c := ls.clerk(t, "wsW")

	// Doctor the clerk's map: every shard rotated to the NEXT server,
	// so its first transmission is guaranteed misrouted. The hook also
	// lowers Version so the refetch (which only adopts strictly newer
	// state) can replace the doctored map.
	c.InjectStaleShardMap()

	done := make(chan error, 1)
	go func() { done <- c.Lock(5, Exclusive) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("acquire with stale shard map never recovered")
	}
	c.Unlock(5)

	nacks := int64(0)
	for _, n := range ls.names {
		nacks += ls.w.Obs.Counter("lockservice.server.wrongshard#" + n).Value()
	}
	if nacks == 0 {
		t.Fatal("no wrong-shard nacks recorded despite stale routing")
	}
}

// TestRenewTickSkipsWhenInFlight asserts the renewal loop coalesces:
// a tick that fires while its predecessor is still waiting on a slow
// server is skipped and journaled, never stacked.
func TestRenewTickSkipsWhenInFlight(t *testing.T) {
	ls := newTestLS(t, 3)
	c := ls.clerk(t, "wsS")

	c.mu.Lock()
	c.renewing = true // simulate a predecessor stuck on a slow server
	c.mu.Unlock()
	c.renew()
	c.mu.Lock()
	c.renewing = false
	c.mu.Unlock()

	if got := ls.w.Obs.Counter("lockservice.renew.skipped#wsS").Value(); got != 1 {
		t.Fatalf("renew.skipped counter = %d, want 1", got)
	}
	found := false
	for _, e := range ls.w.Obs.Journal("wsS").Events() {
		if e.Op == "lease" && e.Kind == "renew.skipped" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no lease renew.skipped journal event recorded")
	}
	// A normal tick still renews.
	c.renew()
	if got := ls.w.Obs.Counter("lockservice.renew.skipped#wsS").Value(); got != 1 {
		t.Fatalf("unblocked renew was skipped (counter = %d)", got)
	}
}

// TestBatchingCoalescesRequests asserts the sender demon actually
// vectors: a burst of acquires enqueued together reaches the servers
// as one AcquireBatch per owning server, not one message per lock.
func TestBatchingCoalescesRequests(t *testing.T) {
	ls := newTestLS(t, 3)
	c := ls.clerk(t, "wsB")
	const n = 40
	// Enqueue the whole burst while holding the clerk mutex: the
	// sender demon cannot start draining mid-burst, so the drain sees
	// all n wants at once and must group them per shard server.
	c.mu.Lock()
	for id := uint64(0); id < n; id++ {
		l := c.lockLocked(id)
		l.want = Exclusive
		c.requestLocked(nil, id, l)
	}
	c.mu.Unlock()
	waitUntil(t, func() bool {
		for id := uint64(0); id < n; id++ {
			if c.Held(id) != Exclusive {
				return false
			}
		}
		return true
	})
	batches := ls.w.Obs.Counter("lockservice.clerk.batches#wsB").Value()
	batchOps := ls.w.Obs.Counter("lockservice.clerk.batched_ops#wsB").Value()
	if batchOps < n {
		t.Fatalf("batched_ops = %d, want >= %d", batchOps, n)
	}
	// One drain = at most one AcquireBatch per server; allow one
	// retry-ticker round of slack so a slow CI machine cannot flake.
	if batches > 2*int64(len(ls.names)) {
		t.Fatalf("no coalescing: %d batches for %d ops across %d servers", batches, batchOps, len(ls.names))
	}
}
