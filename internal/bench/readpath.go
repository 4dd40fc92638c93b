package bench

import (
	"fmt"

	"frangipani"
	"frangipani/internal/fs"
	"frangipani/internal/petal"
	"frangipani/internal/sim"
	"frangipani/internal/workload"
)

// ReadScaling exercises the scatter-gather read path end to end and
// asserts the two properties the path exists for:
//
//  1. streaming: N machines each reading a private file, cold caches —
//     aggregate throughput should grow near-linearly (the replica
//     balancer spreads chunk reads over both copies, so no single
//     Petal server's link is the ceiling);
//  2. hot-primary: several machines hammering a chunk set that all
//     shares ONE primary server. Primary-only routing bottlenecks on
//     that server's link; balanced routing splits each chunk between
//     its two replicas. ASSERTED: balanced >= 1.5x primary-only.
//  3. readdir: a cold machine enumerating a directory. A per-entry
//     stat scan pays one Petal read per inode sector; ReadDirPlus
//     batches them into scatter-gather ReadV RPCs. ASSERTED: the
//     batched scan issues <= 50% of the stat scan's read RPCs.
func (o Options) ReadScaling() (*Table, error) {
	t := &Table{
		ID:     "Read scaling",
		Title:  "Scatter-gather read path: streaming, replica balance, batched metadata",
		Header: []string{"Workload", "Mode", "Result", "Ratio"},
		Notes:  "Asserted in-experiment: balanced >= 1.5x primary-only on a hot-primary chunk set; ReadDirPlus <= 50% of the stat scan's Petal read RPCs.",
	}
	if err := o.readStreamRows(t); err != nil {
		return nil, err
	}
	if err := o.readBalanceRows(t); err != nil {
		return nil, err
	}
	if err := o.readDirRows(t); err != nil {
		return nil, err
	}
	return t, nil
}

// readStreamRows: N machines stream disjoint files with cold caches.
func (o Options) readStreamRows(t *Table) error {
	perMachine := o.seqBytes()
	os := o.scaled()
	maxN := o.MaxMachines
	if o.Quick && maxN > 4 {
		maxN = 4
	}
	for n := 1; n <= maxN; n++ {
		c, err := os.newCluster(true, nil)
		if err != nil {
			return err
		}
		writer, err := c.AddServer("writer")
		if err != nil {
			c.Close()
			return err
		}
		for i := 0; i < n; i++ {
			if _, err := workload.SeqWrite(workload.Frangipani{FS: writer}, c.World.Clock,
				fmt.Sprintf("/stream%d.dat", i), perMachine, 64<<10); err != nil {
				c.Close()
				return err
			}
		}
		if err := writer.Sync(); err != nil {
			c.Close()
			return err
		}
		readers, err := mountN(c, n, nil)
		if err != nil {
			c.Close()
			return err
		}
		ch := make(chan error, n)
		start := c.World.Clock.Now()
		for i, r := range readers {
			go func(i int, r *fs.FS) {
				_, _, err := workload.SeqRead(workload.Frangipani{FS: r}, c.World.Clock,
					fmt.Sprintf("/stream%d.dat", i), 64<<10)
				ch <- err
			}(i, r)
		}
		for range readers {
			if err := <-ch; err != nil {
				c.Close()
				return err
			}
		}
		elapsed := sim.Duration(c.World.Clock.Now() - start)
		c.Close()
		agg := mbps(perMachine*int64(n), elapsed)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("stream N=%d", n),
			"balanced",
			fmt.Sprintf("%.1f MB/s", agg),
			fmt.Sprintf("%.1f MB/s per machine", agg/float64(n)),
		})
	}
	return nil
}

// readBalanceRows: the asserted >= 1.5x, on the 3-server 2-way
// replicated cluster. Using the placement function, pick a chunk set
// whose primaries all land on one Petal server, then have several
// client machines stream it — once with reads pinned to the primary
// (that server's link is the ceiling), once with the replica balancer
// splitting every client's extents across both copies.
func (o Options) readBalanceRows(t *Table) error {
	const chunks, passes = 16, 2
	readers := 6
	if o.Quick {
		readers = 4
	}
	os := o.scaled()
	var base float64
	for _, mode := range []struct {
		name    string
		balance bool
	}{
		{"primary-only", false},
		{"balanced", true},
	} {
		c, err := os.newCluster(true, func(cc *frangipani.ClusterConfig) {
			// The acceptance rig: 3 Petal servers, 2-way replication.
			// Enough disks that the hot server's network link, not its
			// arms, is the bottleneck the balancer relieves.
			cc.PetalServers = 3
			cc.DisksPerServer = 6
		})
		if err != nil {
			return err
		}
		pc := c.Client("prep")
		const v = petal.VDiskID("hot")
		if err := pc.CreateVDisk(v); err != nil {
			c.Close()
			return err
		}
		st, err := pc.State()
		if err != nil {
			c.Close()
			return err
		}
		hot := c.PetalServerNames()[0]
		var hotChunks []int64
		for ch := int64(0); len(hotChunks) < chunks && ch < 8192; ch++ {
			if p, _ := st.Replicas(v, ch); p == hot {
				hotChunks = append(hotChunks, ch)
			}
		}
		if len(hotChunks) < chunks {
			c.Close()
			return fmt.Errorf("read-scaling: only %d/%d chunks place their primary on %s", len(hotChunks), chunks, hot)
		}
		buf := make([]byte, petal.ChunkSize)
		for i := range buf {
			buf[i] = byte(i * 131)
		}
		for _, chk := range hotChunks {
			if err := pc.Write(nil, v, chk*petal.ChunkSize, buf); err != nil {
				c.Close()
				return err
			}
		}
		clients := make([]*petal.Client, readers)
		for i := range clients {
			clients[i] = c.Client(fmt.Sprintf("rd%d", i))
			clients[i].SetReadBalance(mode.balance)
		}
		errs := make(chan error, readers)
		start := c.World.Clock.Now()
		for _, rc := range clients {
			go func(rc *petal.Client) {
				// Each client streams the whole hot set `passes` times
				// as 8 concurrent scatter-gather reads, keeping the
				// pipeline full the way the fs prefetcher does.
				n := len(hotChunks) * passes
				dst := make([]byte, petal.ChunkSize*int64(n))
				exts := make([]petal.ReadExtent, n)
				for j := 0; j < n; j++ {
					chk := hotChunks[j%len(hotChunks)]
					exts[j] = petal.ReadExtent{
						Off: chk * petal.ChunkSize,
						Dst: dst[int64(j)*petal.ChunkSize : int64(j+1)*petal.ChunkSize],
					}
				}
				const g = 8
				sub := make(chan error, g)
				per := (n + g - 1) / g
				calls := 0
				for s := 0; s < n; s += per {
					e := s + per
					if e > n {
						e = n
					}
					calls++
					go func(part []petal.ReadExtent) { sub <- rc.ReadV(v, part) }(exts[s:e])
				}
				var first error
				for i := 0; i < calls; i++ {
					if err := <-sub; err != nil && first == nil {
						first = err
					}
				}
				errs <- first
			}(rc)
		}
		for range clients {
			if err := <-errs; err != nil {
				c.Close()
				return err
			}
		}
		elapsed := sim.Duration(c.World.Clock.Now() - start)
		var backup int64
		for _, rc := range clients {
			backup += rc.Stats().ReadBackup
		}
		c.Close()
		total := int64(readers) * int64(passes) * int64(len(hotChunks)) * petal.ChunkSize
		agg := mbps(total, elapsed)
		ratio := "1.00x (baseline)"
		if mode.balance {
			r := agg / base
			ratio = fmt.Sprintf("%.2fx (assert >= 1.5x)", r)
			if r < 1.5 {
				return fmt.Errorf("read-scaling: balanced %.1f MB/s vs primary-only %.1f MB/s = %.2fx; want >= 1.5x", agg, base, r)
			}
			if backup == 0 {
				return fmt.Errorf("read-scaling: balanced mode never routed a read to a backup replica")
			}
		} else {
			base = agg
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("hot-primary %d rd x %d chunks", readers, len(hotChunks)),
			mode.name,
			fmt.Sprintf("%.1f MB/s", agg),
			ratio,
		})
	}
	return nil
}

// readDirRows: the asserted <= 50% RPC reduction. Two cold machines
// enumerate the same directory: one with ReadDir plus a Stat per
// entry, one with ReadDirPlus.
func (o Options) readDirRows(t *Table) error {
	files := 60
	if o.Quick {
		files = 30
	}
	c, err := o.newCluster(true, nil)
	if err != nil {
		return err
	}
	defer c.Close()
	setup, err := c.AddServer("setup")
	if err != nil {
		return err
	}
	if err := setup.Mkdir("/dir"); err != nil {
		return err
	}
	small := make([]byte, 256)
	for i := range small {
		small[i] = byte(i * 7)
	}
	for i := 0; i < files; i++ {
		h, err := setup.OpenFile(fmt.Sprintf("/dir/f%03d", i), true)
		if err != nil {
			return err
		}
		if _, err := h.WriteAt(small, 0); err != nil {
			return err
		}
	}
	if err := setup.Sync(); err != nil {
		return err
	}

	scan, err := c.AddServer("scan")
	if err != nil {
		return err
	}
	s0 := scan.PetalStats().ReadRPCTotal()
	ents, err := scan.ReadDir("/dir")
	if err != nil {
		return err
	}
	if len(ents) != files {
		return fmt.Errorf("read-scaling: stat scan listed %d entries, want %d", len(ents), files)
	}
	for _, ent := range ents {
		if _, err := scan.Stat("/dir/" + ent.Name); err != nil {
			return err
		}
	}
	baseline := scan.PetalStats().ReadRPCTotal() - s0

	plus, err := c.AddServer("plus")
	if err != nil {
		return err
	}
	p0 := plus.PetalStats().ReadRPCTotal()
	ents2, infos, err := plus.ReadDirPlus("/dir")
	if err != nil {
		return err
	}
	if len(ents2) != files || len(infos) != files {
		return fmt.Errorf("read-scaling: ReadDirPlus returned %d entries, %d infos; want %d", len(ents2), len(infos), files)
	}
	batched := plus.PetalStats().ReadRPCTotal() - p0

	if batched*2 > baseline {
		return fmt.Errorf("read-scaling: ReadDirPlus used %d Petal read RPCs vs stat scan's %d; want <= 50%%", batched, baseline)
	}
	t.Rows = append(t.Rows,
		[]string{fmt.Sprintf("readdir %d files, cold", files), "stat scan", fmt.Sprintf("%d read RPCs", baseline), "1.00x (baseline)"},
		[]string{fmt.Sprintf("readdir %d files, cold", files), "ReadDirPlus", fmt.Sprintf("%d read RPCs", batched), fmt.Sprintf("%.2fx (assert <= 0.5x)", float64(batched)/float64(baseline))},
	)
	return nil
}
