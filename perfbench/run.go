package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"frangipani"
)

const (
	// warmup runs the workload before measuring, so each client's
	// file window is full and the caches hold their working set.
	warmup = time.Second
	// setupRuns is how many times a run builds the cluster; setup_s
	// is the median.
	setupRuns = 3
	// leakWait is how long after Cluster.Close goroutines are counted.
	leakWait = time.Second
	// traceDir receives the spans of traced runs.
	traceDir = ".bench_build/trace"
)

// setup builds the cluster, mounts ws1 and ws2 and runs the
// workload's preload.
func setup(w *workload, seed int64) (*env, clientState, error) {
	cfg := frangipani.DefaultClusterConfig()
	cfg.Compression = compression
	cfg.Seed = seed
	if w.fsConfig != nil {
		w.fsConfig(&cfg.FSConfig)
	}
	c, err := frangipani.NewCluster(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("building cluster: %w", err)
	}
	e := &env{c: c, seed: seed}
	for k, m := range []string{"ws1", "ws2"} {
		if e.ws[k], err = c.AddServer(m); err != nil {
			c.Close()
			return nil, nil, fmt.Errorf("mounting %s: %w", m, err)
		}
	}
	st, err := w.preload(e)
	if err != nil {
		c.Close()
		return nil, nil, fmt.Errorf("preload: %w", err)
	}
	return e, st, nil
}

// phaseStats is what one measured phase did.
type phaseStats struct {
	simNs, cpuNs, wallNs int64
	ops, failed          int64
	bytes, written       int64
	lat                  [numOps][]int64
	allocs, allocBytes   uint64
	spans                []span
	firstErr             error
}

func (p *phaseStats) simSeconds() float64 { return float64(p.simNs) / 1e9 }

// runPhase runs both clients closed-loop for d and collects their
// logs. Both clients stop together when d ends; a client whose call
// fails stops early, since its files are then in an unknown state.
func runPhase(e *env, st clientState, d time.Duration, trace bool) (phaseStats, error) {
	done := make(chan struct{})
	var once sync.Once
	stop := func() { once.Do(func() { close(done) }) }
	var wg sync.WaitGroup
	logs := [2]*opLog{}
	errs := [2]error{}
	for k := range logs {
		logs[k] = newOpLog(k, e.c.NowNs, trace, done)
	}
	var p phaseStats
	allocs0, bytes0 := heapAllocs()
	cpu0, wall0, sim0 := cpuNs(), time.Now(), e.c.NowNs()
	for k := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !logs[k].stopped() && logs[k].failed == 0 {
				if err := st.step(k, logs[k]); err != nil {
					errs[k] = err
					stop()
				}
			}
		}()
	}
	time.Sleep(d)
	stop()
	wg.Wait()
	p.simNs, p.wallNs, p.cpuNs = e.c.NowNs()-sim0, int64(time.Since(wall0)), cpuNs()-cpu0
	allocs1, bytes1 := heapAllocs()
	p.allocs, p.allocBytes = allocs1-allocs0, bytes1-bytes0
	if err := errors.Join(errs[0], errs[1]); err != nil {
		return p, err
	}
	for _, l := range logs {
		for k := range l.lat {
			p.lat[k] = append(p.lat[k], l.lat[k]...)
		}
		p.ops += l.ops()
		p.failed += l.failed
		p.bytes += l.bytes
		p.written += l.written
		p.spans = append(p.spans, l.spans...)
		if p.firstErr == nil {
			p.firstErr = l.err
		}
	}
	return p, nil
}

// runResult is everything a run reports.
type runResult struct {
	attempted, failed int64
	hostUtil          float64
	samples           map[string]int
	metrics           map[string]metric
}

// run sets the workload up, measures it, checks every output and
// returns its end-to-end metrics, or with trace its per-layer ones.
func run(w *workload, seed int64, d time.Duration, trace bool) (*runResult, error) {
	g0 := runtime.NumGoroutine()
	t0 := time.Now()
	e, st, err := setup(w, seed)
	if err != nil {
		return nil, err
	}
	setups := []float64{time.Since(t0).Seconds()}
	open := true
	defer func() {
		if open {
			e.c.Close()
		}
	}()

	// Only the measured phase may report failed calls: a client that
	// failed before it would start the measured phase in an unknown
	// state.
	unmeasured := func(name string, d time.Duration) (phaseStats, error) {
		p, err := runPhase(e, st, d, false)
		if err == nil && p.failed > 0 {
			err = fmt.Errorf("%d calls failed, first: %w", p.failed, p.firstErr)
		}
		if err != nil {
			return p, fmt.Errorf("%s: %w", name, err)
		}
		return p, nil
	}
	if _, err := unmeasured("warm-up", warmup); err != nil {
		return nil, err
	}
	var base, p phaseStats
	var layers map[string]metric
	if trace {
		if base, err = unmeasured("untraced phase", d/4); err != nil {
			return nil, err
		}
		before := takeLayerSnap(e)
		if p, err = runPhase(e, st, d, true); err != nil {
			return nil, err
		}
		layers = layerMetrics(e, before, &p)
	} else if p, err = runPhase(e, st, d, false); err != nil {
		return nil, err
	}
	if p.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d calls failed, first: %v\n", p.failed, p.firstErr)
	}
	heap := liveHeapMB()
	tg := time.Now()
	if err := gates(e, st); err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: gates passed in %.2fs\n", time.Since(tg).Seconds())
	res := &runResult{
		attempted: p.ops + p.failed,
		failed:    p.failed,
		hostUtil:  float64(p.cpuNs) / float64(p.wallNs) / float64(runtime.NumCPU()),
		samples:   map[string]int{},
	}
	for k := opKind(0); k < numOps; k++ {
		res.samples[opNames[k]] = len(p.lat[k])
	}
	if trace {
		tp := time.Now()
		for name, v := range runProbes(e) {
			layers[name] = v
		}
		fmt.Fprintf(os.Stderr, "perfbench: probes took %.2fs\n", time.Since(tp).Seconds())
		if err := writeSpans(w.name, seed, p.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	}
	e.c.Close()
	open = false
	time.Sleep(leakWait)
	leaked := runtime.NumGoroutine() - g0

	for i := 1; i < setupRuns && !trace; i++ {
		t := time.Now()
		e2, _, err := setup(w, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		e2.c.Close()
	}

	if trace {
		layers["host.leaked_goroutines"] = metric{float64(leaked), "count"}
		traced := ratio(float64(p.cpuNs), float64(p.ops))
		untraced := ratio(float64(base.cpuNs), float64(base.ops))
		layers["host.trace_overhead_frac"] = metric{ratio(traced-untraced, untraced), "frac"}
		res.metrics = layers
		return res, nil
	}
	_, setupS, _ := quartiles(setups)
	res.metrics = e2eMetrics(&p, setupS, heap)
	return res, nil
}

// gates are the correctness checks every run passes before it
// reports: both servers sync, every live file reads back correctly
// from the other server, fsck finds no problem and no server shut
// itself off. The reads inside the measured phase were checked as they
// happened.
func gates(e *env, st clientState) error {
	sync := func() error {
		for _, fs := range e.ws {
			if err := fs.Sync(); err != nil {
				return fmt.Errorf("sync %s: %w", fs.Machine(), err)
			}
		}
		return nil
	}
	if err := sync(); err != nil {
		return err
	}
	if err := st.verify(); err != nil {
		return err
	}
	if err := sync(); err != nil {
		return err
	}
	rep, err := e.c.Fsck()
	if err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	if !rep.OK() {
		return fmt.Errorf("fsck: %d problems, first: %s %s", len(rep.Problems), rep.Problems[0].Kind, rep.Problems[0].Msg)
	}
	for _, fs := range e.ws {
		if fs.Poisoned() {
			return fmt.Errorf("%s is poisoned", fs.Machine())
		}
	}
	return nil
}

// e2eMetrics turns the measured phase into the end-to-end metrics.
func e2eMetrics(p *phaseStats, setupS, heapMB float64) map[string]metric {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	var meta []int64
	for k := opKind(0); k < numOps; k++ {
		if k.meta() {
			meta = append(meta, p.lat[k]...)
		}
	}
	summary := func(name string, xs []int64) {
		fmt.Fprintf(os.Stderr, "perfbench: %-6s n=%-6d p50=%.3f p90=%.3f p99=%.3f max=%.3f ms\n", name, len(xs),
			ms(quantile(xs, 0.5)), ms(quantile(xs, 0.9)), ms(quantile(xs, 0.99)), ms(quantile(xs, 1)))
	}
	summary("meta", meta)
	summary("write", p.lat[opWrite])
	summary("read", p.lat[opRead])
	summary("sync", p.lat[opSync])
	return map[string]metric{
		"ops_per_s":          {float64(p.ops) / p.simSeconds(), "1/s"},
		"mb_per_s":           {float64(p.bytes) / 1e6 / p.simSeconds(), "MB/s"},
		"meta_p50_ms":        {ms(quantile(meta, 0.50)), "ms"},
		"meta_p90_ms":        {ms(quantile(meta, 0.90)), "ms"},
		"write_p50_ms":       {ms(quantile(p.lat[opWrite], 0.50)), "ms"},
		"write_p90_ms":       {ms(quantile(p.lat[opWrite], 0.90)), "ms"},
		"read_p50_ms":        {ms(quantile(p.lat[opRead], 0.50)), "ms"},
		"read_p90_ms":        {ms(quantile(p.lat[opRead], 0.90)), "ms"},
		"sync_p50_ms":        {ms(quantile(p.lat[opSync], 0.50)), "ms"},
		"host_cpu_us_per_op": {ratio(float64(p.cpuNs)/1e3, float64(p.ops)), "us"},
		"heap_mb":            {heapMB, "MB"},
		"setup_s":            {setupS, "s"},
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuNs is this process's user+sys CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// heapAllocs returns the cumulative count and bytes of heap
// allocations.
func heapAllocs() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// liveHeapMB forces a collection and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// writeSpans stores a traced run's spans, one JSON object per line.
func writeSpans(workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
