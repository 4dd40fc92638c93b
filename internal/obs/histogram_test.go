package obs

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// Every bucket must cover a contiguous, non-overlapping range, and
// bucketFor must be the inverse of BucketBounds.
func TestBucketBoundaries(t *testing.T) {
	prevHi := int64(0)
	for i := 0; i < numBuckets; i++ {
		lo, hi := BucketBounds(i)
		if lo >= hi && hi > 0 {
			t.Fatalf("bucket %d: empty range [%d,%d)", i, lo, hi)
		}
		if i > 0 && lo != prevHi {
			t.Fatalf("bucket %d: gap/overlap: prev hi %d, lo %d", i, prevHi, lo)
		}
		prevHi = hi
		if hi < 0 { // overflowed past int64 range; later buckets unused
			break
		}
		if got := bucketFor(lo); got != i {
			t.Fatalf("bucketFor(lo=%d) = %d, want %d", lo, got, i)
		}
		if got := bucketFor(hi - 1); got != i {
			t.Fatalf("bucketFor(hi-1=%d) = %d, want %d", hi-1, got, i)
		}
	}
	// Spot-check the continuity points of the scheme.
	for _, tc := range []struct {
		v    int64
		want int
	}{
		{0, 0}, {7, 7}, {8, 8}, {15, 15}, {16, 16}, {17, 16},
		{1 << 62, (62-subBits)*subBuckets + subBuckets},
		{math.MaxInt64, 487},
	} {
		if got := bucketFor(tc.v); got != tc.want {
			t.Errorf("bucketFor(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
	if bucketFor(math.MaxInt64) >= numBuckets {
		t.Fatalf("max value overflows bucket array")
	}
	if bucketFor(-5) != 0 {
		t.Fatalf("negative values must clamp to bucket 0")
	}
}

// Quantile estimates must stay within the scheme's 1/16 relative
// error bound (plus a small absolute slack for tiny values).
func TestQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := NewHistogram()
	var vals []int64
	for i := 0; i < 20000; i++ {
		// Log-uniform over ~9 decades, like real latencies.
		v := int64(math.Exp(rng.Float64() * 20))
		vals = append(vals, v)
		h.Record(v)
	}
	exact := append([]int64(nil), vals...)
	sortInt64s(exact)
	for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
		rank := int(q*float64(len(exact))+0.5) - 1
		if rank < 0 {
			rank = 0
		}
		want := exact[rank]
		got := h.Quantile(q)
		relErr := math.Abs(float64(got)-float64(want)) / float64(want)
		if relErr > 1.0/16+1e-9 && math.Abs(float64(got-want)) > 1 {
			t.Errorf("q=%v: got %d want %d relErr %.4f > 6.25%%", q, got, want, relErr)
		}
	}
	if h.Quantile(1.0) != h.Max() {
		t.Errorf("p100 %d != max %d", h.Quantile(1.0), h.Max())
	}
}

func sortInt64s(s []int64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Record(5)
	}
	if got := h.Quantile(0.5); got != 5 {
		t.Errorf("p50 of constant 5s = %d, want exactly 5", got)
	}
	if h.Count() != 100 || h.Sum() != 500 || h.Max() != 5 {
		t.Errorf("count/sum/max = %d/%d/%d", h.Count(), h.Sum(), h.Max())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	const workers, per = 8, 5000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Record(rng.Int63n(1 << 30))
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count %d, want %d", h.Count(), workers*per)
	}
	var sum int64
	for i := 0; i < numBuckets; i++ {
		sum += h.buckets[i].Load()
	}
	if sum != workers*per {
		t.Fatalf("bucket sum %d, want %d", sum, workers*per)
	}
}

func TestNilCollectors(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(3)
	r.Histogram("x").Record(9)
	if r.Counter("x").Value() != 0 || r.Histogram("x").Quantile(0.5) != 0 {
		t.Fatal("nil collectors must read zero")
	}
	if !r.Snapshot().Empty() {
		t.Fatal("nil registry snapshot must be empty")
	}
	r.Tracer().Start(nil, "a", "b").Done() // must not panic
}
