package stats

import (
	"math"
	"sort"
	"testing"

	"netbandit/internal/rng"
)

func TestP2PanicsOnBadQuantile(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newP2(%v) did not panic", p)
				}
			}()
			newP2(p)
		}()
	}
}

func TestP2SmallSampleFallback(t *testing.T) {
	e := newP2(0.5)
	if e.Value() != 0 {
		t.Fatal("empty estimator should return 0")
	}
	e.Add(3)
	e.Add(1)
	e.Add(2)
	// With 3 samples the median order statistic is 2.
	if got := e.Value(); got != 2 {
		t.Fatalf("small-sample median = %v, want 2", got)
	}
}

func TestP2AgainstExactQuantiles(t *testing.T) {
	r := rng.New(10)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		e := newP2(p)
		const n = 50000
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
			e.Add(xs[i])
		}
		sort.Float64s(xs)
		exact := xs[int(p*float64(n))]
		if math.Abs(e.Value()-exact) > 0.05 {
			t.Errorf("p=%v: P2 = %v, exact = %v", p, e.Value(), exact)
		}
	}
}

func TestP2UniformMedian(t *testing.T) {
	r := rng.New(11)
	e := newP2(0.5)
	for i := 0; i < 20000; i++ {
		e.Add(r.Float64())
	}
	if math.Abs(e.Value()-0.5) > 0.02 {
		t.Fatalf("uniform median estimate = %v, want ~0.5", e.Value())
	}
}

func TestHistogram(t *testing.T) {
	h := newHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 5, 9.99, 10, 42} {
		h.Add(x)
	}
	if h.Total() != 8 {
		t.Fatalf("total = %d, want 8", h.Total())
	}
	under, over := h.OutOfRange()
	if under != 1 || over != 2 {
		t.Fatalf("under=%d over=%d, want 1 and 2", under, over)
	}
	counts := h.Counts()
	// bins: [0,2) -> 2 samples (0, 1.9); [2,4) -> 1; [4,6) -> 1; [8,10) -> 1.
	want := []int64{2, 1, 1, 0, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
	if got := h.BinCenter(0); got != 1 {
		t.Fatalf("BinCenter(0) = %v, want 1", got)
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, tc := range []struct {
		name   string
		lo, hi float64
		bins   int
	}{
		{"no bins", 0, 1, 0}, {"empty range", 1, 1, 3}, {"inverted", 2, 1, 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			newHistogram(tc.lo, tc.hi, tc.bins)
		}()
	}
}

func TestHistogramCountsCopied(t *testing.T) {
	h := newHistogram(0, 1, 2)
	h.Add(0.1)
	c := h.Counts()
	c[0] = 99
	if h.Counts()[0] != 1 {
		t.Fatal("Counts returned internal storage")
	}
}
