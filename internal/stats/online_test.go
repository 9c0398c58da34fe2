package stats

import (
	"math"
	"testing"
	"testing/quick"

	"netbandit/internal/rng"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

// naive computes mean and population variance directly for comparison.
func naive(xs []float64) (mean, variance float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(xs))
	return mean, variance
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.N() != 0 || w.StdErr() != 0 {
		t.Fatal("zero-value Welford should report zeros")
	}
}

func TestWelfordSingle(t *testing.T) {
	var w Welford
	w.Add(3.5)
	if w.Mean() != 3.5 || w.Variance() != 0 || w.SampleVariance() != 0 {
		t.Fatalf("single sample: mean=%v var=%v", w.Mean(), w.Variance())
	}
}

func TestWelfordMatchesNaive(t *testing.T) {
	r := rng.New(1)
	xs := make([]float64, 1000)
	var w Welford
	for i := range xs {
		xs[i] = r.NormFloat64()*10 + 5
		w.Add(xs[i])
	}
	mean, variance := naive(xs)
	if !almostEqual(w.Mean(), mean, 1e-9) {
		t.Fatalf("mean %v != %v", w.Mean(), mean)
	}
	if !almostEqual(w.Variance(), variance, 1e-7) {
		t.Fatalf("variance %v != %v", w.Variance(), variance)
	}
}

// Property: merging two accumulators equals accumulating the concatenation.
func TestWelfordMergeProperty(t *testing.T) {
	r := rng.New(2)
	f := func(seed uint64) bool {
		rr := r.Split(seed)
		n1, n2 := rr.Intn(50), 1+rr.Intn(50)
		var a, b, all Welford
		for i := 0; i < n1; i++ {
			x := rr.Float64() * 100
			a.Add(x)
			all.Add(x)
		}
		for i := 0; i < n2; i++ {
			x := rr.Float64() * 100
			b.Add(x)
			all.Add(x)
		}
		a.Merge(b)
		return a.N() == all.N() &&
			almostEqual(a.Mean(), all.Mean(), 1e-8) &&
			almostEqual(a.Variance(), all.Variance(), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordMergeIntoEmpty(t *testing.T) {
	var a, b Welford
	b.Add(1)
	b.Add(2)
	a.Merge(b)
	if a.N() != 2 || !almostEqual(a.Mean(), 1.5, 1e-12) {
		t.Fatalf("merge into empty: n=%d mean=%v", a.N(), a.Mean())
	}
	var c Welford
	a.Merge(c) // merging empty is a no-op
	if a.N() != 2 {
		t.Fatal("merging empty changed accumulator")
	}
}

func TestWelfordReset(t *testing.T) {
	var w Welford
	w.Add(5)
	w.Reset()
	if w.N() != 0 || w.Mean() != 0 {
		t.Fatal("reset did not clear accumulator")
	}
}

func TestEMA(t *testing.T) {
	e := newEMA(0.5)
	if e.Value() != 0 {
		t.Fatal("EMA before first Add should be 0")
	}
	e.Add(10)
	if e.Value() != 10 {
		t.Fatalf("first sample should seed EMA, got %v", e.Value())
	}
	e.Add(20)
	if !almostEqual(e.Value(), 15, 1e-12) {
		t.Fatalf("EMA = %v, want 15", e.Value())
	}
}

func TestEMAPanics(t *testing.T) {
	for _, alpha := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newEMA(%v) did not panic", alpha)
				}
			}()
			newEMA(alpha)
		}()
	}
}

func TestWindow(t *testing.T) {
	w := newWindow(3)
	if w.Mean() != 0 || w.Len() != 0 {
		t.Fatal("empty window should report zeros")
	}
	w.Add(1)
	w.Add(2)
	if !almostEqual(w.Mean(), 1.5, 1e-12) || w.Len() != 2 {
		t.Fatalf("partial window mean=%v len=%d", w.Mean(), w.Len())
	}
	w.Add(3)
	w.Add(4) // evicts 1
	if !almostEqual(w.Mean(), 3, 1e-12) || w.Len() != 3 {
		t.Fatalf("full window mean=%v len=%d", w.Mean(), w.Len())
	}
}

func TestWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("newWindow(0) did not panic")
		}
	}()
	newWindow(0)
}
