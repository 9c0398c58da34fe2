package theory

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMOSSBound(t *testing.T) {
	want := 49 * math.Sqrt(10000*100)
	if got := MOSSBound(10000, 100); math.Abs(got-want) > 1e-9 {
		t.Fatalf("MOSSBound = %v, want %v", got, want)
	}
}

func TestTheorem1Bound(t *testing.T) {
	// With zero cliques only the sqrt(nK) term remains.
	want := 15.94 * math.Sqrt(10000*100)
	if got := Theorem1Bound(10000, 100, 0); math.Abs(got-want) > 1e-9 {
		t.Fatalf("bound = %v, want %v", got, want)
	}
	// Each clique adds 0.74 sqrt(n/K).
	delta := Theorem1Bound(10000, 100, 10) - Theorem1Bound(10000, 100, 0)
	want = 0.74 * 10 * math.Sqrt(10000.0/100)
	if math.Abs(delta-want) > 1e-9 {
		t.Fatalf("clique term = %v, want %v", delta, want)
	}
}

func TestTheorem1BelowMOSS(t *testing.T) {
	// For reasonable clique covers (C <= K), the paper's bound beats the
	// MOSS bound: 15.94 sqrt(nK) + 0.74 C sqrt(n/K) < 49 sqrt(nK).
	for _, k := range []int{10, 100, 1000} {
		n := 10000
		if Theorem1Bound(n, k, k) >= MOSSBound(n, k) {
			t.Fatalf("Theorem 1 with C=K should still beat MOSS at K=%d", k)
		}
	}
}

func TestTheorem2MatchesTheorem1Form(t *testing.T) {
	if theorem2Bound(5000, 190, 12) != Theorem1Bound(5000, 190, 12) {
		t.Fatal("Theorem 2 must be Theorem 1 over com-arms")
	}
}

func TestTheorem3Bound(t *testing.T) {
	want := 49.0 * 100 * math.Sqrt(10000*100)
	if got := theorem3Bound(10000, 100); math.Abs(got-want) > 1e-6 {
		t.Fatalf("bound = %v, want %v", got, want)
	}
	// K times the MOSS bound, exactly.
	if got := theorem3Bound(400, 7) / MOSSBound(400, 7); math.Abs(got-7) > 1e-9 {
		t.Fatalf("Theorem3/MOSS ratio = %v, want 7", got)
	}
}

func TestTheorem4BoundPositiveAndSublinear(t *testing.T) {
	b1 := Theorem4Bound(1000, 20, 8)
	b2 := Theorem4Bound(100000, 20, 8)
	if b1 <= 0 || b2 <= b1 {
		t.Fatalf("bound not positive/increasing: %v, %v", b1, b2)
	}
	// Sublinear: average bound must shrink as n grows by 100x (the n^{5/6}
	// term dominates, so bound/n ~ n^{-1/6}).
	if b2/100000 >= b1/1000 {
		t.Fatalf("bound not sublinear: %v/n vs %v/n", b2/100000, b1/1000)
	}
}

func TestUCBNBoundGapDivergesAsGapVanishes(t *testing.T) {
	finite := ucbnBoundGap(10000, 5, 0.5, 0.1)
	if math.IsInf(finite, 1) || finite <= 0 {
		t.Fatalf("finite-gap bound = %v", finite)
	}
	if !math.IsInf(ucbnBoundGap(10000, 5, 0.5, 0), 1) {
		t.Fatal("zero-gap bound must diverge")
	}
	// Smaller gap, bigger bound — the Δ-dependence the paper removes.
	if ucbnBoundGap(10000, 5, 0.5, 0.01) <= finite {
		t.Fatal("bound must increase as the gap shrinks")
	}
}

func TestZeroRegretHorizon(t *testing.T) {
	// For Theorem 1 at K=100, C=20: find when guaranteed avg regret < 0.5.
	bound := func(n int) float64 { return Theorem1Bound(n, 100, 20) }
	h := zeroRegretHorizon(bound, 0.5, 1<<30)
	if h == 0 {
		t.Fatal("horizon not found")
	}
	if bound(h)/float64(h) > 0.5 {
		t.Fatalf("bound/n = %v at reported horizon", bound(h)/float64(h))
	}
	if h > 1 && bound(h-1)/float64(h-1) <= 0.5 {
		t.Fatal("reported horizon is not minimal")
	}
	// Unreachable eps within maxN.
	if got := zeroRegretHorizon(bound, 1e-12, 1000); got != 0 {
		t.Fatalf("impossible horizon = %d, want 0", got)
	}
}

func TestPanicsOnInvalidInput(t *testing.T) {
	for name, f := range map[string]func(){
		"MOSS n=0":          func() { MOSSBound(0, 5) },
		"T1 k=0":            func() { Theorem1Bound(10, 0, 1) },
		"T1 negative cover": func() { Theorem1Bound(10, 5, -1) },
		"T3 n=0":            func() { theorem3Bound(0, 5) },
		"T4 closure=0":      func() { Theorem4Bound(10, 5, 0) },
		"horizon eps=0":     func() { zeroRegretHorizon(func(int) float64 { return 1 }, 0, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: all bounds are monotonically non-decreasing in n.
func TestBoundsMonotoneProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		n1, n2 := int(a)+1, int(b)+1
		if n1 > n2 {
			n1, n2 = n2, n1
		}
		return MOSSBound(n1, 50) <= MOSSBound(n2, 50) &&
			Theorem1Bound(n1, 50, 10) <= Theorem1Bound(n2, 50, 10) &&
			theorem3Bound(n1, 50) <= theorem3Bound(n2, 50) &&
			Theorem4Bound(n1, 20, 8) <= Theorem4Bound(n2, 20, 8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
