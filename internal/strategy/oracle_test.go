package strategy

import (
	"math"
	"testing"
	"testing/quick"

	"netbandit/internal/graphs"
	"netbandit/internal/rng"
)

func TestExactOracleOptimal(t *testing.T) {
	g := graphs.Path(5)
	s, err := TopM(5, 2, g)
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{0.5, 0.1, 0.9, 0.1, 0.5}
	x := ExactOracle{}.ArgmaxClosure(s, w)
	got := s.ClosureMean(x, w)
	for y := 0; y < s.Len(); y++ {
		if s.ClosureMean(y, w) > got+1e-12 {
			t.Fatalf("oracle chose %v (value %v) but %v has value %v",
				s.Arms(x), got, s.Arms(y), s.ClosureMean(y, w))
		}
	}
}

func TestExactOraclePrefersInfiniteCoverage(t *testing.T) {
	// Two unobserved arms (w=+Inf): the oracle must choose the strategy
	// covering both rather than a high finite sum covering one.
	g := graphs.Empty(4)
	s, err := TopM(4, 2, g)
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{math.Inf(1), math.Inf(1), 100, 100}
	x := ExactOracle{}.ArgmaxClosure(s, w)
	arms := s.Arms(x)
	if arms[0] != 0 || arms[1] != 1 {
		t.Fatalf("oracle chose %v, want [0 1] to cover both unobserved arms", arms)
	}
}

func TestGreedyOracleFeasibleAndDecent(t *testing.T) {
	r := rng.New(9)
	g := graphs.Gnp(12, 0.3, r)
	s, err := TopM(12, 3, g)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, 12)
	for i := range w {
		w[i] = r.Float64()
	}
	greedy := GreedyOracle{Size: 3}.ArgmaxClosure(s, w)
	exact := ExactOracle{}.ArgmaxClosure(s, w)
	gv := s.ClosureMean(greedy, w)
	ev := s.ClosureMean(exact, w)
	if greedy < 0 || greedy >= s.Len() {
		t.Fatalf("greedy returned invalid index %d", greedy)
	}
	if gv > ev+1e-12 {
		t.Fatalf("greedy value %v exceeds exact optimum %v", gv, ev)
	}
	// Weighted max coverage greedy guarantees (1-1/e) of optimal.
	if gv < (1-1/math.E)*ev-1e-9 {
		t.Fatalf("greedy value %v below (1-1/e) of optimum %v", gv, ev)
	}
}

func TestGreedyOracleFallsBackWhenInfeasible(t *testing.T) {
	// Family of independent sets: greedy may build a non-independent pair,
	// in which case it must fall back to the exact optimum.
	g := graphs.Complete(4) // only singletons are independent
	s, err := IndependentSets(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{0.1, 0.9, 0.2, 0.3}
	x := GreedyOracle{Size: 2}.ArgmaxClosure(s, w)
	if x < 0 || x >= s.Len() {
		t.Fatalf("invalid index %d", x)
	}
	// In K4 every closure is the whole graph, so all strategies tie; any
	// valid index is acceptable — the point is not to panic or return -1.
}

func TestGreedyOracleZeroSizeFallsBack(t *testing.T) {
	s, err := TopM(4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{1, 2, 3, 4}
	got := GreedyOracle{}.ArgmaxClosure(s, w)
	want := ExactOracle{}.ArgmaxClosure(s, w)
	if got != want {
		t.Fatalf("zero-size greedy = %d, want exact answer %d", got, want)
	}
}

// Property: greedy never beats exact, and exact is a true maximum over the
// enumeration, on random instances.
func TestOracleDominanceProperty(t *testing.T) {
	r := rng.New(10)
	f := func(seed uint64) bool {
		rr := r.Split(seed)
		k := 4 + rr.Intn(6)
		g := graphs.Gnp(k, 0.35, rr)
		s, err := TopM(k, 2, g)
		if err != nil {
			return false
		}
		w := make([]float64, k)
		for i := range w {
			w[i] = rr.Float64()
		}
		exact := ExactOracle{}.ArgmaxClosure(s, w)
		greedy := GreedyOracle{Size: 2}.ArgmaxClosure(s, w)
		ev := s.ClosureMean(exact, w)
		gv := s.ClosureMean(greedy, w)
		if gv > ev+1e-12 {
			return false
		}
		for x := 0; x < s.Len(); x++ {
			if s.ClosureMean(x, w) > ev+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestOracleNames(t *testing.T) {
	if got := (ExactOracle{}).Name(); got != "exact" {
		t.Fatalf("exact oracle name = %q", got)
	}
	if got := (GreedyOracle{Size: 2}).Name(); got != "greedy2" {
		t.Fatalf("greedy oracle name = %q", got)
	}
}
