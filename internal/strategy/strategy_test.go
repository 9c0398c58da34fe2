package strategy

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"netbandit/internal/graphs"
	"netbandit/internal/rng"
)

// paperGraph returns the 4-arm relation graph of the paper's Fig. 2 (the
// path 1-2-3-4, 0-indexed as 0-1-2-3).
func paperGraph(t *testing.T) *graphs.Graph {
	t.Helper()
	g := graphs.New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	return g
}

func TestIndependentSetsPaperExample(t *testing.T) {
	// The paper's Fig. 2 feasible family: all independent sets of the
	// path, which for maxSize=2 is exactly s1..s7.
	g := paperGraph(t)
	s, err := IndependentSets(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 7 {
		t.Fatalf("|F| = %d, want 7", s.Len())
	}
	want := [][]int{{0}, {1}, {2}, {3}, {0, 2}, {0, 3}, {1, 3}}
	for _, arms := range want {
		if _, ok := s.IndexOf(arms); !ok {
			t.Errorf("family missing strategy %v", arms)
		}
	}
	// Closures from the paper: Y_{s5={1,3}} = {1,2,3,4} (0-indexed {0,1,2,3}).
	x, ok := s.IndexOf([]int{0, 2})
	if !ok {
		t.Fatal("missing {0,2}")
	}
	if got := s.Closure(x); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("Y_{0,2} = %v, want [0 1 2 3]", got)
	}
	// Y_{s2={2}} = {1,2,3} (0-indexed {0,1,2}).
	x, ok = s.IndexOf([]int{1})
	if !ok {
		t.Fatal("missing {1}")
	}
	if got := s.Closure(x); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("Y_{1} = %v, want [0 1 2]", got)
	}
	if s.MaxClosureSize() != 4 {
		t.Fatalf("N = %d, want 4", s.MaxClosureSize())
	}
}

func TestNewExplicitValidation(t *testing.T) {
	g := graphs.Empty(3)
	tests := []struct {
		name       string
		k          int
		strategies [][]int
		g          *graphs.Graph
	}{
		{"zero arms", 0, [][]int{{0}}, nil},
		{"graph size mismatch", 4, [][]int{{0}}, g},
		{"no strategies", 3, nil, g},
		{"empty strategy", 3, [][]int{{}}, g},
		{"out of range", 3, [][]int{{3}}, g},
		{"negative arm", 3, [][]int{{-1}}, g},
		{"repeated arm", 3, [][]int{{1, 1}}, g},
		{"duplicate strategy", 3, [][]int{{0, 1}, {1, 0}}, g},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewExplicit(tc.k, tc.strategies, tc.g); err == nil {
				t.Fatal("invalid input accepted")
			}
		})
	}
}

func TestNewExplicitSortsAndCopies(t *testing.T) {
	in := [][]int{{2, 0}}
	s, err := NewExplicit(3, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Arms(0); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("Arms(0) = %v, want [0 2]", got)
	}
	in[0][0] = 99 // caller mutation must not affect the set
	if got := s.Arms(0); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("Set aliased caller storage: %v", got)
	}
	// Nil graph: closure equals the strategy.
	if got := s.Closure(0); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("Closure with nil graph = %v, want [0 2]", got)
	}
}

func TestTopM(t *testing.T) {
	s, err := TopM(5, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 10 {
		t.Fatalf("|F| = %d, want C(5,2)=10", s.Len())
	}
	for x := 0; x < s.Len(); x++ {
		if len(s.Arms(x)) != 2 {
			t.Fatalf("strategy %d has %d arms, want 2", x, len(s.Arms(x)))
		}
	}
	if _, err := TopM(5, 0, nil); err == nil {
		t.Fatal("TopM m=0 accepted")
	}
	if _, err := TopM(5, 6, nil); err == nil {
		t.Fatal("TopM m>k accepted")
	}
	if _, err := TopM(100, 10, nil); err == nil {
		t.Fatal("astronomically large family accepted")
	}
}

func TestUpToM(t *testing.T) {
	s, err := upToM(4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// C(4,1) + C(4,2) = 4 + 6.
	if s.Len() != 10 {
		t.Fatalf("|F| = %d, want 10", s.Len())
	}
}

func TestSingletons(t *testing.T) {
	g := graphs.Star(3)
	s, err := Singletons(3, g)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("|F| = %d, want 3", s.Len())
	}
	// Closure of the hub singleton covers everything.
	if got := s.Closure(0); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("hub closure = %v", got)
	}
}

func TestIndependentSetsValidation(t *testing.T) {
	if _, err := IndependentSets(nil, 2); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := IndependentSets(graphs.Empty(3), 0); err == nil {
		t.Fatal("maxSize 0 accepted")
	}
	if _, err := IndependentSets(graphs.New(0), 1); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestIndependentSetsAllIndependent(t *testing.T) {
	r := rng.New(4)
	g := graphs.Gnp(10, 0.4, r)
	s, err := IndependentSets(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < s.Len(); x++ {
		if !g.IsIndependentSet(s.Arms(x)) {
			t.Fatalf("strategy %v is not independent", s.Arms(x))
		}
	}
}

func TestDirectAndClosureMeans(t *testing.T) {
	g := paperGraph(t)
	s, err := IndependentSets(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{0.1, 0.2, 0.3, 0.4}
	x, ok := s.IndexOf([]int{0, 2})
	if !ok {
		t.Fatal("missing {0,2}")
	}
	if got := s.DirectMean(x, w); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("direct mean = %v, want 0.4", got)
	}
	if got := s.ClosureMean(x, w); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("closure mean = %v, want 1.0", got)
	}
}

func TestBestDirectAndClosure(t *testing.T) {
	g := paperGraph(t)
	s, err := IndependentSets(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{0.9, 0.1, 0.8, 0.1}
	x, v := s.BestDirect(w)
	if got := s.Arms(x); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("best direct = %v (value %v), want [0 2]", got, v)
	}
	if math.Abs(v-1.7) > 1e-12 {
		t.Fatalf("best direct value = %v, want 1.7", v)
	}
	// For closure, {0,2} covers all arms: value 1.9.
	x, v = s.BestClosure(w)
	if s.ClosureMean(x, w) != v {
		t.Fatal("BestClosure value inconsistent")
	}
	if math.Abs(v-1.9) > 1e-12 {
		t.Fatalf("best closure value = %v, want 1.9", v)
	}
}

func TestIndexOfOrderInsensitive(t *testing.T) {
	s, err := TopM(5, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, okA := s.IndexOf([]int{3, 1})
	b, okB := s.IndexOf([]int{1, 3})
	if !okA || !okB || a != b {
		t.Fatalf("IndexOf order-sensitive: (%d,%v) vs (%d,%v)", a, okA, b, okB)
	}
	if _, ok := s.IndexOf([]int{0, 1, 2}); ok {
		t.Fatal("IndexOf found a strategy not in the family")
	}
}

// Property: every closure contains its own strategy's arms and only valid
// vertices, and BestDirect/BestClosure return indices achieving their
// reported values.
func TestSetInvariantsProperty(t *testing.T) {
	r := rng.New(5)
	f := func(seed uint64) bool {
		rr := r.Split(seed)
		k := 3 + rr.Intn(8)
		g := graphs.Gnp(k, 0.4, rr)
		s, err := TopM(k, 2, g)
		if err != nil {
			return false
		}
		w := make([]float64, k)
		for i := range w {
			w[i] = rr.Float64()
		}
		for x := 0; x < s.Len(); x++ {
			cl := s.Closure(x)
			inCl := make(map[int]bool, len(cl))
			for _, v := range cl {
				if v < 0 || v >= k {
					return false
				}
				inCl[v] = true
			}
			for _, a := range s.Arms(x) {
				if !inCl[a] {
					return false
				}
			}
		}
		bx, bv := s.BestDirect(w)
		if s.DirectMean(bx, w) != bv {
			return false
		}
		for x := 0; x < s.Len(); x++ {
			if s.DirectMean(x, w) > bv+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
