package graphs

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"netbandit/internal/rng"
)

// coverIsValid checks the three clique-cover invariants: disjoint cliques,
// full coverage of V, and each part a clique in g.
func coverIsValid(t *testing.T, g *Graph, cover [][]int) {
	t.Helper()
	seen := make([]bool, g.N())
	total := 0
	for _, c := range cover {
		if len(c) == 0 {
			t.Fatal("empty clique in cover")
		}
		if !g.IsClique(c) {
			t.Fatalf("part %v is not a clique", c)
		}
		for _, v := range c {
			if seen[v] {
				t.Fatalf("vertex %d covered twice", v)
			}
			seen[v] = true
			total++
		}
	}
	if total != g.N() {
		t.Fatalf("cover hits %d of %d vertices", total, g.N())
	}
}

func TestGreedyCliqueCoverBasics(t *testing.T) {
	tests := []struct {
		name     string
		g        *Graph
		wantSize int // exact expected greedy cover size, -1 to skip
	}{
		{"empty graph", Empty(5), 5},        // no edges: every vertex its own clique
		{"complete", Complete(6), 1},        // one clique covers everything
		{"single vertex", New(1), 1},        //
		{"zero vertices", New(0), 0},        //
		{"path3", Path(3), 2},               // {0,1},{2} or {0},{1,2}
		{"two triangles", Caveman(2, 3), 2}, /* two cliques + bridge edges: greedy should find 2 */
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cover := GreedyCliqueCover(tc.g)
			coverIsValid(t, tc.g, cover)
			if tc.wantSize >= 0 && len(cover) != tc.wantSize {
				t.Fatalf("cover size = %d, want %d", len(cover), tc.wantSize)
			}
		})
	}
}

func TestCliqueCoverNumberMonotoneInDensity(t *testing.T) {
	// Denser G(n,p) graphs admit smaller clique covers — the mechanism
	// behind the paper's Fig. 4 sparse-vs-dense comparison.
	r := rng.New(42)
	sparse := Gnp(60, 0.1, r.Split(1))
	dense := Gnp(60, 0.8, r.Split(2))
	cs := CliqueCoverNumber(sparse)
	cd := CliqueCoverNumber(dense)
	if cd >= cs {
		t.Fatalf("dense cover %d should be smaller than sparse cover %d", cd, cs)
	}
}

// Property: greedy clique cover is always valid on random graphs.
func TestGreedyCliqueCoverProperty(t *testing.T) {
	r := rng.New(77)
	f := func(seed uint64) bool {
		rr := r.Split(seed)
		n := 1 + rr.Intn(40)
		g := Gnp(n, 0.3+0.4*rr.Float64(), rr)
		cover := GreedyCliqueCover(g)
		seen := make([]bool, n)
		for _, c := range cover {
			if !g.IsClique(c) {
				return false
			}
			for _, v := range c {
				if seen[v] {
					return false
				}
				seen[v] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMaximalCliquesTrianglePlusEdge(t *testing.T) {
	// Graph: triangle {0,1,2} plus pendant edge {2,3}.
	g := New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(2, 3)
	var got [][]int
	maximalCliques(g, func(c []int) bool {
		cc := append([]int(nil), c...)
		got = append(got, cc)
		return true
	})
	sort.Slice(got, func(i, j int) bool {
		return len(got[i]) > len(got[j])
	})
	if len(got) != 2 {
		t.Fatalf("found %d maximal cliques %v, want 2", len(got), got)
	}
	if !reflect.DeepEqual(got[0], []int{0, 1, 2}) {
		t.Fatalf("largest clique = %v, want [0 1 2]", got[0])
	}
	if !reflect.DeepEqual(got[1], []int{2, 3}) {
		t.Fatalf("second clique = %v, want [2 3]", got[1])
	}
}

func TestMaximalCliquesEarlyStop(t *testing.T) {
	g := Complete(10)
	calls := 0
	maximalCliques(g, func(c []int) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("early stop ignored: %d calls", calls)
	}
}

func TestMaxCliqueSize(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{"K6", Complete(6), 6},
		{"empty5", Empty(5), 1},
		{"cycle5", Cycle(5), 2},
		{"caveman", Caveman(3, 4), 4},
	}
	for _, tc := range tests {
		if got := MaxCliqueSize(tc.g); got != tc.want {
			t.Errorf("%s: MaxCliqueSize = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// Property: every maximal clique emitted is a clique and is maximal (no
// vertex outside is adjacent to all members).
func TestMaximalCliquesProperty(t *testing.T) {
	r := rng.New(5150)
	f := func(seed uint64) bool {
		rr := r.Split(seed)
		n := 1 + rr.Intn(18)
		g := Gnp(n, 0.5, rr)
		ok := true
		maximalCliques(g, func(c []int) bool {
			if !g.IsClique(c) {
				ok = false
				return false
			}
			inClique := make(map[int]bool, len(c))
			for _, v := range c {
				inClique[v] = true
			}
			for v := 0; v < n; v++ {
				if inClique[v] {
					continue
				}
				all := true
				for _, u := range c {
					if !g.HasEdge(u, v) {
						all = false
						break
					}
				}
				if all {
					ok = false // c wasn't maximal
					return false
				}
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDegeneracyOrdering(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{"empty", Empty(5), 0},
		{"path", Path(6), 1},
		{"cycle", Cycle(6), 2},
		{"complete", Complete(5), 4},
		{"star", Star(10), 1},
	}
	for _, tc := range tests {
		order, d := DegeneracyOrdering(tc.g)
		if d != tc.want {
			t.Errorf("%s: degeneracy = %d, want %d", tc.name, d, tc.want)
		}
		if len(order) != tc.g.N() {
			t.Errorf("%s: ordering covers %d of %d vertices", tc.name, len(order), tc.g.N())
		}
		seen := make(map[int]bool)
		for _, v := range order {
			if seen[v] {
				t.Errorf("%s: vertex %d repeated in ordering", tc.name, v)
			}
			seen[v] = true
		}
	}
}

func TestGreedyMaxWeightIndependentSet(t *testing.T) {
	// Path 0-1-2: weights favour the endpoints.
	g := Path(3)
	set, total := greedyMaxWeightIndependentSet(g, []float64{1, 0.5, 1})
	if !reflect.DeepEqual(set, []int{0, 2}) {
		t.Fatalf("set = %v, want [0 2]", set)
	}
	if total != 2 {
		t.Fatalf("total = %v, want 2", total)
	}
	if !g.IsIndependentSet(set) {
		t.Fatal("result is not independent")
	}
}

// Property: greedy independent set output is always independent.
func TestGreedyMWISProperty(t *testing.T) {
	r := rng.New(31)
	f := func(seed uint64) bool {
		rr := r.Split(seed)
		n := 1 + rr.Intn(30)
		g := Gnp(n, 0.4, rr)
		w := make([]float64, n)
		for i := range w {
			w[i] = rr.Float64()
		}
		set, total := greedyMaxWeightIndependentSet(g, w)
		if !g.IsIndependentSet(set) {
			return false
		}
		var sum float64
		for _, v := range set {
			sum += w[v]
		}
		// Summation order differs between the greedy loop and this check,
		// so compare with a floating-point tolerance.
		return math.Abs(sum-total) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// MaxCliqueSize returns the order of a largest clique, found by exhaustive
// Bron-Kerbosch enumeration. Use only on small graphs.
func MaxCliqueSize(g *Graph) int {
	best := 0
	maximalCliques(g, func(c []int) bool {
		if len(c) > best {
			best = len(c)
		}
		return true
	})
	return best
}
