package graphs

import (
	"testing"
	"testing/quick"

	"netbandit/internal/rng"
)

func TestExactCliqueCoverNumberKnownGraphs(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{"empty graph", New(0), 0},
		{"singleton", New(1), 1},
		{"edgeless", Empty(5), 5},           // each vertex its own clique
		{"complete", Complete(6), 1},        // one clique
		{"path4", Path(4), 2},               // {0,1},{2,3}
		{"cycle5", Cycle(5), 3},             // odd cycle: ceil(5/2)
		{"cycle6", Cycle(6), 3},             // three edges
		{"star5", Star(5), 4},               // hub pairs with one leaf
		{"caveman", Caveman(3, 4), 3},       // exactly its 3 cliques
		{"two triangles", Caveman(2, 3), 2}, //
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := ExactCliqueCoverNumber(tc.g); got != tc.want {
				t.Fatalf("χ̄ = %d, want %d", got, tc.want)
			}
		})
	}
}

// Property: greedy cover size >= exact cover number, and the exact number
// is at least n / (max clique size).
func TestExactVsGreedyCoverProperty(t *testing.T) {
	r := rng.New(99)
	f := func(seed uint64) bool {
		rr := r.Split(seed)
		n := 2 + rr.Intn(12)
		g := Gnp(n, 0.3+0.4*rr.Float64(), rr)
		exact := ExactCliqueCoverNumber(g)
		greedy := CliqueCoverNumber(g)
		if greedy < exact {
			return false // greedy cannot beat the optimum
		}
		maxClique := MaxCliqueSize(g)
		if maxClique == 0 {
			return n == 0
		}
		// Pigeonhole lower bound.
		lower := (n + maxClique - 1) / maxClique
		return exact >= lower
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyCoverNearOptimalOnRandomGraphs(t *testing.T) {
	// Not a guarantee, but a regression check at our simulation scales:
	// greedy should stay within 2x of optimal on small dense graphs.
	r := rng.New(123)
	for i := 0; i < 10; i++ {
		g := Gnp(14, 0.5, r.Split(uint64(i)))
		exact := ExactCliqueCoverNumber(g)
		greedy := CliqueCoverNumber(g)
		if greedy > 2*exact {
			t.Fatalf("greedy cover %d more than 2x optimal %d", greedy, exact)
		}
	}
}

// ExactCliqueCoverNumber computes the exact clique-cover number χ̄(g) — the
// minimum number of cliques needed to partition the vertices — by
// branch-and-bound colouring of the complement graph (a clique cover of G
// is precisely a proper colouring of its complement). The search is
// exponential in the worst case; intended for validation on graphs of a
// few dozen vertices, where it certifies how far the greedy cover used in
// the Theorem 1 bound is from optimal.
func ExactCliqueCoverNumber(g *Graph) int {
	n := g.N()
	if n == 0 {
		return 0
	}
	comp := g.Complement()
	return chromaticNumber(comp)
}

// chromaticNumber computes χ(g) by branch and bound with a
// largest-first vertex order and greedy upper bound.
func chromaticNumber(g *Graph) int {
	n := g.N()
	if n == 0 {
		return 0
	}
	// Vertex order: descending degree accelerates pruning.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && g.Degree(order[j]) > g.Degree(order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	// Greedy upper bound seeds the search.
	best := greedyColorCount(g, order)
	colors := make([]int, n) // 0 = uncoloured; 1..k assigned
	var rec func(pos, used int)
	rec = func(pos, used int) {
		if used >= best {
			return // cannot improve
		}
		if pos == n {
			best = used
			return
		}
		v := order[pos]
		// Try existing colours.
		for c := 1; c <= used; c++ {
			if colorFeasible(g, colors, v, c) {
				colors[v] = c
				rec(pos+1, used)
				colors[v] = 0
			}
		}
		// Open one new colour (symmetric choices beyond used+1 are
		// equivalent, so trying exactly one suffices).
		if used+1 < best {
			colors[v] = used + 1
			rec(pos+1, used+1)
			colors[v] = 0
		}
	}
	rec(0, 0)
	return best
}

func colorFeasible(g *Graph, colors []int, v, c int) bool {
	for _, u := range g.adj[v] {
		if colors[u] == c {
			return false
		}
	}
	return true
}

func greedyColorCount(g *Graph, order []int) int {
	n := g.N()
	colors := make([]int, n)
	used := 0
	for _, v := range order {
		c := 1
		for !colorFeasible(g, colors, v, c) {
			c++
		}
		colors[v] = c
		if c > used {
			used = c
		}
	}
	return used
}
