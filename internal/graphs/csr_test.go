package graphs

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"netbandit/internal/rng"
)

// buildBoth inserts the same edge set, in a shuffled order with random
// orientations, into one dense and one sparse graph.
func buildBoth(t *testing.T, n int, edges [][2]int, r *rng.RNG) (dense, sparse *Graph) {
	t.Helper()
	shuffled := append([][2]int(nil), edges...)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	dense, sparse = newGraph(n, true), newGraph(n, false)
	if !dense.Dense() || sparse.Dense() {
		t.Fatalf("representation flags wrong: dense=%v sparse=%v", dense.Dense(), sparse.Dense())
	}
	for _, e := range shuffled {
		u, v := e[0], e[1]
		if r.Bernoulli(0.5) {
			u, v = v, u
		}
		dense.MustAddEdge(u, v)
		sparse.MustAddEdge(u, v)
	}
	return dense, sparse
}

// checkEquivalent drives every read API of the two graphs and fails on the
// first divergence. This is the CSR-vs-dense contract: the representation
// is invisible through the exported seam.
func checkEquivalent(t *testing.T, dense, sparse *Graph) {
	t.Helper()
	n := dense.N()
	if sparse.N() != n || sparse.M() != dense.M() {
		t.Fatalf("shape: dense (%d,%d) sparse (%d,%d)", n, dense.M(), sparse.N(), sparse.M())
	}
	dstD := make([]uint64, dense.Words())
	dstS := make([]uint64, sparse.Words())
	for v := 0; v < n; v++ {
		if dense.Degree(v) != sparse.Degree(v) {
			t.Fatalf("Degree(%d): %d vs %d", v, dense.Degree(v), sparse.Degree(v))
		}
		if !reflect.DeepEqual(dense.Neighbors(v), sparse.Neighbors(v)) {
			t.Fatalf("Neighbors(%d) differ", v)
		}
		if !reflect.DeepEqual(dense.ClosedNeighborhood(v), sparse.ClosedNeighborhood(v)) {
			t.Fatalf("ClosedNeighborhood(%d) differ", v)
		}
		for i := range dstD {
			dstD[i], dstS[i] = 0, 0
		}
		dense.OrClosedInto(dstD, v)
		sparse.OrClosedInto(dstS, v)
		if !reflect.DeepEqual(dstD, dstS) {
			t.Fatalf("OrClosedInto(%d) differ: %x vs %x", v, dstD, dstS)
		}
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if dense.HasEdge(u, v) != sparse.HasEdge(u, v) {
				t.Fatalf("HasEdge(%d,%d): %v vs %v", u, v, dense.HasEdge(u, v), sparse.HasEdge(u, v))
			}
		}
	}
	// Spot-check a handful of vertex pairs through the intersection kernel.
	for u := 0; u < n; u += 7 {
		for v := u + 1; v < n; v += 11 {
			if dc, sc := dense.commonNeighborCount(u, v), sparse.commonNeighborCount(u, v); dc != sc {
				t.Fatalf("commonNeighborCount(%d,%d): %d vs %d", u, v, dc, sc)
			}
		}
	}
	if !reflect.DeepEqual(dense.Edges(), sparse.Edges()) {
		t.Fatal("Edges differ")
	}
}

// TestSparseDenseEquivalence builds the same random G(n,p) edge sets into
// both representations across word-boundary sizes and a density sweep, and
// requires every exported read to agree.
func TestSparseDenseEquivalence(t *testing.T) {
	sizes := []int{1, 2, 63, 64, 65, 127, 128, 129}
	densities := []float64{0.02, 0.2, 0.6}
	for _, n := range sizes {
		for _, p := range densities {
			ref := Gnp(n, p, rng.New(uint64(n)*13+uint64(p*100)))
			dense, sparse := buildBoth(t, n, ref.Edges(), rng.New(uint64(n)+7))
			checkEquivalent(t, dense, sparse)
		}
	}
	// One larger, sparser instance past the auto-dense limit.
	ref := Gnp(1000, 0.01, rng.New(99))
	dense, sparse := buildBoth(t, 1000, ref.Edges(), rng.New(100))
	checkEquivalent(t, dense, sparse)
}

// TestSparseDenseAlgorithmsAgree runs the graph algorithms that consume
// adjacency rows (clique cover, Bron-Kerbosch, traversal, complement,
// induced subgraphs) on both representations of the same graph.
func TestSparseDenseAlgorithmsAgree(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{{30, 0.3}, {65, 0.15}, {80, 0.5}} {
		ref := Gnp(tc.n, tc.p, rng.New(uint64(tc.n)))
		dense, sparse := buildBoth(t, tc.n, ref.Edges(), rng.New(5))
		if !reflect.DeepEqual(GreedyCliqueCover(dense), GreedyCliqueCover(sparse)) {
			t.Fatalf("n=%d p=%v: clique covers differ", tc.n, tc.p)
		}
		var cd, cs [][]int
		maximalCliques(dense, func(c []int) bool {
			cd = append(cd, append([]int(nil), c...))
			return true
		})
		maximalCliques(sparse, func(c []int) bool {
			cs = append(cs, append([]int(nil), c...))
			return true
		})
		if !reflect.DeepEqual(cd, cs) {
			t.Fatalf("n=%d p=%v: maximal cliques differ (%d vs %d)", tc.n, tc.p, len(cd), len(cs))
		}
		if !reflect.DeepEqual(BFS(dense, 0), BFS(sparse, 0)) {
			t.Fatalf("n=%d p=%v: BFS differs", tc.n, tc.p)
		}
		if !reflect.DeepEqual(ConnectedComponents(dense), ConnectedComponents(sparse)) {
			t.Fatalf("n=%d p=%v: components differ", tc.n, tc.p)
		}
		if !reflect.DeepEqual(dense.Complement().Edges(), sparse.Complement().Edges()) {
			t.Fatalf("n=%d p=%v: complements differ", tc.n, tc.p)
		}
		sub1, orig1 := dense.InducedSubgraph([]int{0, 3, 5, 7, 11, 13})
		sub2, orig2 := sparse.InducedSubgraph([]int{0, 3, 5, 7, 11, 13})
		if !reflect.DeepEqual(orig1, orig2) || !reflect.DeepEqual(sub1.Edges(), sub2.Edges()) {
			t.Fatalf("n=%d p=%v: induced subgraphs differ", tc.n, tc.p)
		}
		if c := sparse.Clone(); c.Dense() || !reflect.DeepEqual(c.Edges(), sparse.Edges()) {
			t.Fatalf("n=%d p=%v: sparse clone wrong (dense=%v)", tc.n, tc.p, c.Dense())
		}
	}
}

// TestNewAutoSelection pins the representation policy: small graphs are
// always dense, large graphs go sparse unless the density hint justifies
// the matrix.
func TestNewAutoSelection(t *testing.T) {
	cases := []struct {
		n       int
		density float64
		dense   bool
	}{
		{100, 0.0, true},              // small: always dense
		{DenseVertexLimit, 0.0, true}, // boundary inclusive
		{DenseVertexLimit + 1, 0.001, false},
		{8192, 0.5, true},    // big but dense hint, matrix 8 MB
		{8192, 0.001, false}, // big and sparse hint
		{200000, 0.9, false}, // matrix would exceed the byte cap
	}
	for _, tc := range cases {
		if got := NewAuto(tc.n, tc.density).Dense(); got != tc.dense {
			t.Errorf("NewAuto(%d, %v).Dense() = %v, want %v", tc.n, tc.density, got, tc.dense)
		}
	}
	if !New(10).Dense() || New(DenseVertexLimit+1).Dense() {
		t.Error("New auto-selection thresholds moved")
	}
}

// TestGnpSparse checks the skip-sampling generator: determinism, edge-count
// concentration around p·C(n,2), degenerate p, and representation choice.
func TestGnpSparse(t *testing.T) {
	if g := GnpSparse(50, 0, rng.New(1)); g.M() != 0 {
		t.Fatalf("p=0 produced %d edges", g.M())
	}
	if g := GnpSparse(10, 1, rng.New(1)); g.M() != 45 {
		t.Fatalf("p=1 produced %d edges, want 45", g.M())
	}
	a := GnpSparse(300, 0.05, rng.New(42))
	b := GnpSparse(300, 0.05, rng.New(42))
	if !reflect.DeepEqual(a.Edges(), b.Edges()) {
		t.Fatal("GnpSparse not deterministic for a fixed seed")
	}
	// Expected edges = p·C(n,2) = 0.05·44850 ≈ 2242, sd ≈ 46. Five sigma.
	mean := 0.05 * 44850
	sd := math.Sqrt(44850 * 0.05 * 0.95)
	if diff := math.Abs(float64(a.M()) - mean); diff > 5*sd {
		t.Fatalf("edge count %d too far from expectation %.0f (%.1f sd)", a.M(), mean, diff/sd)
	}
	// Degrees must match the sorted adjacency invariant.
	for v := 0; v < a.N(); v++ {
		nb := a.Neighbors(v)
		if !sort.IntsAreSorted(nb) {
			t.Fatalf("Neighbors(%d) unsorted", v)
		}
	}
	if GnpSparse(DenseVertexLimit+100, 0.001, rng.New(7)).Dense() {
		t.Fatal("large sparse GnpSparse chose the dense representation")
	}
}

// TestClosedRowsWordBoundaries is the closed-row half of the word-boundary
// satellite: at K values straddling one-, two-, and multi-word rows, the
// incrementally maintained closed rows and OrClosedInto must match a naive
// recomputation from the adjacency lists, in both representations.
func TestClosedRowsWordBoundaries(t *testing.T) {
	for _, k := range []int{63, 64, 65, 127, 128, 129, 1000} {
		p := 0.1
		if k >= 1000 {
			p = 0.01
		}
		ref := Gnp(k, p, rng.New(uint64(k)))
		dense, sparse := buildBoth(t, k, ref.Edges(), rng.New(uint64(k)+1))
		for _, g := range []*Graph{dense, sparse} {
			dst := make([]uint64, g.Words())
			for v := 0; v < k; v++ {
				want := recomputeClosed(g, v)
				if got := g.ClosedNeighborhood(v); !reflect.DeepEqual(got, want) {
					t.Fatalf("k=%d dense=%v: closed row %d = %v, want %v", k, g.Dense(), v, got, want)
				}
				for i := range dst {
					dst[i] = 0
				}
				g.OrClosedInto(dst, v)
				if got := bitsetToSlice(dst, k); !reflect.DeepEqual(got, want) {
					t.Fatalf("k=%d dense=%v: OrClosedInto(%d) = %v, want %v", k, g.Dense(), v, got, want)
				}
			}
		}
	}
}
