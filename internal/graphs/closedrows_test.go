package graphs

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"netbandit/internal/rng"
)

// recomputeClosed derives {v} ∪ N(v) from the adjacency list, independent
// of the incrementally maintained row.
func recomputeClosed(g *Graph, v int) []int {
	out := append([]int{v}, g.Neighbors(v)...)
	sort.Ints(out)
	return out
}

// TestClosedRowsUnderRandomInsertOrder inserts the same edge set in random
// orders (the incremental maintenance's worst case: neighbours arriving on
// both sides of the self entry) and checks every closed row.
func TestClosedRowsUnderRandomInsertOrder(t *testing.T) {
	r := rng.New(17)
	ref := Gnp(30, 0.4, rng.New(3))
	edges := ref.Edges()
	for trial := 0; trial < 5; trial++ {
		r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		g := New(30)
		for _, e := range edges {
			// Randomly flip edge orientation too.
			if r.Bernoulli(0.5) {
				g.MustAddEdge(e[1], e[0])
			} else {
				g.MustAddEdge(e[0], e[1])
			}
		}
		for v := 0; v < g.N(); v++ {
			if got, want := g.ClosedNeighborhood(v), recomputeClosed(g, v); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: ClosedNeighborhood(%d) = %v, want %v", trial, v, got, want)
			}
		}
	}
}

// TestClosedNeighborhoodZeroAlloc is the satellite fix's guarantee: DFL
// policies call ClosedNeighborhood every round, so it must return the
// shared precomputed row without allocating.
func TestClosedNeighborhoodZeroAlloc(t *testing.T) {
	g := Gnp(50, 0.3, rng.New(5))
	var sink []int
	allocs := testing.AllocsPerRun(1000, func() {
		sink = g.ClosedNeighborhood(17)
	})
	if allocs != 0 {
		t.Fatalf("ClosedNeighborhood allocates %v per call", allocs)
	}
	_ = sink
}

func TestOrClosedInto(t *testing.T) {
	g := Star(8) // hub 0
	dst := make([]uint64, g.Words())
	g.OrClosedInto(dst, 3)
	g.OrClosedInto(dst, 5)
	// N̄_3 ∪ N̄_5 = {0, 3, 5} on a star.
	if dst[0] != (1<<0)|(1<<3)|(1<<5) {
		t.Fatalf("OrClosedInto produced %b", dst[0])
	}
}

func TestNewFromBitRowsMatchesAddEdge(t *testing.T) {
	ref := Gnp(70, 0.25, rng.New(9)) // two-word rows
	words := ref.Words()
	rows := make([]uint64, ref.N()*words)
	for _, e := range ref.Edges() {
		u, v := e[0], e[1]
		rows[u*words+v/64] |= 1 << (uint(v) % 64)
		rows[v*words+u/64] |= 1 << (uint(u) % 64)
	}
	g := NewFromBitRows(ref.N(), rows)
	if g.N() != ref.N() || g.M() != ref.M() {
		t.Fatalf("shape (%d,%d), want (%d,%d)", g.N(), g.M(), ref.N(), ref.M())
	}
	for v := 0; v < ref.N(); v++ {
		if !reflect.DeepEqual(g.Neighbors(v), ref.Neighbors(v)) {
			t.Fatalf("Neighbors(%d) = %v, want %v", v, g.Neighbors(v), ref.Neighbors(v))
		}
		if !reflect.DeepEqual(g.ClosedNeighborhood(v), ref.ClosedNeighborhood(v)) {
			t.Fatalf("ClosedNeighborhood(%d) = %v, want %v", v, g.ClosedNeighborhood(v), ref.ClosedNeighborhood(v))
		}
	}
	// The result must behave like any other graph under further mutation.
	free := -1
	for u := 0; u < g.N() && free < 0; u++ {
		for v := u + 1; v < g.N(); v++ {
			if !g.HasEdge(u, v) {
				free = u*g.N() + v
				break
			}
		}
	}
	if free >= 0 {
		u, v := free/g.N(), free%g.N()
		g.MustAddEdge(u, v)
		if got, want := g.ClosedNeighborhood(u), recomputeClosed(g, u); !reflect.DeepEqual(got, want) {
			t.Fatalf("closed row stale after post-bulk AddEdge: %v want %v", got, want)
		}
	}
}

func TestNewFromBitRowsRejectsBadMatrices(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	expectPanic("wrong length", func() { NewFromBitRows(3, make([]uint64, 2)) })
	expectPanic("self-loop", func() {
		rows := make([]uint64, 3)
		rows[1] = 1 << 1
		NewFromBitRows(3, rows)
	})
	expectPanic("asymmetric", func() {
		rows := make([]uint64, 3)
		rows[0] = 1 << 2 // 0->2 without 2->0
		NewFromBitRows(3, rows)
	})
}

// upperRuns lists ref's edges as NewFromUpperRuns takes them.
func upperRuns(ref *Graph) (off, up []int) {
	off = make([]int, ref.N()+1)
	for u := 0; u < ref.N(); u++ {
		for _, v := range ref.Neighbors(u) {
			if v > u {
				up = append(up, v)
			}
		}
		off[u+1] = len(up)
	}
	return off, up
}

func TestNewFromUpperRunsMatchesAddEdge(t *testing.T) {
	for _, ref := range []*Graph{
		Gnp(70, 0.25, rng.New(9)),                  // dense: two-word rows
		GnpSparse(5000, 0.001, rng.New(9)),         // sparse: past DenseVertexLimit
		Gnp(DenseVertexLimit+10, 0.02, rng.New(9)), // dense by density past the limit
		New(5), // edgeless
	} {
		off, up := upperRuns(ref)
		g := NewFromUpperRuns(ref.N(), off, up)
		density := float64(ref.M()) / (float64(ref.N()) * float64(ref.N()-1) / 2)
		dense := NewAuto(ref.N(), density).Dense()
		if g.N() != ref.N() || g.M() != ref.M() || g.Dense() != dense {
			t.Fatalf("shape (%d,%d,dense=%v), want (%d,%d,dense=%v)", g.N(), g.M(), g.Dense(), ref.N(), ref.M(), dense)
		}
		for v := 0; v < ref.N(); v++ {
			if !slices.Equal(g.Neighbors(v), ref.Neighbors(v)) {
				t.Fatalf("Neighbors(%d) = %v, want %v", v, g.Neighbors(v), ref.Neighbors(v))
			}
			if !reflect.DeepEqual(g.ClosedNeighborhood(v), ref.ClosedNeighborhood(v)) {
				t.Fatalf("ClosedNeighborhood(%d) = %v, want %v", v, g.ClosedNeighborhood(v), ref.ClosedNeighborhood(v))
			}
			for _, u := range []int{0, v / 2, ref.N() - 1} {
				if g.HasEdge(u, v) != ref.HasEdge(u, v) {
					t.Fatalf("HasEdge(%d,%d) = %v, want %v", u, v, g.HasEdge(u, v), ref.HasEdge(u, v))
				}
			}
		}
		// The result must behave like any other graph under further mutation.
		free := -1
		for u := 0; u < g.N() && free < 0; u++ {
			for v := u + 1; v < g.N(); v++ {
				if !g.HasEdge(u, v) {
					free = u*g.N() + v
					break
				}
			}
		}
		if free >= 0 {
			u, v := free/g.N(), free%g.N()
			g.MustAddEdge(u, v)
			if got, want := g.ClosedNeighborhood(u), recomputeClosed(g, u); !reflect.DeepEqual(got, want) {
				t.Fatalf("closed row stale after post-bulk AddEdge: %v want %v", got, want)
			}
			if got, want := g.ClosedNeighborhood(u+1), recomputeClosed(g, u+1); !reflect.DeepEqual(got, want) {
				t.Fatalf("neighbouring closed row clobbered by post-bulk AddEdge: %v want %v", got, want)
			}
		}
	}
}

func TestNewFromUpperRunsRejectsBadRuns(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	expectPanic("short offsets", func() { NewFromUpperRuns(3, []int{0, 0}, nil) })
	expectPanic("offsets miss the end", func() { NewFromUpperRuns(3, []int{0, 1, 1, 1}, []int{1, 2}) })
	expectPanic("self-loop", func() { NewFromUpperRuns(3, []int{0, 0, 1, 1}, []int{1}) })
	expectPanic("neighbour below", func() { NewFromUpperRuns(3, []int{0, 0, 1, 1}, []int{0}) })
	expectPanic("out of range", func() { NewFromUpperRuns(3, []int{0, 1, 1, 1}, []int{3}) })
	expectPanic("not increasing", func() { NewFromUpperRuns(3, []int{0, 2, 2, 2}, []int{2, 1}) })
	expectPanic("duplicate", func() { NewFromUpperRuns(3, []int{0, 2, 2, 2}, []int{1, 1}) })
}
