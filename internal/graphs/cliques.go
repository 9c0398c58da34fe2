package graphs

import (
	"math/bits"
	"sort"
)

// GreedyCliqueCover partitions the vertices of g into cliques using greedy
// colouring of the complement graph in descending-degree order (a clique
// cover of G is exactly a proper colouring of the complement of G). The
// returned cliques are disjoint, cover every vertex, and each is a clique
// in g. The cover is not guaranteed minimum — minimum clique cover is
// NP-hard — but the greedy bound suffices for the C term in Theorem 1.
func GreedyCliqueCover(g *Graph) [][]int {
	n := g.N()
	if n == 0 {
		return nil
	}
	// Order vertices by descending degree in g (ascending complement
	// degree), a standard greedy-colouring heuristic.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return g.Degree(order[a]) > g.Degree(order[b])
	})

	var cliques [][]int
	for _, v := range order {
		placed := false
		for ci, c := range cliques {
			ok := true
			for _, u := range c {
				if !g.HasEdge(u, v) {
					ok = false
					break
				}
			}
			if ok {
				cliques[ci] = append(c, v)
				placed = true
				break
			}
		}
		if !placed {
			cliques = append(cliques, []int{v})
		}
	}
	for _, c := range cliques {
		sort.Ints(c)
	}
	return cliques
}

// CliqueCoverNumber returns the size of the greedy clique cover: an upper
// bound on the clique-cover number χ̄(g) used in the Theorem 1 regret bound.
func CliqueCoverNumber(g *Graph) int {
	return len(GreedyCliqueCover(g))
}

// maximalCliques enumerates all maximal cliques of g via Bron-Kerbosch with
// pivoting, invoking emit for each clique (in increasing vertex order).
// If emit returns false, enumeration stops early. Intended for the modest
// graph sizes used in the simulations; the number of maximal cliques can be
// exponential in general.
func maximalCliques(g *Graph, emit func(clique []int) bool) {
	n := g.N()
	if n == 0 {
		return
	}
	words := (n + 63) / 64
	p := make([]uint64, words)
	x := make([]uint64, words)
	rset := make([]uint64, words)
	for v := 0; v < n; v++ {
		p[v/64] |= 1 << (uint(v) % 64)
	}
	var stopped bool
	bronKerbosch(g, rset, p, x, &stopped, emit)
}

func bronKerbosch(g *Graph, r, p, x []uint64, stopped *bool, emit func([]int) bool) {
	if *stopped {
		return
	}
	if isZero(p) && isZero(x) {
		if !emit(bitsetToSlice(r, g.N())) {
			*stopped = true
		}
		return
	}
	// Sparse graphs have no shared matrix rows; one per-level scratch row
	// is rebuilt for each vertex whose neighbourhood the level inspects
	// (adjBitsInto returns the shared row directly on dense graphs).
	var rowBuf []uint64
	if g.bits == nil {
		rowBuf = make([]uint64, len(p))
	}
	// Pivot: vertex in P ∪ X with most neighbours in P.
	pivot, best := -1, -1
	forEachBit(p, func(v int) {
		if c := countAnd(g.adjBitsInto(rowBuf, v), p); c > best {
			best, pivot = c, v
		}
	})
	forEachBit(x, func(v int) {
		if c := countAnd(g.adjBitsInto(rowBuf, v), p); c > best {
			best, pivot = c, v
		}
	})

	// Candidates: P \ N(pivot).
	words := len(p)
	cand := make([]uint64, words)
	copy(cand, p)
	if pivot >= 0 {
		prow := g.adjBitsInto(rowBuf, pivot)
		for w := 0; w < words; w++ {
			cand[w] &^= prow[w]
		}
	}
	pc := append([]uint64(nil), p...)
	xc := append([]uint64(nil), x...)
	forEachBit(cand, func(v int) {
		if *stopped {
			return
		}
		r2 := append([]uint64(nil), r...)
		r2[v/64] |= 1 << (uint(v) % 64)
		vrow := g.adjBitsInto(rowBuf, v)
		p2 := make([]uint64, words)
		x2 := make([]uint64, words)
		for w := 0; w < words; w++ {
			p2[w] = pc[w] & vrow[w]
			x2[w] = xc[w] & vrow[w]
		}
		bronKerbosch(g, r2, p2, x2, stopped, emit)
		pc[v/64] &^= 1 << (uint(v) % 64)
		xc[v/64] |= 1 << (uint(v) % 64)
	})
}

func isZero(b []uint64) bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

func countAnd(a, b []uint64) int { return AndCountWords(a, b) }

func bitsetToSlice(b []uint64, n int) []int {
	var out []int
	forEachBit(b, func(v int) {
		if v < n {
			out = append(out, v)
		}
	})
	return out
}

func forEachBit(b []uint64, f func(v int)) {
	for w, word := range b {
		for word != 0 {
			tz := bits.TrailingZeros64(word)
			f(w*64 + tz)
			word &= word - 1
		}
	}
}

// DegeneracyOrdering returns a vertex ordering in which each vertex has the
// minimum remaining degree at removal time, along with the graph's
// degeneracy (the largest such degree). Useful both as a sparsity measure
// and as a preprocessing order for clique algorithms.
func DegeneracyOrdering(g *Graph) (order []int, degeneracy int) {
	n := g.N()
	deg := make([]int, n)
	removed := make([]bool, n)
	// Bucket queue over degrees.
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	buckets := make([][]int, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], v)
	}
	order = make([]int, 0, n)
	for len(order) < n {
		// Find the lowest non-empty bucket containing a live vertex.
		v := -1
		for d := 0; d <= maxDeg; d++ {
			for len(buckets[d]) > 0 {
				cand := buckets[d][len(buckets[d])-1]
				buckets[d] = buckets[d][:len(buckets[d])-1]
				if !removed[cand] && deg[cand] == d {
					v = cand
					break
				}
			}
			if v >= 0 {
				break
			}
		}
		if v < 0 {
			break // should not happen
		}
		if deg[v] > degeneracy {
			degeneracy = deg[v]
		}
		removed[v] = true
		order = append(order, v)
		for _, u := range g.adj[v] {
			if !removed[u] {
				deg[u]--
				buckets[deg[u]] = append(buckets[deg[u]], u)
			}
		}
	}
	return order, degeneracy
}

// greedyMaxWeightIndependentSet returns an independent set found by the
// classical weight/(degree+1) greedy heuristic, along with its total
// weight. It is used by example programs as a combinatorial oracle over
// independent-set strategy spaces too large to enumerate.
func greedyMaxWeightIndependentSet(g *Graph, weight []float64) ([]int, float64) {
	n := g.N()
	alive := make([]bool, n)
	for v := range alive {
		alive[v] = true
	}
	var (
		set   []int
		total float64
	)
	for {
		best, bestScore := -1, 0.0
		for v := 0; v < n; v++ {
			if !alive[v] {
				continue
			}
			score := weight[v] / float64(g.Degree(v)+1)
			if best == -1 || score > bestScore {
				best, bestScore = v, score
			}
		}
		if best == -1 {
			break
		}
		set = append(set, best)
		total += weight[best]
		alive[best] = false
		for _, u := range g.adj[best] {
			alive[u] = false
		}
	}
	sort.Ints(set)
	return set, total
}
