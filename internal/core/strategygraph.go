package core

import (
	"slices"

	"netbandit/internal/graphs"
	"netbandit/internal/strategy"
)

// BuildStrategyGraph constructs the strategy relation graph SG(F, L) of
// Section IV: one vertex per feasible strategy, and an edge between s_x
// and s_y exactly when each strategy's component arms lie inside the
// other's closure — s_y ⊆ Y_x and s_x ⊆ Y_y. Playing either endpoint of an
// edge reveals every component reward of the other, which is what lets
// DFL-CSO run the single-play side-observation machinery over com-arms.
//
// Up to 64 arms every arm and closure set is one machine word, and a scan
// of all |F|² pairs at two AND-NOTs each is the fastest way to the edge
// set. Past 64 arms the scan gives way to an index walk whose cost follows
// the candidate pairs rather than |F|².
func BuildStrategyGraph(set *strategy.Set) *graphs.Graph {
	if set.K() <= 64 {
		return buildStrategyGraphWord(set)
	}
	return buildStrategyGraphIndex(set)
}

// buildStrategyGraphWord is the one-word pair scan. Edges are accumulated
// in an adjacency bit matrix and materialised in one bulk pass
// (graphs.NewFromBitRows), so no per-edge sorted insertion is paid.
func buildStrategyGraphWord(set *strategy.Set) *graphs.Graph {
	n := set.Len()
	arm := make([]uint64, n)
	clo := make([]uint64, n)
	for x := 0; x < n; x++ {
		arm[x] = wordOf(set.Arms(x))
		clo[x] = wordOf(set.Closure(x))
	}
	wn := (n + 63) / 64
	rows := make([]uint64, n*wn)
	for x := 0; x < n; x++ {
		ax, cx := arm[x], clo[x]
		rowx := rows[x*wn : (x+1)*wn]
		for y := x + 1; y < n; y++ {
			if arm[y]&^cx == 0 && ax&^clo[y] == 0 {
				rowx[y>>6] |= 1 << (uint(y) & 63)
				rows[y*wn+(x>>6)] |= 1 << (uint(x) & 63)
			}
		}
	}
	return graphs.NewFromBitRows(n, rows)
}

// wordOf packs arms below 64 into one bitset word.
func wordOf(arms []int) uint64 {
	var w uint64
	for _, a := range arms {
		w |= 1 << uint(a)
	}
	return w
}

// buildStrategyGraphIndex finds the edges without visiting every pair.
// s_y ⊆ Y_x requires min(s_y) ∈ Y_x, so strategies are bucketed by their
// smallest arm and x only visits the buckets of the arms in Y_x. A per-arm
// stamp marking Y_x, reused across x, tests s_y ⊆ Y_x in O(|s_y|), and the
// candidates that pass take a sorted merge of s_x against Y_y. On the
// K = 10⁴ window family this is about 2·10⁵ candidate tests where the pair
// scan made 5·10⁷. The edges leave as sorted per-strategy runs through
// graphs.NewFromUpperRuns, which picks the representation for the exact
// density: sparse at K = 10⁴, the bit matrix for dense families.
func buildStrategyGraphIndex(set *strategy.Set) *graphs.Graph {
	n, k := set.Len(), set.K()
	// Bucket a, the strategies whose smallest arm is a, is
	// byMin[start[a]:start[a+1]].
	start := make([]int, k+1)
	for x := 0; x < n; x++ {
		start[set.Arms(x)[0]]++
	}
	for a := 1; a <= k; a++ {
		start[a] += start[a-1]
	}
	byMin := make([]int, n)
	for x := n - 1; x >= 0; x-- {
		a := set.Arms(x)[0]
		start[a]--
		byMin[start[a]] = x
	}

	stamp := make([]int, k) // stamp[i] == x+1 iff i ∈ Y_x
	// Edges {x, y} with x < y, as per-x neighbour runs up[off[x]:off[x+1]].
	var up []int
	off := make([]int, n+1)
	for x := 0; x < n; x++ {
		ax, yx, tag := set.Arms(x), set.Closure(x), x+1
		for _, i := range yx {
			stamp[i] = tag
		}
		run := len(up)
		for _, a := range yx {
		candidates:
			for _, y := range byMin[start[a]:start[a+1]] {
				if y <= x {
					continue
				}
				for _, i := range set.Arms(y) {
					if stamp[i] != tag {
						continue candidates
					}
				}
				if isSubset(ax, set.Closure(y)) {
					up = append(up, y)
				}
			}
		}
		slices.Sort(up[run:])
		off[x+1] = len(up)
	}
	return graphs.NewFromUpperRuns(n, off, up)
}

// buildStrategyGraphMerge is the pre-bitset reference implementation,
// kept verbatim so the property tests can check the kernels against an
// independently derived answer on random families.
func buildStrategyGraphMerge(set *strategy.Set) *graphs.Graph {
	n := set.Len()
	sg := graphs.New(n)
	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			if isSubset(set.Arms(y), set.Closure(x)) && isSubset(set.Arms(x), set.Closure(y)) {
				sg.MustAddEdge(x, y)
			}
		}
	}
	return sg
}

// isSubset reports whether sorted slice a is a subset of sorted slice b.
func isSubset(a, b []int) bool {
	i := 0
	for _, v := range a {
		for i < len(b) && b[i] < v {
			i++
		}
		if i == len(b) || b[i] != v {
			return false
		}
		i++
	}
	return true
}
