package graphs

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"netbandit/internal/rng"
)

// Gnp returns an Erdős–Rényi random graph G(n, p): each of the C(n,2)
// possible edges is present independently with probability p. This is the
// paper's "arms uniformly and randomly connected with probability p" model
// used in Figures 3-6.
func Gnp(n int, p float64, r *rng.RNG) *Graph {
	g := New(n)
	if p <= 0 {
		return g
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Bernoulli(p) {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

// GnpSparse returns a G(n, p) random graph in expected O(n + m) time and
// memory: instead of flipping C(n,2) coins it jumps between successive
// edges with geometric skips (each skip length is distributed as the gap
// between successes in a Bernoulli(p) sequence), and it stores the result
// in the sparse representation chosen by NewAuto. This is the generator
// for the large-K workloads — Gnp's O(n²) loop and O(n²)-bit matrix are
// both unaffordable at K = 10⁴–10⁵. The two generators consume r
// differently, so the same seed yields different (equally distributed)
// graphs.
func GnpSparse(n int, p float64, r *rng.RNG) *Graph {
	if p >= 1 {
		// Every edge present: the dense generator is already optimal and
		// the skip recurrence below would divide by log(1-p) = -Inf.
		return Complete(n)
	}
	g := NewAuto(n, p)
	if p <= 0 || n < 2 {
		return g
	}
	// Walk the upper triangle in row-major order (u ascending, then v),
	// advancing by 1 + Geometric(p) positions per edge. Row-major order
	// means every AddEdge hits insertSorted's O(1) append fast paths.
	invLog := 1 / math.Log1p(-p)
	u, v := 0, 0 // v is the last *consumed* column in row u; row starts at v = u
	skip := func() int {
		// floor(log(U)/log(1-p)) failures before the next success; U is in
		// [0, 1), so guard the log(0) = -Inf corner to a huge skip.
		uni := r.Float64()
		if uni == 0 {
			return int(math.MaxInt32)
		}
		return int(math.Log(uni) * invLog)
	}
	for u < n-1 {
		gap := skip() + 1
		for u < n-1 && v+gap >= n {
			gap -= n - 1 - v // unused remainder of row u
			u++
			v = u
		}
		if u >= n-1 {
			break
		}
		v += gap
		g.MustAddEdge(u, v)
	}
	return g
}

// BarabasiAlbert returns a preferential-attachment graph: it starts from a
// clique on m0 = attach vertices and attaches each subsequent vertex to
// `attach` existing vertices chosen proportionally to degree. Such graphs
// model social relation graphs with hub users. It panics if attach < 1 or
// n < attach+1.
func BarabasiAlbert(n, attach int, r *rng.RNG) *Graph {
	if attach < 1 {
		panic("graphs: BarabasiAlbert needs attach >= 1")
	}
	if n < attach+1 {
		panic(fmt.Sprintf("graphs: BarabasiAlbert needs n >= attach+1 (n=%d, attach=%d)", n, attach))
	}
	g := New(n)
	// Seed clique.
	for u := 0; u < attach; u++ {
		for v := u + 1; v < attach; v++ {
			g.MustAddEdge(u, v)
		}
	}
	// Repeated-vertex list: each vertex appears once per incident edge,
	// so uniform sampling from it is degree-proportional sampling.
	repeated := make([]int, 0, 2*attach*n)
	for u := 0; u < attach; u++ {
		for v := u + 1; v < attach; v++ {
			repeated = append(repeated, u, v)
		}
	}
	if len(repeated) == 0 {
		// attach == 1: seed a single vertex with an artificial presence.
		repeated = append(repeated, 0)
	}
	// Targets are kept in draw order so the graph is a pure function of r.
	targets := make([]int, 0, attach)
	for v := attach; v < n; v++ {
		targets = targets[:0]
		for len(targets) < attach {
			if u := repeated[r.Intn(len(repeated))]; !slices.Contains(targets, u) {
				targets = append(targets, u)
			}
		}
		for _, u := range targets {
			g.MustAddEdge(u, v)
			repeated = append(repeated, u, v)
		}
	}
	return g
}

// WattsStrogatz returns a small-world graph: a ring lattice where each
// vertex connects to its k nearest neighbours (k even), with each edge
// rewired to a uniform random endpoint with probability beta. It panics if
// k is odd, k < 2, or n <= k.
func WattsStrogatz(n, k int, beta float64, r *rng.RNG) *Graph {
	if k < 2 || k%2 != 0 {
		panic("graphs: WattsStrogatz needs even k >= 2")
	}
	if n <= k {
		panic("graphs: WattsStrogatz needs n > k")
	}
	g := New(n)
	for u := 0; u < n; u++ {
		for d := 1; d <= k/2; d++ {
			v := (u + d) % n
			if r.Bernoulli(beta) {
				// Rewire: pick a random non-self, non-duplicate endpoint.
				for tries := 0; tries < 4*n; tries++ {
					w := r.Intn(n)
					if w != u && !g.HasEdge(u, w) {
						v = w
						break
					}
				}
			}
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

// RandomGeometric places n points uniformly in the unit square and links
// any pair within Euclidean distance radius. Geometric graphs model
// locality-driven similarity between arms.
func RandomGeometric(n int, radius float64, r *rng.RNG) *Graph {
	g := New(n)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	r2 := radius * radius
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			dx, dy := xs[u]-xs[v], ys[u]-ys[v]
			if dx*dx+dy*dy <= r2 {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

// Star returns a star graph: vertex 0 is the hub adjacent to all others.
func Star(n int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(0, v)
	}
	return g
}

// Cycle returns the n-cycle (a path for n == 2, empty for n < 2).
func Cycle(n int) *Graph {
	g := New(n)
	if n == 2 {
		g.MustAddEdge(0, 1)
		return g
	}
	if n < 3 {
		return g
	}
	for v := 0; v < n; v++ {
		g.MustAddEdge(v, (v+1)%n)
	}
	return g
}

// Path returns the path graph 0-1-...-n-1.
func Path(n int) *Graph {
	g := New(n)
	for v := 0; v+1 < n; v++ {
		g.MustAddEdge(v, v+1)
	}
	return g
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

// Empty returns the edgeless graph on n vertices. With no edges the
// networked-bandit model degenerates to the classical MAB, which makes this
// generator the natural control in ablation experiments.
func Empty(n int) *Graph { return New(n) }

// grid returns the rows×cols king-free grid graph (4-neighbour lattice).
func grid(rows, cols int) *Graph {
	g := New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.MustAddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.MustAddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// Caveman returns the connected-caveman graph: cliqueCount cliques of
// cliqueSize vertices, arranged in a ring with one edge between consecutive
// cliques. Its clique-cover number is exactly cliqueCount, which makes it a
// sharp test case for the C-dependent term of Theorem 1.
func Caveman(cliqueCount, cliqueSize int) *Graph {
	if cliqueCount < 1 || cliqueSize < 1 {
		panic("graphs: Caveman needs positive clique count and size")
	}
	n := cliqueCount * cliqueSize
	g := New(n)
	for c := 0; c < cliqueCount; c++ {
		base := c * cliqueSize
		for u := 0; u < cliqueSize; u++ {
			for v := u + 1; v < cliqueSize; v++ {
				g.MustAddEdge(base+u, base+v)
			}
		}
	}
	if cliqueCount > 1 && cliqueSize >= 1 {
		for c := 0; c < cliqueCount; c++ {
			u := c*cliqueSize + (cliqueSize - 1)
			v := ((c + 1) % cliqueCount) * cliqueSize
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

// GeneratorName identifies a named generator for CLI use.
type GeneratorName string

// Named generators accepted by FromName.
const (
	GenGnp       GeneratorName = "gnp"
	GenBA        GeneratorName = "ba"
	GenWS        GeneratorName = "ws"
	GenGeometric GeneratorName = "geometric"
	GenStar      GeneratorName = "star"
	GenCycle     GeneratorName = "cycle"
	GenPath      GeneratorName = "path"
	GenComplete  GeneratorName = "complete"
	GenEmpty     GeneratorName = "empty"
	GenCaveman   GeneratorName = "caveman"
)

// GeneratorNames lists the accepted names in stable order.
func GeneratorNames() []string {
	names := []string{
		string(GenGnp), string(GenBA), string(GenWS), string(GenGeometric),
		string(GenStar), string(GenCycle), string(GenPath),
		string(GenComplete), string(GenEmpty), string(GenCaveman),
	}
	sort.Strings(names)
	return names
}

// FromName builds a graph by generator name. The param argument is
// interpreted per generator: edge probability for gnp, attachment count for
// ba, rewiring probability for ws (with k fixed to 4), radius for
// geometric, clique size for caveman; it is ignored otherwise.
func FromName(name GeneratorName, n int, param float64, r *rng.RNG) (*Graph, error) {
	switch name {
	case GenGnp:
		return Gnp(n, param, r), nil
	case GenBA:
		attach := int(param)
		if attach < 1 {
			attach = 2
		}
		return BarabasiAlbert(n, attach, r), nil
	case GenWS:
		return WattsStrogatz(n, 4, param, r), nil
	case GenGeometric:
		return RandomGeometric(n, param, r), nil
	case GenStar:
		return Star(n), nil
	case GenCycle:
		return Cycle(n), nil
	case GenPath:
		return Path(n), nil
	case GenComplete:
		return Complete(n), nil
	case GenEmpty:
		return Empty(n), nil
	case GenCaveman:
		size := int(param)
		if size < 1 {
			size = 4
		}
		count := int(math.Max(1, float64(n/size)))
		return Caveman(count, size), nil
	default:
		return nil, fmt.Errorf("graphs: unknown generator %q (valid: %v)", name, GeneratorNames())
	}
}
