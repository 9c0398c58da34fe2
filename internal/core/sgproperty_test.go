package core

import (
	"fmt"
	"runtime"
	"testing"

	"netbandit/internal/bandit"
	"netbandit/internal/graphs"
	"netbandit/internal/rng"
	"netbandit/internal/strategy"
)

// TestBitsetStrategyGraphMatchesMerge is the satellite property test: on
// random top-M families over random G(n, p) relation graphs — including
// K > 64 so the index walk is exercised — BuildStrategyGraph must produce
// exactly the edge set of the sorted-merge reference implementation.
func TestBitsetStrategyGraphMatchesMerge(t *testing.T) {
	cases := []struct {
		k, m int
		p    float64
	}{
		{8, 2, 0.3},
		{12, 2, 0.5},
		{14, 3, 0.2},
		{20, 2, 0.3},
		{70, 2, 0.1}, // past the 64-arm split: index walk
		{70, 1, 0.4}, // singleton family past the split
	}
	for ci, tc := range cases {
		for seed := uint64(0); seed < 3; seed++ {
			g := graphs.Gnp(tc.k, tc.p, rng.New(seed*31+uint64(ci)+1))
			set, err := strategy.TopM(tc.k, tc.m, g)
			if err != nil {
				t.Fatal(err)
			}
			fast := BuildStrategyGraph(set)
			ref := buildStrategyGraphMerge(set)
			if err := sameGraph(fast, ref); err != nil {
				t.Fatalf("k=%d m=%d p=%v seed=%d: %v", tc.k, tc.m, tc.p, seed, err)
			}
		}
	}
}

// sameGraph reports the first discrepancy between two graphs.
func sameGraph(a, b *graphs.Graph) error {
	if a.N() != b.N() || a.M() != b.M() {
		return fmt.Errorf("shape differs: (%d,%d) vs (%d,%d)", a.N(), a.M(), b.N(), b.M())
	}
	for u := 0; u < a.N(); u++ {
		for v := u + 1; v < a.N(); v++ {
			if a.HasEdge(u, v) != b.HasEdge(u, v) {
				return fmt.Errorf("edge (%d,%d): bitset=%v merge=%v", u, v, a.HasEdge(u, v), b.HasEdge(u, v))
			}
		}
	}
	return nil
}

// randomFamily draws count distinct random strategies of sizes in
// [minSize, maxSize] over k arms.
func randomFamily(k, count, minSize, maxSize int, r *rng.RNG) [][]int {
	seen := make(map[string]bool, count)
	var all [][]int
	for len(all) < count {
		size := minSize + r.Intn(maxSize-minSize+1)
		picked := make(map[int]bool, size)
		for len(picked) < size {
			picked[r.Intn(k)] = true
		}
		s := make([]int, 0, size)
		for a := range picked {
			s = append(s, a)
		}
		sortInts(s)
		key := fmt.Sprint(s)
		if seen[key] {
			continue
		}
		seen[key] = true
		all = append(all, s)
	}
	return all
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestStrategyGraphWordBoundaries checks the kernels against the merge
// reference at K values straddling the 64-arm split between the one-word
// pair scan and the index walk, on random families of small (1–3 arms)
// and wide (8–16 arms) strategies.
func TestStrategyGraphWordBoundaries(t *testing.T) {
	for _, k := range []int{63, 64, 65, 127, 128, 129, 1000} {
		p := 0.1
		if k >= 1000 {
			p = 0.01
		}
		for seed := uint64(0); seed < 2; seed++ {
			g := graphs.Gnp(k, p, rng.New(uint64(k)*7+seed))
			for _, fam := range []struct {
				name          string
				count, lo, hi int
				seed          uint64
			}{
				{"small", 120, 1, 3, seed + 1},
				{"wide", 60, 8, 16, seed + 3},
			} {
				set, err := strategy.NewExplicit(k, randomFamily(k, fam.count, fam.lo, fam.hi, rng.New(fam.seed)), g)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameGraph(BuildStrategyGraph(set), buildStrategyGraphMerge(set)); err != nil {
					t.Fatalf("k=%d seed=%d %s: %v", k, seed, fam.name, err)
				}
			}
		}
	}
}

// TestStrategyGraphIndexEdgeCases covers extreme shapes for the index
// walk: strategies wider than 64 arms (NewExplicit allows them), mixed
// with small ones; a family whose strategies all share their smallest
// arm, so every candidate sits in one bucket; and singletons on an
// edgeless relation graph, whose SG is edgeless too.
func TestStrategyGraphIndexEdgeCases(t *testing.T) {
	const k = 200
	g := graphs.Gnp(k, 0.05, rng.New(11))
	huge := append(randomFamily(k, 40, 65, 90, rng.New(12)), randomFamily(k, 60, 1, 4, rng.New(13))...)
	shared := randomFamily(k-1, 150, 1, 3, rng.New(14))
	for _, s := range shared {
		for i := range s {
			s[i]++
		}
	}
	for i, s := range shared {
		shared[i] = append([]int{0}, s...)
	}
	singletons := make([][]int, k)
	for i := range singletons {
		singletons[i] = []int{i}
	}
	for _, tc := range []struct {
		name     string
		family   [][]int
		g        *graphs.Graph
		edgeless bool
	}{
		{"over-64-arms", huge, g, false},
		{"one-bucket", shared, g, false},
		{"edgeless-singletons", singletons, nil, true},
	} {
		set, err := strategy.NewExplicit(k, tc.family, tc.g)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sg := BuildStrategyGraph(set)
		if err := sameGraph(sg, buildStrategyGraphMerge(set)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (sg.M() == 0) != tc.edgeless {
			t.Fatalf("%s: SG has %d edges", tc.name, sg.M())
		}
	}
}

// TestBitsetStrategyGraphExplicitFamilies covers hand-built families whose
// closures interlock asymmetrically (one containment holding without the
// other), which the random top-M cases rarely produce.
func TestBitsetStrategyGraphExplicitFamilies(t *testing.T) {
	g := graphs.Path(6) // 0-1-2-3-4-5
	set, err := strategy.NewExplicit(6, [][]int{
		{0}, {1}, {0, 1}, {2, 3}, {4, 5}, {1, 4},
	}, g)
	if err != nil {
		t.Fatal(err)
	}
	fast := BuildStrategyGraph(set)
	ref := buildStrategyGraphMerge(set)
	if err := sameGraph(fast, ref); err != nil {
		t.Fatal(err)
	}
}

// TestStrategyGraphLargeKFootprint guards the large-K build against a
// return to the O(|F|²) adjacency matrix or to per-strategy O(K/64) bit
// rows: at K = |F| = 10⁴ windows over a sparse relation graph, building the
// family must allocate under 8 MB, and building SG(F, L) under 4 MB into
// the sparse representation.
func TestStrategyGraphLargeKFootprint(t *testing.T) {
	env, err := bandit.SparseBernoulliEnv(10000, 8, 10000)
	if err != nil {
		t.Fatal(err)
	}
	var set *strategy.Set
	if got := allocatedBy(func() { set, err = bandit.WindowStrategies(10000, 2, env.Graph()) }); got >= 8<<20 {
		t.Errorf("WindowStrategies(10⁴, 2) allocated %.1f MB, want < 8 MB", float64(got)/(1<<20))
	}
	if err != nil {
		t.Fatal(err)
	}
	var sg *graphs.Graph
	if got := allocatedBy(func() { sg = BuildStrategyGraph(set) }); got >= 4<<20 {
		t.Errorf("BuildStrategyGraph allocated %.1f MB, want < 4 MB", float64(got)/(1<<20))
	}
	if sg.Dense() {
		t.Errorf("SG(F, L) with %d vertices and %d edges kept the dense matrix", sg.N(), sg.M())
	}
}

// allocatedBy returns the bytes of heap memory f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
