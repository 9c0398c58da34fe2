package graphs

import (
	"math"
	"reflect"
	"testing"

	"netbandit/internal/rng"
)

func TestGnpEdgeCount(t *testing.T) {
	r := rng.New(1)
	const n = 200
	const p = 0.3
	g := Gnp(n, p, r)
	want := p * float64(n*(n-1)/2)
	got := float64(g.M())
	// Binomial standard deviation ~ sqrt(N p (1-p)); allow 5 sigma.
	sigma := math.Sqrt(float64(n*(n-1)/2) * p * (1 - p))
	if math.Abs(got-want) > 5*sigma {
		t.Fatalf("G(%d,%v) has %v edges, want ~%v (±%v)", n, p, got, want, 5*sigma)
	}
}

func TestGnpExtremes(t *testing.T) {
	r := rng.New(2)
	if g := Gnp(10, 0, r); g.M() != 0 {
		t.Fatalf("G(10,0) has %d edges", g.M())
	}
	if g := Gnp(10, 1, r); g.M() != 45 {
		t.Fatalf("G(10,1) has %d edges, want 45", g.M())
	}
}

func TestGnpDeterminism(t *testing.T) {
	g1 := Gnp(50, 0.4, rng.New(7))
	g2 := Gnp(50, 0.4, rng.New(7))
	if g1.M() != g2.M() {
		t.Fatal("same seed produced different graphs")
	}
	for u := 0; u < 50; u++ {
		for v := u + 1; v < 50; v++ {
			if g1.HasEdge(u, v) != g2.HasEdge(u, v) {
				t.Fatalf("edge (%d,%d) differs between same-seed graphs", u, v)
			}
		}
	}
}

func TestBarabasiAlbert(t *testing.T) {
	r := rng.New(3)
	const n, attach = 100, 3
	g := BarabasiAlbert(n, attach, r)
	if g.N() != n {
		t.Fatalf("n = %d", g.N())
	}
	// Seed clique contributes C(attach,2), every later vertex adds exactly
	// `attach` edges.
	want := attach*(attach-1)/2 + (n-attach)*attach
	if g.M() != want {
		t.Fatalf("m = %d, want %d", g.M(), want)
	}
	if !IsConnected(g) {
		t.Fatal("BA graph should be connected")
	}
}

func TestBarabasiAlbertPanics(t *testing.T) {
	for _, tc := range []struct{ n, attach int }{{3, 0}, {2, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BarabasiAlbert(%d,%d) did not panic", tc.n, tc.attach)
				}
			}()
			BarabasiAlbert(tc.n, tc.attach, rng.New(1))
		}()
	}
}

func TestWattsStrogatz(t *testing.T) {
	r := rng.New(4)
	g := WattsStrogatz(50, 4, 0.1, r)
	if g.N() != 50 {
		t.Fatalf("n = %d", g.N())
	}
	// Without rewiring the lattice has exactly n*k/2 edges; rewiring can
	// only drop a few when a replacement endpoint cannot be found.
	if g.M() < 90 || g.M() > 100 {
		t.Fatalf("m = %d, want ~100", g.M())
	}
	// beta=0 must be the exact ring lattice.
	lat := WattsStrogatz(20, 4, 0, r)
	for v := 0; v < 20; v++ {
		for d := 1; d <= 2; d++ {
			if !lat.HasEdge(v, (v+d)%20) {
				t.Fatalf("lattice missing edge (%d,%d)", v, (v+d)%20)
			}
		}
	}
}

func TestRandomGeometric(t *testing.T) {
	r := rng.New(5)
	if g := RandomGeometric(50, 0, r); g.M() != 0 {
		t.Fatalf("radius 0 should give no edges, got %d", g.M())
	}
	if g := RandomGeometric(50, 2, r); g.M() != 50*49/2 {
		t.Fatalf("radius 2 should give complete graph, got %d edges", g.M())
	}
}

func TestFixedTopologies(t *testing.T) {
	tests := []struct {
		name    string
		g       *Graph
		wantN   int
		wantM   int
		connect bool
	}{
		{"star", Star(6), 6, 5, true},
		{"cycle", Cycle(6), 6, 6, true},
		{"cycle2", Cycle(2), 2, 1, true},
		{"path", Path(5), 5, 4, true},
		{"complete", Complete(5), 5, 10, true},
		{"empty", Empty(4), 4, 0, false},
		{"grid", grid(3, 4), 12, 17, true},
		{"caveman", Caveman(3, 4), 12, 3*6 + 3, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.g.N() != tc.wantN || tc.g.M() != tc.wantM {
				t.Fatalf("n=%d m=%d, want n=%d m=%d", tc.g.N(), tc.g.M(), tc.wantN, tc.wantM)
			}
			if got := IsConnected(tc.g); got != tc.connect {
				t.Fatalf("IsConnected = %v, want %v", got, tc.connect)
			}
		})
	}
}

func TestCavemanCliqueCover(t *testing.T) {
	g := Caveman(5, 4)
	cover := GreedyCliqueCover(g)
	// The caveman graph is coverable by exactly its 5 cliques; greedy may
	// use slightly more but never fewer.
	if len(cover) < 5 {
		t.Fatalf("cover size %d below clique-cover number 5", len(cover))
	}
	if len(cover) > 7 {
		t.Fatalf("greedy cover unexpectedly bad: %d cliques for caveman(5,4)", len(cover))
	}
}

func TestFromName(t *testing.T) {
	r := rng.New(6)
	for _, name := range GeneratorNames() {
		g, err := FromName(GeneratorName(name), 12, 0.3, r)
		if err != nil {
			t.Fatalf("FromName(%s): %v", name, err)
		}
		if g.N() != 12 {
			t.Fatalf("FromName(%s): n = %d, want 12", name, g.N())
		}
	}
	if _, err := FromName("nope", 10, 0, r); err == nil {
		t.Fatal("unknown generator accepted")
	}
}

// TestGeneratorsDeterministic rebuilds every named generator from one seed
// and requires the same edges and the same neighbour order each time: a
// graph must be a pure function of its random stream, or sweep axes,
// shard workers, and restarted serve instances disagree about it.
func TestGeneratorsDeterministic(t *testing.T) {
	params := map[string]float64{"gnp": 0.3, "ba": 3, "ws": 0.3, "geometric": 0.3, "caveman": 4}
	for _, name := range GeneratorNames() {
		build := func() *Graph {
			g, err := FromName(GeneratorName(name), 60, params[name], rng.New(9))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return g
		}
		want := build()
		for rebuild := 0; rebuild < 20; rebuild++ {
			got := build()
			if !reflect.DeepEqual(got.Edges(), want.Edges()) {
				t.Fatalf("%s: rebuild %d gave different edges", name, rebuild)
			}
			for v := 0; v < want.N(); v++ {
				if !reflect.DeepEqual(got.Neighbors(v), want.Neighbors(v)) {
					t.Fatalf("%s: rebuild %d gave vertex %d different neighbours", name, rebuild, v)
				}
			}
		}
	}
}
