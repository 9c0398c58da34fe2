package policy

import (
	"math"
	"testing"
	"testing/quick"

	"netbandit/internal/graphs"
	"netbandit/internal/rng"
)

func TestBernKL(t *testing.T) {
	if got := bernKL(0.5, 0.5); got > 1e-9 {
		t.Fatalf("kl(p,p) = %v, want 0", got)
	}
	// kl(0.5, 0.75) = 0.5 ln(2/1.5) + 0.5 ln(2/0.5)... compute directly:
	want := 0.5*math.Log(0.5/0.75) + 0.5*math.Log(0.5/0.25)
	if got := bernKL(0.5, 0.75); math.Abs(got-want) > 1e-9 {
		t.Fatalf("kl = %v, want %v", got, want)
	}
	// Endpoints do not blow up.
	if got := bernKL(0, 0.5); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("kl(0, .5) = %v", got)
	}
}

// Property: kl(p, q) >= 0, and increasing in q for q > p.
func TestBernKLProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		p := float64(a) / 255
		q1 := p + (1-p)*float64(b)/255
		q2 := q1 + (1-q1)*float64(c)/255
		k0 := bernKL(p, p)
		k1 := bernKL(p, q1)
		k2 := bernKL(p, q2)
		return k0 <= k1+1e-9 && k1 <= k2+1e-9 && k1 >= -1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestKLUCBIndexBisection(t *testing.T) {
	// Budget 0: index is the mean itself.
	if got := klUCBIndex(0.3, 0); got != 0.3 {
		t.Fatalf("zero-budget index = %v", got)
	}
	// The solved q must satisfy kl(mean, q) ≈ budget (or hit 1).
	for _, tc := range []struct{ mean, budget float64 }{
		{0.2, 0.05}, {0.5, 0.1}, {0.8, 0.3}, {0.1, 2},
	} {
		q := klUCBIndex(tc.mean, tc.budget)
		if q < tc.mean || q > 1 {
			t.Fatalf("index %v outside [mean, 1]", q)
		}
		if q < 1-1e-6 {
			if d := bernKL(tc.mean, q); math.Abs(d-tc.budget) > 1e-6 {
				t.Fatalf("kl at solution = %v, want %v", d, tc.budget)
			}
		}
	}
}

func TestKLUCBConcentrates(t *testing.T) {
	pol := newKLUCB()
	pulls := driveSingle(t, pol, nil, easyMeans, 2000, 2000, 301)
	if pulls[3] < 1600 {
		t.Fatalf("KL-UCB pulled best arm %d/2000: %v", pulls[3], pulls)
	}
}

func TestKLUCBSideVariant(t *testing.T) {
	pol := &KLUCB{UseSideObs: true}
	if pol.Name() != "KL-UCB-side" {
		t.Fatalf("name = %q", pol.Name())
	}
	g := graphs.Gnp(5, 0.5, rng.New(401))
	pulls := driveSingle(t, pol, g, easyMeans, 1500, 1500, 402)
	if pulls[3] < 1100 {
		t.Fatalf("KL-UCB-side pulled best arm %d/1500: %v", pulls[3], pulls)
	}
}
