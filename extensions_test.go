package netbandit_test

import (
	"math"
	"testing"

	"netbandit"
)

func TestFacadeTheoremBounds(t *testing.T) {
	if b := netbandit.MOSSRegretBound(10000, 100); math.Abs(b-49000) > 1e-6 {
		t.Fatalf("MOSS bound = %v", b)
	}
	t1 := netbandit.Theorem1RegretBound(10000, 100, 20)
	if t1 <= 0 || t1 >= netbandit.MOSSRegretBound(10000, 100) {
		t.Fatalf("Theorem 1 bound %v should be positive and below MOSS", t1)
	}
	if netbandit.Theorem2RegretBound(10000, 190, 10) != netbandit.Theorem1RegretBound(10000, 190, 10) {
		t.Fatal("Theorem 2 must equal Theorem 1 over com-arms")
	}
	if b := netbandit.Theorem3RegretBound(10000, 100); b <= 0 {
		t.Fatalf("Theorem 3 bound = %v", b)
	}
	if b := netbandit.Theorem4RegretBound(10000, 20, 12); b <= 0 {
		t.Fatalf("Theorem 4 bound = %v", b)
	}
}

func TestFacadePiecewiseRun(t *testing.T) {
	g := netbandit.NewGraph(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(2, 3)
	env, err := netbandit.NewPiecewiseEnv(g, []netbandit.Segment{
		{Start: 1, Means: []float64{0.9, 0.1, 0.1, 0.1}},
		{Start: 51, Means: []float64{0.1, 0.1, 0.1, 0.9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := netbandit.RunPiecewise(env, netbandit.NewSWDFLSSO(20), 100, []int{50, 100}, netbandit.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CumDynamic) != 2 {
		t.Fatalf("checkpoints = %v", res.T)
	}
	if res.CumDynamic[1] < res.CumDynamic[0] {
		t.Fatal("dynamic regret decreased")
	}
}

func TestFacadeSmoothedMeans(t *testing.T) {
	r := netbandit.NewRNG(2)
	g := netbandit.GnpGraph(30, 0.3, r)
	means, err := netbandit.SmoothedMeans(g, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(means) != 30 {
		t.Fatalf("len = %d", len(means))
	}
	if corr := netbandit.NeighborhoodCorrelation(g, means); corr < 0.3 {
		t.Fatalf("smoothed correlation = %v", corr)
	}
}

func TestFacadeKLUCB(t *testing.T) {
	pol := netbandit.NewKLUCB()
	if pol.Name() != "KL-UCB" {
		t.Fatalf("name = %q", pol.Name())
	}
	env, err := netbandit.NewBernoulliEnv(nil, []float64{0.2, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	run, err := netbandit.NewSingleRun(env, netbandit.SSO, pol,
		netbandit.Config{Horizon: 500}, netbandit.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	s, err := run.Run()
	if err != nil {
		t.Fatal(err)
	}
	final := s.AvgPseudo[len(s.AvgPseudo)-1]
	if final > 0.15 {
		t.Fatalf("KL-UCB avg regret %v too high on a trivial instance", final)
	}
}

func TestFacadeTraceRecorder(t *testing.T) {
	env, err := netbandit.NewBernoulliEnv(nil, []float64{0.5, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	rec := &netbandit.TraceRecorder{Capacity: 5}
	run, err := netbandit.NewSingleRun(env, netbandit.SSO, netbandit.NewDFLSSO(),
		netbandit.Config{Horizon: 20, Observer: rec}, netbandit.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Run(); err != nil {
		t.Fatal(err)
	}
	if rec.Total() != 20 || len(rec.Events()) != 5 {
		t.Fatalf("total=%d retained=%d", rec.Total(), len(rec.Events()))
	}
}

func TestFacadeBudgetedStrategies(t *testing.T) {
	set, err := netbandit.BudgetedStrategies([]float64{1, 2, 2}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// {0},{1},{2},{0,1},{0,2}
	if set.Len() != 5 {
		t.Fatalf("|F| = %d, want 5", set.Len())
	}
}
