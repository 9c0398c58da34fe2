package netbandit_test

import (
	"testing"

	"netbandit"
	"netbandit/internal/trace"
)

func TestFacadeTheoremBounds(t *testing.T) {
	const mossBound = 49000 // 49·sqrt(nK) at n = 10⁴, K = 100
	t1 := netbandit.Theorem1RegretBound(10000, 100, 20)
	if t1 <= 0 || t1 >= mossBound {
		t.Fatalf("Theorem 1 bound %v should be positive and below MOSS", t1)
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

func TestFacadeTraceRecorder(t *testing.T) {
	env, err := netbandit.NewBernoulliEnv(nil, []float64{0.5, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{Capacity: 5}
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
