package sim

import (
	"reflect"
	"testing"

	"netbandit/internal/armdist"
	"netbandit/internal/bandit"
	"netbandit/internal/core"
	"netbandit/internal/graphs"
	"netbandit/internal/policy"
	"netbandit/internal/rng"
	"netbandit/internal/strategy"
	"netbandit/internal/trace"
)

// observerFunc adapts a function to trace.Observer.
type observerFunc func(trace.Event)

func (f observerFunc) ObserveRound(e trace.Event) { f(e) }

func comboFixture(t *testing.T) (*bandit.Env, *strategy.Set) {
	t.Helper()
	r := rng.New(77)
	g := graphs.Gnp(10, 0.4, r.Split(1))
	env, err := bandit.NewEnv(g, armdist.RandomBernoulliArms(10, r.Split(2)))
	if err != nil {
		t.Fatal(err)
	}
	set, err := strategy.TopM(10, 2, g)
	if err != nil {
		t.Fatal(err)
	}
	return env, set
}

func sameSeries(t *testing.T, label string, a, b *Series) {
	t.Helper()
	if a.Policy != b.Policy || !reflect.DeepEqual(a.T, b.T) {
		t.Fatalf("%s: series shape differs", label)
	}
	for name, pair := range map[string][2][]float64{
		"cum-pseudo":   {a.CumPseudo, b.CumPseudo},
		"cum-realized": {a.CumRealized, b.CumRealized},
		"avg-pseudo":   {a.AvgPseudo, b.AvgPseudo},
		"avg-realized": {a.AvgRealized, b.AvgRealized},
	} {
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("%s: %s point %d: %v vs %v", label, name, i, pair[0][i], pair[1][i])
			}
		}
	}
}

// TestComboCacheCurvesIdentical is the acceptance criterion for the shared
// per-cell precompute: DFL-CSO (the SG-dependent policy) and DFL-CSR must
// produce bit-identical curves whether the cache is shared or every
// replication rebuilds everything itself.
func TestComboCacheCurvesIdentical(t *testing.T) {
	env, set := comboFixture(t)
	cfg := Config{Horizon: 400, AnnounceHorizon: true}
	cache := NewComboCache(env, set)
	for _, tc := range []struct {
		scen bandit.Scenario
		mk   func() bandit.ComboPolicy
	}{
		{bandit.CSO, func() bandit.ComboPolicy { return core.NewDFLCSO() }},
		{bandit.CSR, func() bandit.ComboPolicy { return core.NewDFLCSR() }},
		{bandit.CSO, func() bandit.ComboPolicy { return policy.NewCUCB(policy.Direct) }},
	} {
		fresh, err := play(NewComboRun(env, set, tc.scen, tc.mk(), cfg, rng.New(5), nil))
		if err != nil {
			t.Fatal(err)
		}
		cached, err := play(NewComboRun(env, set, tc.scen, tc.mk(), cfg, rng.New(5), cache))
		if err != nil {
			t.Fatal(err)
		}
		sameSeries(t, tc.scen.String()+"/"+fresh.Policy, fresh, cached)
	}
}

// TestReplicateComboMatchesManualLoop pins the cache-wired ReplicateCombo
// to a hand-rolled per-replication loop with the same stream derivation
// and no sharing at all.
func TestReplicateComboMatchesManualLoop(t *testing.T) {
	env, set := comboFixture(t)
	cfg := Config{Horizon: 300, AnnounceHorizon: true}
	opts := ReplicateOptions{Reps: 4, Seed: 11, Workers: 3}
	agg, err := ReplicateCombo(env, set, bandit.CSO,
		func(*rng.RNG) bandit.ComboPolicy { return core.NewDFLCSO() }, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := newAggregate("DFL-CSO", cfg.checkpoints())
	for rep := 0; rep < opts.Reps; rep++ {
		stream := rng.New(opts.Seed).Split(uint64(rep) + 1)
		stream.Split(0) // factory stream, unused by DFL-CSO
		s, err := play(NewComboRun(env, set, bandit.CSO, core.NewDFLCSO(), cfg, stream.Split(1), nil))
		if err != nil {
			t.Fatal(err)
		}
		if err := want.add(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []Metric{CumPseudo, CumRealized, AvgPseudo, AvgRealized} {
		got, exp := agg.Mean(m), want.Mean(m)
		for i := range exp {
			if got[i] != exp[i] {
				t.Fatalf("metric %v point %d: cached %v vs uncached %v", m, i, got[i], exp[i])
			}
		}
	}
}

func TestComboCacheMismatchRejected(t *testing.T) {
	env, set := comboFixture(t)
	otherEnv, otherSet := comboFixture(t)
	cache := NewComboCache(otherEnv, otherSet)
	if _, err := play(NewComboRun(env, set, bandit.CSO, core.NewDFLCSO(), Config{Horizon: 10}, rng.New(1), cache)); err == nil {
		t.Fatal("mismatched cache accepted")
	}
}

func TestComboCacheStrategyGraphSharedInstance(t *testing.T) {
	env, set := comboFixture(t)
	cache := NewComboCache(env, set)
	cfg := Config{Horizon: 20}
	polA, polB := core.NewDFLCSO(), core.NewDFLCSO()
	if _, err := play(NewComboRun(env, set, bandit.CSO, polA, cfg, rng.New(1), cache)); err != nil {
		t.Fatal(err)
	}
	if _, err := play(NewComboRun(env, set, bandit.CSO, polB, cfg, rng.New(2), cache)); err != nil {
		t.Fatal(err)
	}
	if polA.StrategyGraph() != polB.StrategyGraph() || polA.StrategyGraph() != cache.StrategyGraph() {
		t.Fatal("replications did not share the cached strategy graph instance")
	}
}

// TestSteppersMatchRunFunctions: driving a replication round by round
// with Step is exactly Run.Run.
func TestSteppersMatchRunFunctions(t *testing.T) {
	env := testEnv(t, 12, 0.35, 21)
	cfg := Config{Horizon: 250, AnnounceHorizon: true}
	want, err := play(NewSingleRun(env, bandit.SSO, core.NewDFLSSO(), cfg, rng.New(9)))
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewSingleRun(env, bandit.SSO, core.NewDFLSSO(), cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for !run.Done() {
		if err := run.Step(); err != nil {
			t.Fatal(err)
		}
		steps++
	}
	if steps != cfg.Horizon {
		t.Fatalf("stepped %d rounds, want %d", steps, cfg.Horizon)
	}
	sameSeries(t, "single stepper", want, run.Series())

	cEnv, cSet := comboFixture(t)
	wantC, err := play(NewComboRun(cEnv, cSet, bandit.CSR, core.NewDFLCSR(), cfg, rng.New(10), nil))
	if err != nil {
		t.Fatal(err)
	}
	runC, err := NewComboRun(cEnv, cSet, bandit.CSR, core.NewDFLCSR(), cfg, rng.New(10), nil)
	if err != nil {
		t.Fatal(err)
	}
	for !runC.Done() {
		if err := runC.Step(); err != nil {
			t.Fatal(err)
		}
	}
	sameSeries(t, "combo stepper", wantC, runC.Series())
}

// TestSteadyStateRoundZeroAllocs is the tentpole's allocation guarantee,
// asserted directly (the -benchmem benchmarks report the same number).
func TestSteadyStateRoundZeroAllocs(t *testing.T) {
	env := testEnv(t, 100, 0.3, 1)
	const warmup, measured = 2000, 500
	cfg := Config{Horizon: warmup + measured + 10, AnnounceHorizon: true}
	run, err := NewSingleRun(env, bandit.SSO, core.NewDFLSSO(), cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < warmup; i++ {
		if err := run.Step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(measured, func() {
		if err := run.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state round allocates %v per round", allocs)
	}
}

// TestCounterSamplingPolicyInvariant: with counter-based draws, X_{i,t} is
// fixed by (env stream, i, t) alone — two different policies observing
// overlapping (arm, round) cells must see exactly the same realisations.
func TestCounterSamplingPolicyInvariant(t *testing.T) {
	env := testEnv(t, 15, 0.4, 33)
	cfg := Config{Horizon: 150}
	type cell struct{ t, arm int }
	observe := func(pol bandit.SinglePolicy) map[cell]float64 {
		seen := map[cell]float64{}
		c := cfg
		c.Observer = observerFunc(func(e trace.Event) {
			for _, o := range e.Observations {
				seen[cell{e.T, o.Arm}] = o.Value
			}
		})
		if _, err := play(NewSingleRun(env, bandit.SSO, pol, c, rng.New(55))); err != nil {
			t.Fatal(err)
		}
		return seen
	}
	a := observe(core.NewDFLSSO())
	b := observe(policy.NewMOSS())
	common := 0
	for k, v := range a {
		if w, ok := b[k]; ok {
			common++
			if v != w {
				t.Fatalf("X_{%d,%d} differs across policies: %v vs %v", k.arm, k.t, v, w)
			}
		}
	}
	if common == 0 {
		t.Fatal("policies shared no observed cells; test is vacuous")
	}
}
