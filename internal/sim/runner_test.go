package sim

import (
	"math"
	"testing"

	"netbandit/internal/armdist"
	"netbandit/internal/bandit"
	"netbandit/internal/core"
	"netbandit/internal/graphs"
	"netbandit/internal/policy"
	"netbandit/internal/rng"
	"netbandit/internal/strategy"
)

func testEnv(t *testing.T, k int, p float64, seed uint64) *bandit.Env {
	t.Helper()
	r := rng.New(seed)
	g := graphs.Gnp(k, p, r.Split(1))
	env, err := bandit.NewEnv(g, armdist.RandomBernoulliArms(k, r.Split(2)))
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid", Config{Horizon: 10}, true},
		{"zero horizon", Config{}, false},
		{"checkpoint too small", Config{Horizon: 10, Checkpoints: []int{0}}, false},
		{"checkpoint too large", Config{Horizon: 10, Checkpoints: []int{11}}, false},
		{"non-increasing", Config{Horizon: 10, Checkpoints: []int{5, 5}}, false},
		{"good checkpoints", Config{Horizon: 10, Checkpoints: []int{1, 5, 10}}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.validate()
			if (err == nil) != tc.ok {
				t.Fatalf("validate() err = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestDefaultCheckpoints(t *testing.T) {
	cps := DefaultCheckpoints(1000, 10)
	if len(cps) != 10 || cps[0] != 100 || cps[9] != 1000 {
		t.Fatalf("checkpoints = %v", cps)
	}
	// More points than rounds: one checkpoint per round, no duplicates.
	cps = DefaultCheckpoints(5, 100)
	if len(cps) != 5 || cps[0] != 1 || cps[4] != 5 {
		t.Fatalf("checkpoints = %v", cps)
	}
	for i := 1; i < len(cps); i++ {
		if cps[i] <= cps[i-1] {
			t.Fatalf("non-increasing checkpoints: %v", cps)
		}
	}
}

func TestRunSingleRejectsComboScenario(t *testing.T) {
	env := testEnv(t, 5, 0.3, 1)
	_, err := play(NewSingleRun(env, bandit.CSO, core.NewDFLSSO(), Config{Horizon: 10}, rng.New(2)))
	if err == nil {
		t.Fatal("combo scenario accepted by NewSingleRun")
	}
}

func TestRunComboRejectsSingleScenario(t *testing.T) {
	env := testEnv(t, 5, 0.3, 1)
	set, err := strategy.TopM(5, 2, env.Graph())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := play(NewComboRun(env, set, bandit.SSO, core.NewDFLCSO(), Config{Horizon: 10}, rng.New(2), nil)); err == nil {
		t.Fatal("single scenario accepted by NewComboRun")
	}
}

func TestRunComboRejectsMismatchedSet(t *testing.T) {
	env := testEnv(t, 5, 0.3, 1)
	set, err := strategy.TopM(4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := play(NewComboRun(env, set, bandit.CSO, core.NewDFLCSO(), Config{Horizon: 10}, rng.New(2), nil)); err == nil {
		t.Fatal("mismatched arm counts accepted")
	}
}

func TestRunSingleSeriesShape(t *testing.T) {
	env := testEnv(t, 10, 0.3, 3)
	cfg := Config{Horizon: 500, Checkpoints: []int{100, 250, 500}, AnnounceHorizon: true}
	s, err := play(NewSingleRun(env, bandit.SSO, core.NewDFLSSO(), cfg, rng.New(4)))
	if err != nil {
		t.Fatal(err)
	}
	if s.Policy != "DFL-SSO" {
		t.Fatalf("policy name = %q", s.Policy)
	}
	if len(s.T) != 3 || len(s.CumPseudo) != 3 || len(s.AvgRealized) != 3 {
		t.Fatalf("series lengths wrong: %+v", s)
	}
	// Pseudo-regret is non-decreasing in t.
	for i := 1; i < len(s.CumPseudo); i++ {
		if s.CumPseudo[i] < s.CumPseudo[i-1]-1e-9 {
			t.Fatalf("pseudo-regret decreased: %v", s.CumPseudo)
		}
	}
	// Identity: avg = cum / t at each checkpoint.
	for i, cp := range s.T {
		want := s.CumPseudo[i] / float64(cp)
		if math.Abs(s.AvgPseudo[i]-want) > 1e-9 {
			t.Fatalf("avg pseudo inconsistent at %d: %v vs %v", cp, s.AvgPseudo[i], want)
		}
	}
}

func TestRunSingleDeterministic(t *testing.T) {
	env := testEnv(t, 10, 0.3, 5)
	cfg := Config{Horizon: 300}
	a, err := play(NewSingleRun(env, bandit.SSO, core.NewDFLSSO(), cfg, rng.New(6)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := play(NewSingleRun(env, bandit.SSO, core.NewDFLSSO(), cfg, rng.New(6)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.CumPseudo {
		if a.CumPseudo[i] != b.CumPseudo[i] {
			t.Fatal("same seed produced different runs")
		}
	}
}

func TestDFLSSOBeatsRandomIntegration(t *testing.T) {
	env := testEnv(t, 20, 0.3, 7)
	cfg := Config{Horizon: 2000, AnnounceHorizon: true}
	reps, seed := 5, uint64(8)
	dfl, err := replicate(FixedEnv("", bandit.SSO, env, nil),
		PolicySpec{Single: func(*rng.RNG) bandit.SinglePolicy { return core.NewDFLSSO() }}, cfg, reps, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := replicate(FixedEnv("", bandit.SSO, env, nil),
		PolicySpec{Single: func(r *rng.RNG) bandit.SinglePolicy { return policy.NewRandom(r) }}, cfg, reps, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dfl.Final(CumPseudo) >= rnd.Final(CumPseudo)/2 {
		t.Fatalf("DFL-SSO regret %v not clearly below random %v",
			dfl.Final(CumPseudo), rnd.Final(CumPseudo))
	}
}

func TestDFLSSOBeatsMOSSIntegration(t *testing.T) {
	// The paper's headline (Fig. 3): side observations cut regret well
	// below MOSS on a reasonably dense 100-arm instance.
	env := testEnv(t, 50, 0.3, 9)
	cfg := Config{Horizon: 3000, AnnounceHorizon: true}
	reps, seed := 5, uint64(10)
	dfl, err := replicate(FixedEnv("", bandit.SSO, env, nil),
		PolicySpec{Single: func(*rng.RNG) bandit.SinglePolicy { return core.NewDFLSSO() }}, cfg, reps, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	moss, err := replicate(FixedEnv("", bandit.SSO, env, nil),
		PolicySpec{Single: func(*rng.RNG) bandit.SinglePolicy { return policy.NewMOSS() }}, cfg, reps, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dfl.Final(CumPseudo) >= moss.Final(CumPseudo)/2 {
		t.Fatalf("DFL-SSO %v vs MOSS %v: expected at least 2x improvement",
			dfl.Final(CumPseudo), moss.Final(CumPseudo))
	}
}

func TestZeroRegretTrendSSR(t *testing.T) {
	// Time-averaged regret must decay over time (the zero-regret property,
	// checked at modest scale).
	env := testEnv(t, 20, 0.3, 11)
	cfg := Config{Horizon: 4000, AnnounceHorizon: true}
	reps, seed := 5, uint64(12)
	agg, err := replicate(FixedEnv("", bandit.SSR, env, nil),
		PolicySpec{Single: func(*rng.RNG) bandit.SinglePolicy { return core.NewDFLSSR() }}, cfg, reps, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	avg := agg.Mean(AvgPseudo)
	early := avg[len(avg)/10]
	late := avg[len(avg)-1]
	if late >= early/1.5 {
		t.Fatalf("SSR avg regret did not decay: early %v, late %v", early, late)
	}
}

func TestZeroRegretTrendCSO(t *testing.T) {
	env := testEnv(t, 10, 0.5, 13)
	set, err := strategy.TopM(10, 2, env.Graph())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Horizon: 4000, AnnounceHorizon: true}
	reps, seed := 5, uint64(14)
	agg, err := replicate(FixedEnv("", bandit.CSO, env, set),
		PolicySpec{Combo: func(*rng.RNG) bandit.ComboPolicy { return core.NewDFLCSO() }}, cfg, reps, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	avg := agg.Mean(AvgPseudo)
	if avg[len(avg)-1] >= avg[len(avg)/10]/1.5 {
		t.Fatalf("CSO avg regret did not decay: %v -> %v", avg[len(avg)/10], avg[len(avg)-1])
	}
}

func TestZeroRegretTrendCSR(t *testing.T) {
	env := testEnv(t, 10, 0.3, 15)
	set, err := strategy.TopM(10, 2, env.Graph())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Horizon: 4000, AnnounceHorizon: true}
	reps, seed := 5, uint64(16)
	agg, err := replicate(FixedEnv("", bandit.CSR, env, set),
		PolicySpec{Combo: func(*rng.RNG) bandit.ComboPolicy { return core.NewDFLCSR() }}, cfg, reps, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	avg := agg.Mean(AvgPseudo)
	if avg[len(avg)-1] >= avg[len(avg)/10]/1.5 {
		t.Fatalf("CSR avg regret did not decay: %v -> %v", avg[len(avg)/10], avg[len(avg)-1])
	}
}

func TestReplicateDeterministicAcrossWorkerCounts(t *testing.T) {
	env := testEnv(t, 10, 0.4, 17)
	cfg := Config{Horizon: 500}
	mk := func(workers int) *Aggregate {
		agg, err := replicate(FixedEnv("", bandit.SSO, env, nil),
			PolicySpec{Single: func(r *rng.RNG) bandit.SinglePolicy { return policy.NewThompson(r) }},
			cfg, 6, 18, workers)
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}
	serial := mk(1)
	parallel := mk(4)
	sm, pm := serial.Mean(CumPseudo), parallel.Mean(CumPseudo)
	for i := range sm {
		if sm[i] != pm[i] {
			t.Fatalf("worker count changed results at %d: %v vs %v", i, sm[i], pm[i])
		}
	}
}

func TestReplicateOptionsValidate(t *testing.T) {
	env := testEnv(t, 5, 0.3, 19)
	_, err := replicate(FixedEnv("", bandit.SSO, env, nil),
		PolicySpec{Single: func(*rng.RNG) bandit.SinglePolicy { return core.NewDFLSSO() }},
		Config{Horizon: 10}, 0, 0, 0)
	if err == nil {
		t.Fatal("zero reps accepted")
	}
}

func TestMetricString(t *testing.T) {
	for m, want := range map[Metric]string{
		CumPseudo: "cum-pseudo", CumRealized: "cum-realized",
		AvgPseudo: "avg-pseudo", AvgRealized: "avg-realized",
		Metric(0): "metric(0)",
	} {
		if m.String() != want {
			t.Errorf("Metric(%d).String() = %q, want %q", int(m), m.String(), want)
		}
	}
}
