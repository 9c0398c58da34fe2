package sim

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"testing"

	"netbandit/internal/bandit"
	"netbandit/internal/core"
	"netbandit/internal/graphs"
	"netbandit/internal/policy"
	"netbandit/internal/rng"
	"netbandit/internal/strategy"
)

// ctxTestEnv builds the suite's fixed contextual cell: a G(k, p) relation
// graph, a hidden θ, and a dedicated feature stream, all split off one
// seed exactly like ContextualGeneratorEnv does.
func ctxTestEnv(t *testing.T, k, d int, p float64, seed uint64) *bandit.ContextualEnv {
	t.Helper()
	r := rng.New(seed)
	g := graphs.Gnp(k, p, r.Split(1))
	cenv, err := bandit.NewContextualEnv(g, k, bandit.RandomTheta(r.Split(2), d), r.Split(3).Counter())
	if err != nil {
		t.Fatal(err)
	}
	return cenv
}

// goldenClose asserts got matches the recorded golden to a relative 1e-9
// — tight enough that any behavioural change trips it, loose enough to
// survive architecture-level float reassociation.
func goldenClose(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d checkpoints, want %d", name, len(got), len(want))
	}
	for i := range got {
		if diff := math.Abs(got[i] - want[i]); diff > 1e-9*math.Max(1, math.Abs(want[i])) {
			t.Errorf("%s: CumPseudo[%d] = %.12g, golden %.12g", name, i, got[i], want[i])
		}
	}
}

// TestContextualGoldenRegretSingle pins the regret curve of each new
// single-play contextual policy on a fixed contextual cell. These are
// goldens: a diff means the policy's decision sequence changed, which is
// a compatibility break for serve replay and sharded sweeps.
func TestContextualGoldenRegretSingle(t *testing.T) {
	cenv := ctxTestEnv(t, 8, 4, 0.3, 31)
	cfg := Config{Horizon: 400, Checkpoints: []int{100, 250, 400}, AnnounceHorizon: true}
	cases := []struct {
		name   string
		pol    bandit.SinglePolicy
		golden []float64
	}{
		{"linucb", policy.NewLinUCB(1), []float64{3.37322138353, 4.62846562115, 5.65581451999}},
		{"ctx-thompson", policy.NewCtxThompson(0.5, rng.New(32)), []float64{6.16365648772, 8.56313923755, 10.2845387278}},
	}
	for _, tc := range cases {
		s, err := play(NewSingleRun(cenv, bandit.SSO, tc.pol, cfg, rng.New(33)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		goldenClose(t, tc.name, s.CumPseudo, tc.golden)
	}
}

// TestContextualGoldenRegretCombo pins the regret curves of the new
// combinatorial contextual policies — and the fixed-mean DFL-CSO/CUCB
// baselines — on the contextual ad-placement cell (show m of k
// feature-linked ads), then asserts the acceptance criterion: CombLinUCB
// beats DFL-* in final regret, by an order of magnitude.
func TestContextualGoldenRegretCombo(t *testing.T) {
	cenv := ctxTestEnv(t, 16, 4, 0.35, 41)
	set, err := strategy.TopM(16, 2, cenv.Graph())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Horizon: 600, Checkpoints: []int{150, 300, 600}, AnnounceHorizon: true}
	cache := NewComboCache(cenv, set)
	run := func(name string, pol bandit.ComboPolicy) *Series {
		t.Helper()
		s, err := play(NewComboRun(cenv, set, bandit.CSO, pol, cfg, rng.New(43), cache))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return s
	}
	cases := []struct {
		name   string
		pol    bandit.ComboPolicy
		golden []float64
	}{
		{"comblinucb", policy.NewCombLinUCB(1, policy.Direct), []float64{1.71139393865, 1.75948643715, 2.00963674587}},
		{"comb-ctx-thompson", policy.NewCombCtxThompson(0.5, policy.Direct, rng.New(42)), []float64{2.79422163656, 3.21944837491, 3.80560201035}},
		{"cts", policy.NewCTS(policy.Direct, rng.New(42)), []float64{74.9192127229, 154.255194727, 303.919020648}},
		{"osmd", policy.NewOSMD(0, rng.New(42)), []float64{77.3327523158, 154.763901675, 306.594654854}},
		{"dfl-cso", core.NewDFLCSO(), []float64{71.974748577, 151.435278139, 308.847230119}},
		{"cucb", policy.NewCUCB(policy.Direct), []float64{71.8256082965, 150.848727187, 304.017722369}},
	}
	finals := map[string]float64{}
	for _, tc := range cases {
		s := run(tc.name, tc.pol)
		goldenClose(t, tc.name, s.CumPseudo, tc.golden)
		finals[tc.name] = s.CumPseudo[len(s.CumPseudo)-1]
	}
	// The acceptance criterion behind the goldens: the context-aware
	// policies track the per-round optimum, the fixed-mean baselines
	// cannot.
	for _, fixed := range []string{"dfl-cso", "cucb"} {
		if finals["comblinucb"] >= finals[fixed]/10 {
			t.Errorf("CombLinUCB final regret %.3f not an order of magnitude below %s %.3f",
				finals["comblinucb"], fixed, finals[fixed])
		}
	}
}

// TestNilContextMatchesManualLoop is the redesign's compatibility
// property: for non-contextual environments the runner passes a nil
// context, and its decision sequence must match, round for round, a
// hand-rolled loop shaped like the pre-redesign runner (select → sample
// revealed closure → update). Any divergence means the Select-signature
// migration changed behaviour.
func TestNilContextMatchesManualLoop(t *testing.T) {
	const horizon = 300
	mkPolicy := map[string]func() bandit.SinglePolicy{
		"dfl-sso":  func() bandit.SinglePolicy { return core.NewDFLSSO() },
		"moss":     func() bandit.SinglePolicy { return policy.NewMOSS() },
		"thompson": func() bandit.SinglePolicy { return policy.NewThompson(rng.New(5)) },
	}
	for name, mk := range mkPolicy {
		for _, seed := range []uint64{1, 2, 3} {
			env := testEnv(t, 10, 0.4, seed)
			cfg := Config{Horizon: horizon, AnnounceHorizon: true}

			// The runner under test.
			sr, err := NewSingleRun(env, bandit.SSO, mk(), cfg, rng.New(seed+100))
			if err != nil {
				t.Fatal(err)
			}

			// The manual pre-redesign-shaped loop: same policy build, same
			// counter stream, nil context at every Select.
			pol := mk()
			pol.Reset(bandit.Meta{K: env.K(), Horizon: horizon, Graph: env.Graph(), Scenario: bandit.SSO})
			ctr := rng.New(seed + 100).Counter()
			scratch := new(rng.RNG)
			var obs []bandit.Observation
			for round := 1; round <= horizon; round++ {
				arm := pol.Select(round, nil)
				rt, ra, err := sr.Decide()
				if err != nil {
					t.Fatal(err)
				}
				if rt != round || ra != arm {
					t.Fatalf("%s seed %d round %d: runner chose arm %d, manual loop %d",
						name, seed, round, ra, arm)
				}
				obs = env.SampleObservations(ctr, round, env.Closed(arm), nil, obs[:0], scratch)
				got, err := sr.AutoFeedback()
				if err != nil {
					t.Fatal(err)
				}
				for j := range obs {
					if got[j] != obs[j] {
						t.Fatalf("%s seed %d round %d: runner observation %v, manual %v",
							name, seed, round, got[j], obs[j])
					}
				}
				pol.Update(round, arm, obs)
			}
		}
	}
}

// ctxGridSweep is the contextual determinism grid: 2 contextual G(n, p)
// densities × context-aware and fixed-mean policies side by side, all
// built through the registry exactly as the CLI does.
func ctxGridSweep(t *testing.T, workers int) Sweep {
	t.Helper()
	var policies []PolicySpec
	for _, name := range []string{"linucb", "ctx-thompson", "dfl", "cucb"} {
		spec, err := NewPolicySpec(name, bandit.CSO)
		if err != nil {
			t.Fatal(err)
		}
		policies = append(policies, spec)
	}
	return Sweep{
		Name: "ctx-grid",
		Envs: []EnvSpec{
			ContextualGnpEnv("p=0.3+ctx3", bandit.CSO, 9, 2, 3, 0.3),
			ContextualGnpEnv("p=0.6+ctx3", bandit.CSO, 9, 2, 3, 0.6),
		},
		Policies: policies,
		Config:   Config{Horizon: 200, AnnounceHorizon: true},
		Reps:     4,
		Seed:     55,
		Workers:  workers,
	}
}

// TestContextualSweepDeterministicAcrossWorkerCounts extends the engine's
// central reproducibility guarantee to contextual cells: the exported
// JSON (every cell's mean and stderr curves, all four metrics) is
// byte-identical under Workers 1, 8, and GOMAXPROCS.
func TestContextualSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	runJSON := func(workers int) []byte {
		sw := ctxGridSweep(t, workers)
		res, err := sw.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteSweepJSON(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := runJSON(1)
	for _, workers := range []int{8, runtime.GOMAXPROCS(0)} {
		if !bytes.Equal(base, runJSON(workers)) {
			t.Fatalf("contextual sweep output differs between Workers=1 and Workers=%d", workers)
		}
	}
}

// TestContextualSweepRejectsContextualPolicyOnFixedMeans pins the
// build-time seam check: a context-requiring policy crossed with a
// fixed-mean environment axis must fail sweep validation instead of
// reaching round one.
func TestContextualSweepRejectsContextualPolicyOnFixedMeans(t *testing.T) {
	spec, err := NewPolicySpec("linucb", bandit.SSO)
	if err != nil {
		t.Fatal(err)
	}
	sw := Sweep{
		Name:     "bad-cross",
		Envs:     []EnvSpec{GnpBernoulliEnv("p=0.3", bandit.SSO, 8, 0, 0.3)},
		Policies: []PolicySpec{spec},
		Config:   Config{Horizon: 50},
		Reps:     2,
		Seed:     1,
	}
	if _, err := sw.Run(context.Background()); err == nil {
		t.Fatal("contextual policy accepted on a fixed-mean environment axis")
	}
}
