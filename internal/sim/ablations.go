package sim

import (
	"context"
	"fmt"

	"netbandit/internal/bandit"
	"netbandit/internal/core"
	"netbandit/internal/graphs"
	"netbandit/internal/policy"
	"netbandit/internal/rng"
	"netbandit/internal/strategy"
)

// Ablation experiments probe the design decisions DESIGN.md calls out:
// the Section IX greedy-hop heuristic, the streaming vs exact DFL-SSR
// estimator, the exact vs greedy CSR oracle, the effect of graph density
// on regret (the mechanism behind Theorem 1's clique-cover term), and the
// position of DFL-SSO among standard baselines.

func registerAblations() {
	registerAblationHop()
	registerAblationSSRStreaming()
	registerAblationCSROracle()
	registerAblationDensity()
	registerAblationBaselines()
	registerBounds()
	registerNonstat()
	registerHomophily()
}

func registerAblationHop() {
	register(Experiment{
		ID:    "abl-hop",
		Title: "Ablation: Section IX greedy-hop heuristic vs plain DFL-SSO vs UCB-MaxN",
		Notes: "Fig. 3 workload. The hop heuristic should match or beat plain DFL-SSO " +
			"in realized reward without hurting the regret trend.",
		DefaultHorizon: paperHorizon,
		DefaultReps:    paperReps,
		Run: func(p Params) (*Table, error) {
			p = p.withDefaults(paperHorizon, paperReps)
			env, err := newSingleEnv(singleArms, sparseP, p.Seed)
			if err != nil {
				return nil, err
			}
			factories := []SingleFactory{
				func(*rng.RNG) bandit.SinglePolicy { return core.NewDFLSSO() },
				func(*rng.RNG) bandit.SinglePolicy { return core.NewDFLSSOGreedyHop() },
				func(*rng.RNG) bandit.SinglePolicy { return policy.NewUCBMaxN() },
			}
			names := []string{"DFL-SSO", "DFL-SSO-hop", "UCB-MaxN"}
			curves, cps, err := singleCurves(env, bandit.SSO, factories, names, []Metric{CumPseudo}, false, p)
			if err != nil {
				return nil, err
			}
			return &Table{
				ID: "abl-hop", Title: "Greedy-hop heuristic ablation",
				XLabel: "time slot", YLabel: "accumulated pseudo-regret",
				X: intsToFloats(cps), Curves: curves,
			}, nil
		},
	})
}

func registerAblationSSRStreaming() {
	register(Experiment{
		ID:    "abl-ssr-stream",
		Title: "Ablation: exact (obs-log) vs streaming composite DFL-SSR",
		Notes: "Fig. 5 workload. The streaming estimator trades O(total observations) " +
			"memory for O(K); regret should be close to the exact variant.",
		DefaultHorizon: paperHorizon,
		DefaultReps:    paperReps,
		Run: func(p Params) (*Table, error) {
			p = p.withDefaults(paperHorizon, paperReps)
			env, err := newSingleEnv(singleArms, sparseP, p.Seed)
			if err != nil {
				return nil, err
			}
			factories := []SingleFactory{
				func(*rng.RNG) bandit.SinglePolicy { return core.NewDFLSSR() },
				func(*rng.RNG) bandit.SinglePolicy { return core.NewDFLSSRStreaming() },
			}
			names := []string{"DFL-SSR", "DFL-SSR-stream"}
			curves, cps, err := singleCurves(env, bandit.SSR, factories, names, []Metric{CumPseudo}, false, p)
			if err != nil {
				return nil, err
			}
			return &Table{
				ID: "abl-ssr-stream", Title: "DFL-SSR estimator ablation",
				XLabel: "time slot", YLabel: "accumulated pseudo-regret",
				X: intsToFloats(cps), Curves: curves,
			}, nil
		},
	})
}

func registerAblationCSROracle() {
	register(Experiment{
		ID:    "abl-csr-oracle",
		Title: "Ablation: exact vs greedy combinatorial oracle in DFL-CSR",
		Notes: "Fig. 6 workload. Theorem 4 assumes an optimal oracle; the greedy " +
			"(1-1/e) oracle should cost a bounded constant factor of regret.",
		DefaultHorizon: paperHorizon,
		DefaultReps:    paperReps,
		Run: func(p Params) (*Table, error) {
			p = p.withDefaults(paperHorizon, paperReps)
			env, set, err := newComboEnv(comboArms, comboSize, sparseP, p.Seed)
			if err != nil {
				return nil, err
			}
			factories := []ComboFactory{
				func(*rng.RNG) bandit.ComboPolicy { return core.NewDFLCSR() },
				func(*rng.RNG) bandit.ComboPolicy {
					return core.NewDFLCSRWithOracle(strategy.GreedyOracle{Size: comboSize})
				},
			}
			names := []string{"DFL-CSR(exact)", "DFL-CSR(greedy)"}
			curves, cps, err := comboCurves(env, set, bandit.CSR, factories, names, []Metric{CumPseudo}, false, p)
			if err != nil {
				return nil, err
			}
			return &Table{
				ID: "abl-csr-oracle", Title: "DFL-CSR oracle ablation",
				XLabel: "time slot", YLabel: "accumulated pseudo-regret",
				X: intsToFloats(cps), Curves: curves,
			}, nil
		},
	})
}

func registerAblationDensity() {
	register(Experiment{
		ID:    "abl-density",
		Title: "Ablation: relation-graph density vs DFL-SSO regret",
		Notes: "K=60 arms, p swept over {0.1..0.9}. Denser graphs admit smaller clique " +
			"covers, so Theorem 1 predicts final regret decreasing in p.",
		DefaultHorizon: 5000,
		DefaultReps:    10,
		Run: func(p Params) (*Table, error) {
			p = p.withDefaults(5000, 10)
			const k = 60
			densities := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
			envs := make([]EnvSpec, len(densities))
			covers := make([]float64, len(densities))
			for di, density := range densities {
				env, err := newSingleEnv(k, density, p.Seed+uint64(di)*1000)
				if err != nil {
					return nil, err
				}
				envs[di] = FixedEnv(fmt.Sprintf("p=%.1f", density), bandit.SSO, env, nil)
				covers[di] = float64(coverNumber(env))
			}
			sw := Sweep{
				Envs:          envs,
				Policies:      []PolicySpec{{Name: "DFL-SSO", Single: func(*rng.RNG) bandit.SinglePolicy { return core.NewDFLSSO() }}},
				Config:        Config{Horizon: p.Horizon, AnnounceHorizon: true, Checkpoints: []int{p.Horizon}},
				Reps:          p.Reps,
				Seed:          p.Seed,
				Workers:       p.Workers,
				CommonStreams: true,
				Progress:      p.Progress,
			}
			res, err := sw.Run(context.Background())
			if err != nil {
				return nil, err
			}
			finals := make([]float64, len(res.Cells))
			stderrs := make([]float64, len(res.Cells))
			for i, cell := range res.Cells {
				finals[i] = cell.Agg.Final(CumPseudo)
				stderrs[i] = cell.Agg.StdErr(CumPseudo)[len(cell.Agg.T)-1]
			}
			return &Table{
				ID: "abl-density", Title: "Final DFL-SSO regret vs graph density",
				XLabel: "edge probability p", YLabel: "final accumulated pseudo-regret",
				X: densities,
				Curves: []Curve{
					{Name: "DFL-SSO final regret", Mean: finals, StdErr: stderrs},
					{Name: "greedy clique-cover size", Mean: covers, StdErr: make([]float64, len(covers))},
				},
			}, nil
		},
	})
}

func registerAblationBaselines() {
	register(Experiment{
		ID:    "abl-baselines",
		Title: "Ablation: DFL-SSO vs standard baselines on the SSO workload",
		Notes: "K=50 arms, G(K,0.3), n=5000. DFL-SSO should dominate every policy " +
			"that ignores side observations; UCB-N is the closest contender.",
		DefaultHorizon: 5000,
		DefaultReps:    10,
		Run: func(p Params) (*Table, error) {
			p = p.withDefaults(5000, 10)
			env, err := newSingleEnv(50, sparseP, p.Seed)
			if err != nil {
				return nil, err
			}
			factories := []SingleFactory{
				func(*rng.RNG) bandit.SinglePolicy { return core.NewDFLSSO() },
				func(*rng.RNG) bandit.SinglePolicy { return policy.NewMOSS() },
				func(*rng.RNG) bandit.SinglePolicy { return policy.NewUCB1() },
				func(*rng.RNG) bandit.SinglePolicy { return policy.NewUCBN() },
				func(r *rng.RNG) bandit.SinglePolicy { return policy.NewThompson(r) },
				func(r *rng.RNG) bandit.SinglePolicy { return policy.NewDecayingEpsilonGreedy(1, r) },
				func(r *rng.RNG) bandit.SinglePolicy { return policy.NewEXP3(0.05, r) },
				func(r *rng.RNG) bandit.SinglePolicy { return policy.NewRandom(r) },
			}
			names := []string{"DFL-SSO", "MOSS", "UCB1", "UCB-N", "Thompson", "eps-greedy", "EXP3", "random"}
			curves, cps, err := singleCurves(env, bandit.SSO, factories, names, []Metric{CumPseudo}, false, p)
			if err != nil {
				return nil, err
			}
			return &Table{
				ID: "abl-baselines", Title: "Baseline comparison (SSO)",
				XLabel: "time slot", YLabel: "accumulated pseudo-regret",
				X: intsToFloats(cps), Curves: curves,
			}, nil
		},
	})
}

// coverNumber computes the greedy clique-cover size of an environment's
// relation graph, used to annotate the density ablation.
func coverNumber(env *bandit.Env) int {
	return graphs.CliqueCoverNumber(env.Graph())
}
