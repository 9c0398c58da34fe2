package sim

import (
	"context"
	"fmt"

	"netbandit/internal/armdist"
	"netbandit/internal/bandit"
	"netbandit/internal/core"
	"netbandit/internal/graphs"
	"netbandit/internal/rng"
)

// registerHomophily adds the workload-realism ablation: the paper's side
// bonus is motivated by neighbouring arms being similar, so this
// experiment compares DFL-SSO (and its greedy-hop variant) on independent
// U[0,1] means versus graph-smoothed homophilous means over the same
// relation graph.
func registerHomophily() {
	register(Experiment{
		ID:    "abl-homophily",
		Title: "Ablation: independent vs homophilous arm means",
		Notes: "K=60, G(K,0.3). Smoothed means make neighbours of good arms good, " +
			"shrinking within-clique gaps: hop exploitation gains value, while " +
			"pure identification gets harder (smaller Δ).",
		DefaultHorizon: 8000,
		DefaultReps:    10,
		Run: func(p Params) (*Table, error) {
			p = p.withDefaults(8000, 10)
			const k = 60
			r := rng.New(p.Seed)
			g := graphs.Gnp(k, sparseP, r.Split(1))

			indMeans, err := bandit.SmoothedMeans(g, 0, r.Split(2))
			if err != nil {
				return nil, err
			}
			homMeans, err := bandit.SmoothedMeans(g, 4, r.Split(2))
			if err != nil {
				return nil, err
			}

			workloads := []struct {
				label string
				means []float64
			}{
				{"independent", indMeans},
				{"homophilous", homMeans},
			}
			envs := make([]EnvSpec, len(workloads))
			corrs := make([]float64, len(workloads))
			for i, w := range workloads {
				dists, err := armdist.BernoulliArms(w.means)
				if err != nil {
					return nil, err
				}
				env, err := bandit.NewEnv(g, dists)
				if err != nil {
					return nil, err
				}
				envs[i] = FixedEnv(w.label, bandit.SSO, env, nil)
				corrs[i] = bandit.NeighborhoodCorrelation(g, w.means)
			}

			cfg := Config{
				Horizon:         p.Horizon,
				Checkpoints:     DefaultCheckpoints(p.Horizon, p.Points),
				AnnounceHorizon: true,
			}
			// Cells run env-major, so curves come out workload by workload.
			sw := Sweep{
				Envs: envs,
				Policies: []PolicySpec{
					{Name: "DFL-SSO", Single: func(*rng.RNG) bandit.SinglePolicy { return core.NewDFLSSO() }},
					{Name: "DFL-SSO-hop", Single: func(*rng.RNG) bandit.SinglePolicy { return core.NewDFLSSOGreedyHop() }},
				},
				Config:        cfg,
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
			curves := make([]Curve, len(res.Cells))
			for i, cell := range res.Cells {
				curves[i] = Curve{
					Name:   fmt.Sprintf("%s / %s (corr=%.2f)", cell.Policy, cell.Env, corrs[i/len(sw.Policies)]),
					Mean:   cell.Agg.Mean(CumPseudo),
					StdErr: cell.Agg.StdErr(CumPseudo),
				}
			}
			return &Table{
				ID: "abl-homophily", Title: "Homophily workload ablation",
				XLabel: "time slot", YLabel: "accumulated pseudo-regret",
				X: intsToFloats(cfg.Checkpoints), Curves: curves,
			}, nil
		},
	})
}
