package sim

import (
	"context"
	"fmt"

	"netbandit/internal/armdist"
	"netbandit/internal/bandit"
	"netbandit/internal/core"
	"netbandit/internal/graphs"
	"netbandit/internal/policy"
	"netbandit/internal/rng"
	"netbandit/internal/strategy"
)

// Experiment environment scales, from the paper's Section VII: Fig. 3/5
// use 100 arms on a random relation graph with n = 10000; the
// combinatorial figures use a 20-arm graph with all 2-subsets as the
// feasible family so that |F| = 190 stays enumeration-friendly while the
// sparse/dense comparison varies only side-observation density.
const (
	singleArms   = 100
	comboArms    = 20
	comboSize    = 2
	paperHorizon = 10000
	paperReps    = 20
	sparseP      = 0.3
	denseP       = 0.6
)

// newSingleEnv builds the Fig. 3/5 environment: G(K, p) relation graph and
// Bernoulli arms with means drawn uniformly from [0, 1].
func newSingleEnv(k int, p float64, seed uint64) (*bandit.Env, error) {
	r := rng.New(seed)
	g := graphs.Gnp(k, p, r.Split(1))
	dists := armdist.RandomBernoulliArms(k, r.Split(2))
	return bandit.NewEnv(g, dists)
}

// newComboEnv builds the Fig. 4/6 environment plus its top-M strategy set.
func newComboEnv(k, m int, p float64, seed uint64) (*bandit.Env, *strategy.Set, error) {
	r := rng.New(seed)
	g := graphs.Gnp(k, p, r.Split(1))
	dists := armdist.RandomBernoulliArms(k, r.Split(2))
	env, err := bandit.NewEnv(g, dists)
	if err != nil {
		return nil, nil, err
	}
	set, err := strategy.TopM(k, m, g)
	if err != nil {
		return nil, nil, err
	}
	return env, set, nil
}

// figureConfig is the shared run configuration of every registered figure.
func figureConfig(p Params) Config {
	return Config{
		Horizon:         p.Horizon,
		Checkpoints:     DefaultCheckpoints(p.Horizon, p.Points),
		AnnounceHorizon: true,
	}
}

// figureCurves runs one figure's policy panel as a single sweep over the
// prebuilt environment — every contender shares one bounded worker pool —
// and extracts the chosen metrics as named curves. CommonStreams keeps the
// per-replication randomness identical across policies (and identical to a
// per-policy replication loop), so recorded figure outputs are unchanged.
func figureCurves(envSpec EnvSpec, policies []PolicySpec, metrics []Metric, metricSuffix bool, p Params) ([]Curve, []int, error) {
	cfg := figureConfig(p)
	sw := Sweep{
		Envs:          []EnvSpec{envSpec},
		Policies:      policies,
		Config:        cfg,
		Reps:          p.Reps,
		Seed:          p.Seed,
		Workers:       p.Workers,
		CommonStreams: true,
		Progress:      p.Progress,
	}
	res, err := sw.Run(context.Background())
	if err != nil {
		return nil, nil, err
	}
	var curves []Curve
	for _, cell := range res.Cells {
		for _, m := range metrics {
			name := cell.Policy
			if metricSuffix {
				name = fmt.Sprintf("%s (%s)", cell.Policy, m)
			}
			curves = append(curves, Curve{Name: name, Mean: cell.Agg.Mean(m), StdErr: cell.Agg.StdErr(m)})
		}
	}
	return curves, cfg.Checkpoints, nil
}

// singleCurves adapts a single-play factory panel to figureCurves.
func singleCurves(env *bandit.Env, scen bandit.Scenario, factories []SingleFactory, names []string, metrics []Metric, metricSuffix bool, p Params) ([]Curve, []int, error) {
	policies := make([]PolicySpec, len(factories))
	for i := range factories {
		policies[i] = PolicySpec{Name: names[i], Single: factories[i]}
	}
	return figureCurves(FixedEnv("", scen, env, nil), policies, metrics, metricSuffix, p)
}

// comboCurves adapts a combinatorial factory panel to figureCurves.
func comboCurves(env *bandit.Env, set *strategy.Set, scen bandit.Scenario, factories []ComboFactory, names []string, metrics []Metric, metricSuffix bool, p Params) ([]Curve, []int, error) {
	policies := make([]PolicySpec, len(factories))
	for i := range factories {
		policies[i] = PolicySpec{Name: names[i], Combo: factories[i]}
	}
	return figureCurves(FixedEnv("", scen, env, set), policies, metrics, metricSuffix, p)
}

func init() {
	registerFig3()
	registerFig4()
	registerFig5()
	registerFig6()
	registerAblations()
}

// fig3Factories are the Fig. 3 contenders: MOSS without side information
// versus DFL-SSO.
func fig3Factories() ([]SingleFactory, []string) {
	factories := []SingleFactory{
		func(*rng.RNG) bandit.SinglePolicy { return policy.NewMOSS() },
		func(*rng.RNG) bandit.SinglePolicy { return core.NewDFLSSO() },
	}
	return factories, []string{"MOSS", "DFL-SSO"}
}

func registerFig3() {
	register(Experiment{
		ID:    "fig3a",
		Title: "Fig. 3(a): expected (time-averaged) regret, MOSS vs DFL-SSO",
		Notes: fmt.Sprintf("K=%d arms, G(K,%.1f) relation graph, Bernoulli means ~ U[0,1], n=%d. "+
			"Expected shape: both curves decay toward 0; DFL-SSO decays much faster.",
			singleArms, sparseP, paperHorizon),
		DefaultHorizon: paperHorizon,
		DefaultReps:    paperReps,
		Run: func(p Params) (*Table, error) {
			p = p.withDefaults(paperHorizon, paperReps)
			env, err := newSingleEnv(singleArms, sparseP, p.Seed)
			if err != nil {
				return nil, err
			}
			factories, names := fig3Factories()
			curves, cps, err := singleCurves(env, bandit.SSO, factories, names, []Metric{AvgPseudo}, false, p)
			if err != nil {
				return nil, err
			}
			return &Table{
				ID: "fig3a", Title: "Expected regret over time: MOSS vs DFL-SSO",
				XLabel: "time slot", YLabel: "expected regret (cum. pseudo-regret / t)",
				X: intsToFloats(cps), Curves: curves,
			}, nil
		},
	})
	register(Experiment{
		ID:    "fig3b",
		Title: "Fig. 3(b): accumulated regret, MOSS vs DFL-SSO",
		Notes: "Same workload as fig3a. Expected shape: MOSS grows ~sqrt(n) into the " +
			"thousands; DFL-SSO flattens at a small constant.",
		DefaultHorizon: paperHorizon,
		DefaultReps:    paperReps,
		Run: func(p Params) (*Table, error) {
			p = p.withDefaults(paperHorizon, paperReps)
			env, err := newSingleEnv(singleArms, sparseP, p.Seed)
			if err != nil {
				return nil, err
			}
			factories, names := fig3Factories()
			curves, cps, err := singleCurves(env, bandit.SSO, factories, names, []Metric{CumPseudo}, false, p)
			if err != nil {
				return nil, err
			}
			return &Table{
				ID: "fig3b", Title: "Accumulated regret: MOSS vs DFL-SSO",
				XLabel: "time slot", YLabel: "accumulated pseudo-regret",
				X: intsToFloats(cps), Curves: curves,
			}, nil
		},
	})
}

func registerFig4() {
	for _, variant := range []struct {
		id    string
		p     float64
		label string
	}{
		{"fig4a", sparseP, "sparse"},
		{"fig4b", denseP, "dense"},
	} {
		variant := variant
		register(Experiment{
			ID: variant.id,
			Title: fmt.Sprintf("Fig. 4(%c): DFL-CSO expected regret, %s relation graph (p=%.1f)",
				variant.id[4], variant.label, variant.p),
			Notes: fmt.Sprintf("K=%d arms, strategies = all %d-subsets (|F|=190), G(K,%.1f), n=%d. "+
				"Expected shape: the dense graph's curve approaches 0 faster than the sparse one; "+
				"the realized curve can dip below 0 (paper Fig. 4(b)).",
				comboArms, comboSize, variant.p, paperHorizon),
			DefaultHorizon: paperHorizon,
			DefaultReps:    paperReps,
			Run: func(p Params) (*Table, error) {
				p = p.withDefaults(paperHorizon, paperReps)
				env, set, err := newComboEnv(comboArms, comboSize, variant.p, p.Seed)
				if err != nil {
					return nil, err
				}
				factories := []ComboFactory{
					func(*rng.RNG) bandit.ComboPolicy { return core.NewDFLCSO() },
				}
				curves, cps, err := comboCurves(env, set, bandit.CSO, factories,
					[]string{"DFL-CSO"}, []Metric{AvgPseudo, AvgRealized}, true, p)
				if err != nil {
					return nil, err
				}
				return &Table{
					ID:     variant.id,
					Title:  fmt.Sprintf("DFL-CSO expected regret (%s graph, p=%.1f)", variant.label, variant.p),
					XLabel: "time slot", YLabel: "expected regret",
					X: intsToFloats(cps), Curves: curves,
				}, nil
			},
		})
	}
}

func registerFig5() {
	register(Experiment{
		ID:    "fig5",
		Title: "Fig. 5: DFL-SSR expected regret",
		Notes: fmt.Sprintf("K=%d arms, G(K,%.1f), n=%d, side rewards. "+
			"Expected shape: expected regret converges to 0.", singleArms, sparseP, paperHorizon),
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
			}
			curves, cps, err := singleCurves(env, bandit.SSR, factories,
				[]string{"DFL-SSR"}, []Metric{AvgPseudo, AvgRealized}, true, p)
			if err != nil {
				return nil, err
			}
			return &Table{
				ID: "fig5", Title: "DFL-SSR expected regret",
				XLabel: "time slot", YLabel: "expected regret",
				X: intsToFloats(cps), Curves: curves,
			}, nil
		},
	})
}

func registerFig6() {
	register(Experiment{
		ID:    "fig6",
		Title: "Fig. 6: DFL-CSR expected regret",
		Notes: fmt.Sprintf("K=%d arms, strategies = all %d-subsets, G(K,%.1f), n=%d, "+
			"exact oracle. Expected shape: expected regret converges to 0.",
			comboArms, comboSize, sparseP, paperHorizon),
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
			}
			curves, cps, err := comboCurves(env, set, bandit.CSR, factories,
				[]string{"DFL-CSR"}, []Metric{AvgPseudo, AvgRealized}, true, p)
			if err != nil {
				return nil, err
			}
			return &Table{
				ID: "fig6", Title: "DFL-CSR expected regret",
				XLabel: "time slot", YLabel: "expected regret",
				X: intsToFloats(cps), Curves: curves,
			}, nil
		},
	})
}
