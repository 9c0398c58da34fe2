package netbandit_test

import (
	"math"
	"strings"
	"testing"

	"netbandit"
)

func TestFacadeEnvironmentConstruction(t *testing.T) {
	r := netbandit.NewRNG(1)
	g := netbandit.GnpGraph(10, 0.3, r)
	env, err := netbandit.NewBernoulliEnv(g, []float64{
		0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95,
	})
	if err != nil {
		t.Fatal(err)
	}
	if env.K() != 10 {
		t.Fatalf("K = %d", env.K())
	}
	if arm, mean := env.BestArm(); arm != 9 || mean != 0.95 {
		t.Fatalf("best arm = %d (%v)", arm, mean)
	}
	if _, err := netbandit.NewBernoulliEnv(g, []float64{1.5}); err == nil {
		t.Fatal("invalid mean accepted")
	}
}

func TestFacadeDistributions(t *testing.T) {
	if _, err := netbandit.Bernoulli(0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := netbandit.Beta(2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := netbandit.TruncGaussian(0.5, 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := netbandit.Bernoulli(-1); err == nil {
		t.Fatal("invalid Bernoulli accepted")
	}
}

func TestFacadePolicyConstructors(t *testing.T) {
	r := netbandit.NewRNG(2)
	singles := []netbandit.SinglePolicy{
		netbandit.NewDFLSSO(),
		netbandit.NewDFLSSOGreedyHop(),
		netbandit.NewDFLSSR(),
		netbandit.NewDFLSSRStreaming(),
		netbandit.NewMOSS(),
		netbandit.NewUCB1(),
		netbandit.NewUCBN(),
		netbandit.NewUCBMaxN(),
		netbandit.NewThompson(r),
		netbandit.NewEpsilonGreedy(0.1, r),
		netbandit.NewEXP3(0.1, r),
		netbandit.NewRandomPolicy(r),
	}
	seen := map[string]bool{}
	for _, p := range singles {
		name := p.Name()
		if name == "" || seen[name] {
			t.Fatalf("bad or duplicate policy name %q", name)
		}
		seen[name] = true
	}
	combos := []netbandit.ComboPolicy{
		netbandit.NewDFLCSO(),
		netbandit.NewDFLCSR(),
		netbandit.NewDFLCSRWithOracle(netbandit.GreedyOracle(2)),
		netbandit.NewCUCBDirect(),
		netbandit.NewCUCBClosure(),
		netbandit.NewComboRandom(r),
	}
	for _, p := range combos {
		if p.Name() == "" {
			t.Fatal("empty combo policy name")
		}
	}
}

func TestFacadeEndToEndSSO(t *testing.T) {
	r := netbandit.NewRNG(3)
	g := netbandit.GnpGraph(20, 0.4, r)
	env, err := netbandit.NewRandomBernoulliEnv(g, 20, r)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := netbandit.ReplicateSingle(env, netbandit.SSO,
		func(*netbandit.RNG) netbandit.SinglePolicy { return netbandit.NewDFLSSO() },
		netbandit.Config{Horizon: 1500, AnnounceHorizon: true},
		netbandit.ReplicateOptions{Reps: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	final := agg.Final(netbandit.AvgPseudo)
	if math.IsNaN(final) || final < 0 || final > 0.5 {
		t.Fatalf("implausible final avg regret %v", final)
	}
}

func TestFacadeEndToEndCSR(t *testing.T) {
	r := netbandit.NewRNG(5)
	g := netbandit.GnpGraph(10, 0.3, r)
	env, err := netbandit.NewRandomBernoulliEnv(g, 10, r)
	if err != nil {
		t.Fatal(err)
	}
	set, err := netbandit.TopM(10, 2, g)
	if err != nil {
		t.Fatal(err)
	}
	run, err := netbandit.NewComboRun(env, set, netbandit.CSR, netbandit.NewDFLCSR(),
		netbandit.Config{Horizon: 500}, netbandit.NewRNG(6), nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := run.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.T) == 0 || s.Policy != "DFL-CSR" {
		t.Fatalf("bad series: %+v", s)
	}
}

func TestFacadeStrategyHelpers(t *testing.T) {
	g := netbandit.StarGraph(5)
	set, err := netbandit.UpToM(5, 2, g)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 15 { // C(5,1)+C(5,2)
		t.Fatalf("|F| = %d, want 15", set.Len())
	}
	explicit, err := netbandit.ExplicitStrategies(3, [][]int{{0}, {1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if explicit.Len() != 2 {
		t.Fatalf("|F| = %d", explicit.Len())
	}
	ind, err := netbandit.IndependentSets(netbandit.CompleteGraph(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	if ind.Len() != 3 { // only singletons in K3
		t.Fatalf("|F| = %d, want 3", ind.Len())
	}
	sg := netbandit.BuildStrategyGraph(ind)
	if sg.N() != 3 {
		t.Fatalf("SG size %d", sg.N())
	}
	if netbandit.ExactOracle().Name() != "exact" {
		t.Fatal("oracle name")
	}
}

func TestFacadeExperimentsRegistry(t *testing.T) {
	exps := netbandit.Experiments()
	if len(exps) < 11 {
		t.Fatalf("only %d experiments registered", len(exps))
	}
	e, ok := netbandit.FindExperiment("fig5")
	if !ok {
		t.Fatal("fig5 missing")
	}
	table, err := e.Run(netbandit.Params{Horizon: 300, Reps: 2, Seed: 7, Points: 10})
	if err != nil {
		t.Fatal(err)
	}
	if out := netbandit.RenderASCII(table); !strings.Contains(out, "fig5") {
		t.Fatal("ASCII render missing id")
	}
	if out := netbandit.Summary(table); !strings.Contains(out, "final") {
		t.Fatal("summary malformed")
	}
	var sb strings.Builder
	if err := netbandit.WriteCSV(&sb, table); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "DFL-SSR") {
		t.Fatal("CSV missing curve")
	}
}
