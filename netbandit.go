package netbandit

import (
	"io"

	"netbandit/internal/armdist"
	"netbandit/internal/bandit"
	"netbandit/internal/core"
	"netbandit/internal/graphs"
	"netbandit/internal/policy"
	"netbandit/internal/rng"
	"netbandit/internal/serve"
	"netbandit/internal/sim"
	"netbandit/internal/strategy"
)

// Core model types, re-exported from the internal implementation.
type (
	// RNG is the deterministic, splittable generator all randomness
	// flows through.
	RNG = rng.RNG
	// Counter is a counter-based random stream: X_{arm,t} is a pure
	// function of (stream, arm, t), independent of sampling order.
	Counter = rng.Counter
	// Graph is an undirected relation graph over arms.
	Graph = graphs.Graph
	// Env is an immutable networked bandit environment.
	Env = bandit.Env
	// Scenario selects one of the paper's four settings.
	Scenario = bandit.Scenario
	// Observation is one revealed arm reward.
	Observation = bandit.Observation
	// Meta describes a single-play game to a policy.
	Meta = bandit.Meta
	// ComboMeta describes a combinatorial game to a policy.
	ComboMeta = bandit.ComboMeta
	// SinglePolicy is a single-play decision rule.
	SinglePolicy = bandit.SinglePolicy
	// ComboPolicy is a combinatorial decision rule.
	ComboPolicy = bandit.ComboPolicy
	// Distribution is a reward law with support in [0, 1].
	Distribution = armdist.Distribution
	// RoundContext carries one round's per-arm feature vectors; it is nil
	// in Select for non-contextual runs.
	RoundContext = bandit.RoundContext
	// ContextualEnv is the linear-reward environment: expected rewards are
	// θ·x_i(t) over per-round features from a counter stream.
	ContextualEnv = bandit.ContextualEnv
	// ComboObjective selects which reward sum a combinatorial baseline
	// maximises: the played arms' own rewards or the whole closure's.
	ComboObjective = policy.ComboObjective
	// StrategySet is an enumerable family of feasible strategies.
	StrategySet = strategy.Set
)

// Simulation harness types.
type (
	// Config controls one simulation run.
	Config = sim.Config
	// Run steps one replication of any scenario round by round.
	Run = sim.Run
	// RewardModel is the environment seam a Run plays through; *Env and
	// *ContextualEnv implement it.
	RewardModel = bandit.RewardModel
	// ComboCache shares per-cell precomputation (optima, strategy
	// relation graph) read-only across replications.
	ComboCache = sim.ComboCache
	// Params tunes a registered experiment.
	Params = sim.Params
	// Experiment is a registered, reproducible experiment.
	Experiment = sim.Experiment
	// Table is the data behind one reproduced figure.
	Table = sim.Table
	// Curve is one aggregated series of a reproduced figure.
	Curve = sim.Curve
)

// Grid-sweep engine types: a Sweep describes the Cartesian product of
// environment, policy, and configuration axes, executed on one shared
// bounded worker pool with streaming aggregation, deterministic seeding,
// and fail-fast cancellation.
type (
	// Sweep describes a grid of experiment cells.
	Sweep = sim.Sweep
	// EnvSpec is one environment axis point of a sweep.
	EnvSpec = sim.EnvSpec
	// PolicySpec is one policy axis point of a sweep.
	PolicySpec = sim.PolicySpec
	// ConfigSpec is one run-configuration axis point of a sweep.
	ConfigSpec = sim.ConfigSpec
	// SweepResult is the outcome of a completed sweep.
	SweepResult = sim.SweepResult
	// SweepProgress reports one folded replication of a running sweep.
	SweepProgress = sim.Progress
)

// Real-time decision service (package serve): many concurrent bandit
// instances — one per tenant, graph, and policy, each created from a
// declarative spec — behind an HTTP JSON API, every closed round
// appended to a checksummed decision log so that a restarted server
// resumes bit-identically and any served decision can be re-derived
// offline (`nbandit serve -replay`).
type (
	// DecisionServer hosts bandit instances behind the /v1 HTTP API; it
	// implements http.Handler and also serves /metrics and /healthz.
	DecisionServer = serve.Server
	// ServeOptions configures a DecisionServer (data directory, snapshot
	// cadence, ingest queue bounds, observability hooks).
	ServeOptions = serve.Options
	// InstanceSpec declaratively describes one hosted bandit instance.
	InstanceSpec = serve.Spec
	// Decision is one answer from the service's decide endpoint.
	Decision = serve.Decision
	// FeedbackItem is one entry of a batched feedback request.
	FeedbackItem = serve.FeedbackItem
	// ServeVerifyResult reports one instance's offline replay audit.
	ServeVerifyResult = serve.VerifyResult
)

// NewDecisionServer builds a decision server over opts.Dir, restoring —
// and replay-verifying — every instance directory found there.
func NewDecisionServer(opts ServeOptions) (*DecisionServer, error) { return serve.New(opts) }

// VerifyServeDir audits every instance under a decision server's data
// directory, proving each decision log re-derives bit-identically.
func VerifyServeDir(dir string) ([]*ServeVerifyResult, error) { return serve.VerifyDir(dir) }

// NewPolicySpec is the registry-backed policy constructor every layer
// shares: it resolves a name against the scenario into a complete sweep
// policy axis point — single-play or combinatorial factory as the
// scenario demands, plus the contextual-requirement flag the sweep grid
// validates.
func NewPolicySpec(name string, scen Scenario) (PolicySpec, error) {
	return sim.NewPolicySpec(name, scen)
}

// The four scenarios.
const (
	// SSO is single-play with side observation.
	SSO = bandit.SSO
	// CSO is combinatorial-play with side observation.
	CSO = bandit.CSO
	// SSR is single-play with side reward.
	SSR = bandit.SSR
	// CSR is combinatorial-play with side reward.
	CSR = bandit.CSR
)

// The two combinatorial objectives.
const (
	// ObjectiveDirect maximises the played arms' own reward sum (the CSO
	// target).
	ObjectiveDirect = policy.Direct
	// ObjectiveClosure maximises the whole closure's reward sum (the CSR
	// target).
	ObjectiveClosure = policy.Closure
)

// The four per-replication regret metrics.
const (
	// CumPseudo is cumulative pseudo-regret.
	CumPseudo = sim.CumPseudo
	// CumRealized is cumulative realized regret.
	CumRealized = sim.CumRealized
	// AvgPseudo is pseudo-regret per round (the paper's "expected regret").
	AvgPseudo = sim.AvgPseudo
	// AvgRealized is realized regret per round.
	AvgRealized = sim.AvgRealized
)

// NewRNG returns a deterministic generator seeded from seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// NewCounter returns the counter-based random stream rooted at seed; see
// Env.SampleObserved for how the simulation uses it.
func NewCounter(seed uint64) Counter { return rng.NewCounter(seed) }

// NewGraph returns an edgeless relation graph on n arms; add edges with
// AddEdge.
func NewGraph(n int) *Graph { return graphs.New(n) }

// GnpGraph returns an Erdős–Rényi G(n, p) relation graph — the paper's
// simulation topology.
func GnpGraph(n int, p float64, r *RNG) *Graph { return graphs.Gnp(n, p, r) }

// NewBernoulliEnv builds an environment with Bernoulli(means[i]) arms over
// the given relation graph (nil graph = classical MAB).
func NewBernoulliEnv(g *Graph, means []float64) (*Env, error) {
	dists, err := armdist.BernoulliArms(means)
	if err != nil {
		return nil, err
	}
	return bandit.NewEnv(g, dists)
}

// NewRandomBernoulliEnv builds the paper's Section VII environment: k
// Bernoulli arms with means drawn uniformly from [0, 1].
func NewRandomBernoulliEnv(g *Graph, k int, r *RNG) (*Env, error) {
	return bandit.NewEnv(g, armdist.RandomBernoulliArms(k, r))
}

// NewEnv builds an environment from explicit reward distributions.
func NewEnv(g *Graph, dists []Distribution) (*Env, error) {
	return bandit.NewEnv(g, dists)
}

// NewSparseBernoulliEnv builds a large-K instance in O(k + edges): a sparse
// random relation graph with the given expected degree over k Bernoulli
// arms with uniform means, deterministic in seed.
func NewSparseBernoulliEnv(k int, avgDeg float64, seed uint64) (*Env, error) {
	return bandit.SparseBernoulliEnv(k, avgDeg, seed)
}

// TopM enumerates all size-m strategies over k arms as the feasible family.
func TopM(k, m int, g *Graph) (*StrategySet, error) { return strategy.TopM(k, m, g) }

// IndependentSets enumerates the independent sets of g with at most
// maxSize arms — the strategy family of the paper's Fig. 2 example.
func IndependentSets(g *Graph, maxSize int) (*StrategySet, error) {
	return strategy.IndependentSets(g, maxSize)
}

// BudgetedStrategies enumerates every arm subset whose total cost stays
// within budget — heterogeneous-cost constraints such as priced ad slots.
func BudgetedStrategies(costs []float64, budget float64, g *Graph) (*StrategySet, error) {
	return strategy.Budgeted(costs, budget, g)
}

// WindowStrategies builds the sliding-window family {x, ..., x+m-1 mod k},
// one strategy per arm — a combinatorial family whose size stays K at any
// K, unlike the enumeration-capped TopM.
func WindowStrategies(k, m int, g *Graph) (*StrategySet, error) {
	return bandit.WindowStrategies(k, m, g)
}

// BuildStrategyGraph constructs the Section IV strategy relation graph
// SG(F, L) for a feasible family.
func BuildStrategyGraph(set *StrategySet) *Graph { return core.BuildStrategyGraph(set) }

// The paper's algorithms (package core).

// NewDFLSSO returns Algorithm 1: distribution-free learning for
// single-play with side observation.
func NewDFLSSO() SinglePolicy { return core.NewDFLSSO() }

// NewDFLCSO returns Algorithm 2: distribution-free learning for
// combinatorial-play with side observation.
func NewDFLCSO() ComboPolicy { return core.NewDFLCSO() }

// NewDFLSSR returns Algorithm 3: distribution-free learning for
// single-play with side reward (exact observation-log estimator).
func NewDFLSSR() SinglePolicy { return core.NewDFLSSR() }

// NewDFLSSRStreaming returns the bounded-memory DFL-SSR variant.
func NewDFLSSRStreaming() SinglePolicy { return core.NewDFLSSRStreaming() }

// NewDFLCSR returns Algorithm 4: distribution-free learning for
// combinatorial-play with side reward, with the exact oracle.
func NewDFLCSR() ComboPolicy { return core.NewDFLCSR() }

// Baselines (package policy). The registry's other baselines (UCB1,
// UCB-N, Thompson sampling, EXP3, CTS, OSMD, ...) are built by name
// through NewPolicySpec.

// NewMOSS returns the MOSS baseline the paper's Fig. 3 compares against.
func NewMOSS() SinglePolicy { return policy.NewMOSS() }

// NewCUCBDirect returns the combinatorial UCB baseline targeting direct
// reward (CSO objective).
func NewCUCBDirect() ComboPolicy { return policy.NewCUCB(policy.Direct) }

// NewComboRandom returns the uniform-random combinatorial baseline.
func NewComboRandom(r *RNG) ComboPolicy { return policy.NewComboRandom(r) }

// Contextual policies (package policy): decision rules that read the
// per-round feature vectors a ContextualEnv publishes through Select.

// NewCombLinUCB returns combinatorial LinUCB: one shared ridge model
// scores every arm and the feasible strategy maximising the summed upper
// confidence bounds (under obj) is played.
func NewCombLinUCB(alpha float64, obj ComboObjective) ComboPolicy {
	return policy.NewCombLinUCB(alpha, obj)
}

// NewCombCtxThompson returns combinatorial linear Thompson sampling: one
// posterior draw per round scores all arms, the best feasible strategy
// under obj is played.
func NewCombCtxThompson(v float64, obj ComboObjective, r *RNG) ComboPolicy {
	return policy.NewCombCtxThompson(v, obj, r)
}

// Simulation entry points (package sim).

// NewSingleRun returns a round-by-round stepper for a single-play (SSO or
// SSR) replication over a fixed or contextual environment; Run plays it
// to the horizon.
func NewSingleRun(env RewardModel, scen Scenario, pol SinglePolicy, cfg Config, r *RNG) (*Run, error) {
	return sim.NewSingleRun(env, scen, pol, cfg, r)
}

// NewComboRun returns a round-by-round stepper for a combinatorial (CSO
// or CSR) replication over the strategy set; cache may be nil.
func NewComboRun(env RewardModel, set *StrategySet, scen Scenario, pol ComboPolicy, cfg Config, r *RNG, cache *ComboCache) (*Run, error) {
	return sim.NewComboRun(env, set, scen, pol, cfg, r, cache)
}

// NewContextualEnv builds a linear-reward environment over the relation
// graph g (nil for no side information): expected rewards are
// theta·x_i(t) with per-round features drawn from the counter stream.
func NewContextualEnv(g *Graph, k int, theta []float64, features Counter) (*ContextualEnv, error) {
	return bandit.NewContextualEnv(g, k, theta, features)
}

// RandomTheta draws a hidden weight vector for NewContextualEnv from r,
// normalised to sum 1.
func RandomTheta(r *RNG, d int) []float64 { return bandit.RandomTheta(r, d) }

// GnpBernoulliEnv returns the paper's Section VII environment as a sweep
// axis: a G(k, p) relation graph with uniform-random Bernoulli arms (and,
// for combinatorial scenarios, the all-m-subsets family).
func GnpBernoulliEnv(name string, scen Scenario, k, m int, p float64) EnvSpec {
	return sim.GnpBernoulliEnv(name, scen, k, m, p)
}

// ContextualGnpEnv returns a contextual sweep axis: a G(k, p) relation
// graph with d-dimensional per-round features and linear expected
// rewards (and, for combinatorial scenarios, the all-m-subsets family).
func ContextualGnpEnv(name string, scen Scenario, k, m, d int, p float64) EnvSpec {
	return sim.ContextualGnpEnv(name, scen, k, m, d, p)
}

// FixedEnv wraps a prebuilt environment (plus strategy set for
// combinatorial scenarios) as a sweep axis.
func FixedEnv(name string, scen Scenario, env *Env, set *StrategySet) EnvSpec {
	return sim.FixedEnv(name, scen, env, set)
}

// WriteSweepJSON exports the full per-cell sweep curves as JSON.
func WriteSweepJSON(w io.Writer, res *SweepResult) error { return sim.WriteSweepJSON(w, res) }

// Experiments lists the registered figure/ablation reproductions.
func Experiments() []Experiment { return sim.Experiments() }

// FindExperiment returns the experiment registered under id (e.g.
// "fig3a").
func FindExperiment(id string) (Experiment, bool) { return sim.FindExperiment(id) }

// RenderASCII draws a reproduced table as an ASCII chart.
func RenderASCII(t *Table) string { return sim.RenderASCII(t) }

// WriteCSV exports a reproduced table as CSV (x column, then mean and
// stderr columns per curve).
func WriteCSV(w io.Writer, t *Table) error { return sim.WriteCSV(w, t) }

// Summary prints each curve's final value.
func Summary(t *Table) string { return sim.Summary(t) }
