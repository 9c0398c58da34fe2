package sim

import (
	"fmt"

	"netbandit/internal/bandit"
	"netbandit/internal/core"
	"netbandit/internal/graphs"
	"netbandit/internal/rng"
	"netbandit/internal/strategy"
	"netbandit/internal/trace"
)

// Config controls a single simulation run.
type Config struct {
	// Horizon is the number of rounds n. Required.
	Horizon int
	// Checkpoints are the 1-based rounds at which the regret curves are
	// sampled, in increasing order. Nil selects an even 100-point grid.
	Checkpoints []int
	// AnnounceHorizon passes Horizon to the policy via Meta (MOSS uses
	// it); when false the policy runs anytime.
	AnnounceHorizon bool
	// Observer, when non-nil, receives one trace.Event per round. The
	// event's observation slice is reused between rounds; observers must
	// copy what they keep (trace.Recorder does).
	Observer trace.Observer
}

func (c Config) validate() error {
	if c.Horizon <= 0 {
		return fmt.Errorf("sim: horizon must be positive, got %d", c.Horizon)
	}
	for i, cp := range c.Checkpoints {
		if cp < 1 || cp > c.Horizon {
			return fmt.Errorf("sim: checkpoint %d out of range [1,%d]", cp, c.Horizon)
		}
		if i > 0 && cp <= c.Checkpoints[i-1] {
			return fmt.Errorf("sim: checkpoints must be strictly increasing")
		}
	}
	return nil
}

// checkpoints returns the configured grid, or an even default grid.
func (c Config) checkpoints() []int {
	if len(c.Checkpoints) > 0 {
		return c.Checkpoints
	}
	return DefaultCheckpoints(c.Horizon, 100)
}

// DefaultCheckpoints builds an even grid of `points` checkpoints over
// [1, horizon], always ending exactly at horizon.
func DefaultCheckpoints(horizon, points int) []int {
	if points > horizon {
		points = horizon
	}
	if points < 1 {
		points = 1
	}
	out := make([]int, 0, points)
	for i := 1; i <= points; i++ {
		cp := i * horizon / points
		if cp < 1 {
			cp = 1
		}
		if len(out) > 0 && cp == out[len(out)-1] {
			continue
		}
		out = append(out, cp)
	}
	return out
}

// Series is one replication's regret curves sampled at T.
type Series struct {
	Policy      string
	T           []int
	CumPseudo   []float64
	CumRealized []float64
	AvgPseudo   []float64
	AvgRealized []float64
}

// Run is one replication in progress, advanced a round at a time. It
// plays every scenario with one round loop: the environment is reached
// through the bandit.RewardModel seam (fixed or contextual means), the
// action space is a strategy set or, for single play, the arms themselves,
// and the only scenario split left is the payoff — the played arms' own
// rewards (SSO, CSO) or the whole revealed closure's (SSR, CSR). Each
// round samples only the revealed closure from a counter stream, plus the
// policy's own work, and allocates nothing in steady state.
type Run struct {
	env     bandit.RewardModel
	space   actionSpace
	closure bool // Closure payoff (SSR, CSR); Direct otherwise
	pol     bandit.ComboPolicy
	cfg     Config
	ctr     rng.Counter
	scratch *rng.RNG
	tracker *bandit.RegretTracker
	out     *Series
	rc      *bandit.RoundContext
	means   []float64
	xs      []float64 // Direct payoff: revealed values by arm index
	obs     []bandit.Observation
	next    int
	t       int
	pending int // action of the open round, -1 when none (see Decide)
}

// actionSpace is what a run chooses among: the strategies of a
// strategy.Set, or armSpace for single play. Arms lists what action a
// plays, Closure what it reveals, both sorted and shared; BestDirect and
// BestClosure are the payoff oracles, scanning lowest index first and
// keeping only strict improvements.
type actionSpace interface {
	Len() int
	Arms(a int) []int
	Closure(a int) []int
	BestDirect(w []float64) (a int, payoff float64)
	BestClosure(w []float64) (a int, payoff float64)
}

// armSpace plays single arms as implicit singletons over the model's own
// closed neighbourhoods: arm i's singleton is carved out of Closed(i) at
// SelfPos(i), so nothing is built per arm — strategy.Singletons would
// allocate O(K²/64) bitset words.
type armSpace struct{ env bandit.RewardModel }

func (s armSpace) Len() int { return s.env.K() }

func (s armSpace) Arms(i int) []int {
	p := s.env.SelfPos(i)
	return s.env.Closed(i)[p : p+1 : p+1]
}

func (s armSpace) Closure(i int) []int { return s.env.Closed(i) }

func (s armSpace) BestDirect(w []float64) (int, float64) {
	best := 0
	for i := 1; i < len(w); i++ {
		if w[i] > w[best] {
			best = i
		}
	}
	return best, w[best]
}

func (s armSpace) BestClosure(w []float64) (int, float64) {
	best, bestV := 0, bandit.SumValues(w, s.env.Closed(0))
	for i := 1; i < len(w); i++ {
		if v := bandit.SumValues(w, s.env.Closed(i)); v > bestV {
			best, bestV = i, v
		}
	}
	return best, bestV
}

// bestPayoff returns the benchmark's expected payoff: the largest over
// the action space under means.
func bestPayoff(space actionSpace, closure bool, means []float64) (best float64) {
	if closure {
		_, best = space.BestClosure(means)
	} else {
		_, best = space.BestDirect(means)
	}
	return best
}

// singlePlay adapts a single-play policy to the combinatorial interface
// the runner drives: actions are arms, and Reset passes on exactly the
// single-play Meta.
type singlePlay struct{ pol bandit.SinglePolicy }

func (s singlePlay) Name() string { return s.pol.Name() }

func (s singlePlay) Reset(m bandit.ComboMeta) {
	s.pol.Reset(bandit.Meta{K: m.K, Horizon: m.Horizon, Graph: m.Graph, Scenario: m.Scenario, Dim: m.Dim})
}

func (s singlePlay) Select(t int, rc *bandit.RoundContext) int { return s.pol.Select(t, rc) }

func (s singlePlay) Update(t, chosen int, obs []bandit.Observation) { s.pol.Update(t, chosen, obs) }

// NewSingleRun validates the configuration, resets the policy, and returns
// a single-play (SSO or SSR) stepper positioned before round 1. The
// generator r seeds the environment's counter stream: every X_{i,t} is a
// pure function of (r's state at this call, i, t), so results do not
// depend on the policy's observation pattern. r itself is neither advanced
// nor retained. Over a contextual model each round's context reaches the
// policy through Select; fixed-mean policies ignore it, so one cell can
// compare LinUCB against the classical baselines.
func NewSingleRun(env bandit.RewardModel, scen bandit.Scenario, pol bandit.SinglePolicy, cfg Config, r *rng.RNG) (*Run, error) {
	if scen.Combinatorial() {
		return nil, fmt.Errorf("sim: single-play run called with combinatorial scenario %v", scen)
	}
	return newRun(env, nil, scen, singlePlay{pol}, cfg, r, nil)
}

// NewComboRun is NewSingleRun for a combinatorial scenario (CSO or CSR)
// over the feasible strategy set. cache may be nil (each replication then
// pays its own precomputation, and SG-building policies construct their
// own graph); passing the cell's ComboCache shares all of it.
func NewComboRun(env bandit.RewardModel, set *strategy.Set, scen bandit.Scenario, pol bandit.ComboPolicy, cfg Config, r *rng.RNG, cache *ComboCache) (*Run, error) {
	if !scen.Combinatorial() {
		return nil, fmt.Errorf("sim: combinatorial run called with single-play scenario %v", scen)
	}
	if set.K() != env.K() {
		return nil, fmt.Errorf("sim: strategy set over %d arms, environment has %d", set.K(), env.K())
	}
	if cache != nil && (cache.env != env || cache.set != set) {
		return nil, fmt.Errorf("sim: ComboCache built for a different environment or strategy set")
	}
	return newRun(env, set, scen, pol, cfg, r, cache)
}

// newRun builds a run over set, or over the arms themselves when set is
// nil.
func newRun(env bandit.RewardModel, set *strategy.Set, scen bandit.Scenario, pol bandit.ComboPolicy, cfg Config, r *rng.RNG, cache *ComboCache) (*Run, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var space actionSpace = armSpace{env}
	if set != nil {
		space = set
	}
	run := &Run{
		env:     env,
		space:   space,
		closure: scen.SideReward(),
		pol:     pol,
		cfg:     cfg,
		ctr:     r.Counter(),
		// The scratch generator is fully reseeded before every use, so a
		// private zero-value instance suffices; sharing r here would
		// clobber a generator the caller may have wired into the policy.
		scratch: new(rng.RNG),
		obs:     make([]bandit.Observation, 0, env.K()),
		pending: -1,
	}
	if !run.closure {
		run.xs = make([]float64, env.K())
	}
	meta := bandit.ComboMeta{K: env.K(), Graph: env.Graph(), Strategies: set, Scenario: scen, Dim: env.D()}
	if cfg.AnnounceHorizon {
		meta.Horizon = cfg.Horizon
	}
	if cache != nil {
		meta.SharedSG = cache.sg
	}
	pol.Reset(meta)
	var optimal float64
	if env.D() == 0 {
		// Fixed means: the benchmark is scored once, not every round.
		switch {
		case cache != nil && run.closure:
			optimal = cache.optClosure
		case cache != nil:
			optimal = cache.optDirect
		default:
			_, means := env.RoundMeans(0, nil, nil)
			optimal = bestPayoff(space, run.closure, means)
		}
	}
	run.tracker = bandit.NewRegretTracker(optimal)
	run.out = newSeries(pol.Name(), cfg.checkpoints())
	return run, nil
}

// play runs a freshly built stepper to its horizon, passing a
// construction error through.
func play(run *Run, err error) (*Series, error) {
	if err != nil {
		return nil, err
	}
	return run.Run()
}

// Done reports whether the run has played all cfg.Horizon rounds.
func (r *Run) Done() bool { return r.t >= r.cfg.Horizon }

// Round returns the number of rounds fully played (decided and fed back).
func (r *Run) Round() int {
	if r.pending >= 0 {
		return r.t - 1
	}
	return r.t
}

// Series returns the regret curves recorded so far. Checkpoints beyond the
// current round are zero until reached.
func (r *Run) Series() *Series { return r.out }

// Regret returns the cumulative pseudo- and realized regret accumulated
// over the rounds played so far.
func (r *Run) Regret() (cumPseudo, cumRealized float64) {
	return r.tracker.CumPseudo(), r.tracker.CumRealized()
}

// Decide opens round t = Round()+1 and returns the policy's chosen action
// (an arm for single play, a strategy index otherwise) without closing
// the round: the caller supplies the revealed rewards later via
// ApplyFeedback (or lets the environment sample them via AutoFeedback).
// Calling Decide again while a round is open returns the same (t, action)
// pair without consulting the policy — the decision is served
// idempotently, which is what a retrying network client needs and what
// keeps replay exact for policies whose Select consumes randomness.
func (r *Run) Decide() (t, action int, err error) {
	if r.pending >= 0 {
		return r.t, r.pending, nil
	}
	if r.t >= r.cfg.Horizon {
		return 0, 0, fmt.Errorf("sim: horizon %d exhausted", r.cfg.Horizon)
	}
	r.t++
	t = r.t
	r.rc, r.means = r.env.RoundMeans(t, r.rc, r.means)
	action = r.pol.Select(t, r.rc)
	if action < 0 || action >= r.space.Len() {
		r.t--
		return 0, 0, fmt.Errorf("sim: round %d: policy %s selected invalid action %d", t, r.pol.Name(), action)
	}
	r.pending = action
	return t, action, nil
}

// PendingContext returns the feature context of the open round, or nil
// when the means are fixed. The buffer is reused; callers that keep it
// across rounds must copy. It errors when no round is open.
func (r *Run) PendingContext() (*bandit.RoundContext, error) {
	if r.pending < 0 {
		return nil, fmt.Errorf("sim: no open round")
	}
	return r.rc, nil
}

// Pending returns the open round and its chosen action, if any.
func (r *Run) Pending() (t, action int, ok bool) {
	if r.pending < 0 {
		return 0, 0, false
	}
	return r.t, r.pending, true
}

// PendingArms returns the arms the open round plays — the chosen arm
// alone for single play, the strategy's arms otherwise — in ascending
// order. The slice is shared; callers must not modify it.
func (r *Run) PendingArms() ([]int, error) {
	if r.pending < 0 {
		return nil, fmt.Errorf("sim: no open round")
	}
	return r.space.Arms(r.pending), nil
}

// PendingClosure returns the arms whose rewards the open round reveals —
// the chosen arm's closed neighbourhood or the strategy's closure Y_x, in
// ascending arm order, the order ApplyFeedback expects values in. The
// slice is shared; callers must not modify it.
func (r *Run) PendingClosure() ([]int, error) {
	if r.pending < 0 {
		return nil, fmt.Errorf("sim: no open round")
	}
	return r.space.Closure(r.pending), nil
}

// ApplyFeedback closes the open round with caller-supplied rewards:
// values[j] is the revealed reward of PendingClosure()[j]. Regret is
// accounted against the environment's means exactly as in Step, the
// policy is updated, and checkpoints are recorded. The decision sequence
// is then a pure function of (seed, feedback history): replaying the
// same values re-derives the same subsequent decisions bit-for-bit.
func (r *Run) ApplyFeedback(values []float64) error {
	if r.pending < 0 {
		return fmt.Errorf("sim: feedback with no open round")
	}
	closure := r.space.Closure(r.pending)
	if len(values) != len(closure) {
		return fmt.Errorf("sim: round %d: feedback carries %d values, closure of action %d has %d",
			r.t, len(values), r.pending, len(closure))
	}
	obs := r.obs[:0]
	for j, arm := range closure {
		obs = append(obs, bandit.Observation{Arm: arm, Value: values[j]})
		if r.xs != nil {
			r.xs[arm] = values[j]
		}
	}
	r.obs = obs
	r.closeRound(obs)
	return nil
}

// AutoFeedback closes the open round by sampling the revealed closure
// from the environment's counter stream — the simulation half of Step,
// split out so a decision service can run shadow-mode instances through
// the exact per-round code path. The returned observations are valid
// until the next call on this run.
func (r *Run) AutoFeedback() ([]bandit.Observation, error) {
	if r.pending < 0 {
		return nil, fmt.Errorf("sim: feedback with no open round")
	}
	r.obs = r.env.SampleClosure(r.ctr, r.t, r.space.Closure(r.pending), r.means, r.xs, r.obs[:0], r.scratch)
	r.closeRound(r.obs)
	return r.obs, nil
}

// closeRound is the shared accounting tail of a round: regret, observer,
// policy update, checkpoint. obs must list the revealed closure in
// ascending arm order, and under a Direct payoff r.xs must hold each
// closure arm's value.
func (r *Run) closeRound(obs []bandit.Observation) {
	t, a := r.t, r.pending
	var chosenMean, realized float64
	if r.closure {
		chosenMean = bandit.SumValues(r.means, r.space.Closure(a))
		realized = bandit.SumObservations(obs)
	} else {
		arms := r.space.Arms(a)
		chosenMean = bandit.SumValues(r.means, arms)
		realized = bandit.SumValues(r.xs, arms)
	}
	if r.rc != nil {
		// The benchmark action moves with the context: score the whole
		// action space under this round's means.
		r.tracker.RecordVs(bestPayoff(r.space, r.closure, r.means), chosenMean, realized)
	} else {
		r.tracker.Record(chosenMean, realized)
	}
	if r.cfg.Observer != nil {
		r.cfg.Observer.ObserveRound(trace.Event{
			T: t, Chosen: a, ChosenMean: chosenMean,
			Realized: realized, Observations: obs,
		})
	}
	r.pol.Update(t, a, obs)
	r.pending = -1

	if r.next < len(r.out.T) && t == r.out.T[r.next] {
		r.out.record(r.next, r.tracker)
		r.next++
	}
}

// Step plays one round: exactly Decide followed by AutoFeedback.
func (r *Run) Step() error {
	if _, _, err := r.Decide(); err != nil {
		return err
	}
	_, err := r.AutoFeedback()
	return err
}

// Run plays the remaining rounds and returns the completed series.
func (r *Run) Run() (*Series, error) {
	for !r.Done() {
		if err := r.Step(); err != nil {
			return nil, err
		}
	}
	return r.out, nil
}

// ComboCache holds what every replication of a combinatorial cell shares:
// for fixed means, the benchmark's expected payoff under both payoffs,
// and — behind a lazily built, concurrency-safe cache — the strategy
// relation graph SG(F, L). Build it once per cell and pass it to
// NewComboRun; all state is read-only after construction, so it is safe
// to share across replication workers.
type ComboCache struct {
	env        bandit.RewardModel
	set        *strategy.Set
	optDirect  float64 // fixed means only
	optClosure float64
	sg         *bandit.StrategyGraphCache
}

// NewComboCache precomputes the per-cell quantities for env and set. The
// strategy graph itself is deferred until a policy first asks for it.
func NewComboCache(env bandit.RewardModel, set *strategy.Set) *ComboCache {
	cc := &ComboCache{
		env: env,
		set: set,
		sg:  bandit.NewStrategyGraphCache(func() *graphs.Graph { return core.BuildStrategyGraph(set) }),
	}
	if env.D() == 0 {
		_, means := env.RoundMeans(0, nil, nil)
		_, cc.optDirect = set.BestDirect(means)
		_, cc.optClosure = set.BestClosure(means)
	}
	return cc
}

// StrategyGraph returns the shared SG(F, L), building it on first use.
func (cc *ComboCache) StrategyGraph() *graphs.Graph { return cc.sg.Get() }

func newSeries(name string, checkpoints []int) *Series {
	n := len(checkpoints)
	return &Series{
		Policy:      name,
		T:           checkpoints,
		CumPseudo:   make([]float64, n),
		CumRealized: make([]float64, n),
		AvgPseudo:   make([]float64, n),
		AvgRealized: make([]float64, n),
	}
}

func (s *Series) record(i int, tr *bandit.RegretTracker) {
	s.CumPseudo[i] = tr.CumPseudo()
	s.CumRealized[i] = tr.CumRealized()
	s.AvgPseudo[i] = tr.AvgPseudo()
	s.AvgRealized[i] = tr.AvgRealized()
}
