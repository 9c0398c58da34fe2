package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"netbandit/internal/armdist"
	"netbandit/internal/bandit"
	"netbandit/internal/graphs"
	"netbandit/internal/rng"
	"netbandit/internal/sim"
	"netbandit/internal/strategy"
)

// Feedback modes: who closes a round.
const (
	// FeedbackClient means the caller supplies the revealed rewards via
	// POST /v1/feedback; a decide stays open (and is re-served
	// idempotently) until its feedback arrives.
	FeedbackClient = "client"
	// FeedbackEnv means the instance samples the revealed rewards from
	// its own environment's counter stream — shadow mode: every decide
	// closes its round immediately and the whole decision sequence is a
	// pure function of the spec alone.
	FeedbackEnv = "env"
)

// Reward models: how an instance's expected rewards are generated.
const (
	// RewardBernoulli is the classical fixed-mean game: one Bernoulli
	// parameter per arm, drawn once from the seed. It is the default; a
	// normalized spec spells it as the empty string so that specs written
	// before the field existed keep their hash.
	RewardBernoulli = "bernoulli"
	// RewardLinear is the contextual game: each round draws per-arm
	// feature vectors and the expected reward is linear in them. Decisions
	// carry a context hash, and /v1/decide can return the features
	// themselves on request.
	RewardLinear = "linear"
)

// DefaultDim is the feature dimension a linear-reward spec gets when D is
// unset.
const DefaultDim = 4

// Spec declaratively describes one bandit instance. It is the unit of
// tenancy: the service hosts many instances, each built exactly the way
// the ad-hoc CLI builds a simulation — graph from Split(1), arm means
// from Split(2), policy randomness from Split(3), reward stream from
// Split(4) of rng.New(Seed) — so a served instance is replayable and
// comparable against an offline run of the same spec.
type Spec struct {
	// ID names the instance in the API and on disk. Letters, digits,
	// '.', '_' and '-' only.
	ID string `json:"id"`
	// Seed derives every random quantity of the instance.
	Seed uint64 `json:"seed"`
	// Scenario is one of sso|cso|ssr|csr.
	Scenario string `json:"scenario"`
	// Policy is a registry name (sim.PolicyNames).
	Policy string `json:"policy"`
	// Graph is a relation-graph generator name; default "gnp".
	Graph string `json:"graph,omitempty"`
	// K is the number of arms.
	K int `json:"k"`
	// M is the strategy size for combinatorial scenarios; default 2.
	M int `json:"m,omitempty"`
	// P is the graph generator parameter; default 0.3.
	P float64 `json:"p,omitempty"`
	// Horizon bounds the instance's lifetime in rounds; default 1e6.
	Horizon int `json:"horizon,omitempty"`
	// Points is the regret-curve checkpoint count; default 100.
	Points int `json:"points,omitempty"`
	// Feedback is FeedbackClient (default) or FeedbackEnv.
	Feedback string `json:"feedback,omitempty"`
	// RewardModel is RewardBernoulli (default, spelled "" once
	// normalized) or RewardLinear for contextual instances.
	RewardModel string `json:"reward_model,omitempty"`
	// D is the feature dimension for RewardLinear; default DefaultDim.
	// It must be zero for Bernoulli specs.
	D int `json:"d,omitempty"`
}

// Defaults for optional Spec fields.
const (
	DefaultHorizon = 1_000_000
	DefaultPoints  = 100
)

// Normalize fills defaults in place and validates the spec. It must be
// called (and succeed) before Hash or build, so equal effective specs
// hash equally no matter which optional fields were spelled out.
func (s *Spec) Normalize() error {
	if s.ID == "" {
		return fmt.Errorf("serve: spec needs an id")
	}
	for _, r := range s.ID {
		ok := r == '.' || r == '_' || r == '-' ||
			(r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !ok {
			return fmt.Errorf("serve: instance id %q: only letters, digits, '.', '_', '-' allowed", s.ID)
		}
	}
	if s.Graph == "" {
		s.Graph = string(graphs.GenGnp)
	}
	if s.P == 0 {
		s.P = 0.3
	}
	if s.M == 0 {
		s.M = 2
	}
	if s.Horizon == 0 {
		s.Horizon = DefaultHorizon
	}
	if s.Horizon < 1 {
		return fmt.Errorf("serve: horizon %d must be positive", s.Horizon)
	}
	if s.Points == 0 {
		s.Points = DefaultPoints
	}
	if s.Points < 1 {
		return fmt.Errorf("serve: points %d must be positive", s.Points)
	}
	if s.K < 1 {
		return fmt.Errorf("serve: k %d must be positive", s.K)
	}
	switch s.Feedback {
	case "":
		s.Feedback = FeedbackClient
	case FeedbackClient, FeedbackEnv:
	default:
		return fmt.Errorf("serve: feedback mode %q (want %s|%s)", s.Feedback, FeedbackClient, FeedbackEnv)
	}
	switch s.RewardModel {
	case RewardBernoulli:
		// Canonical spelling of the default is the empty string, so specs
		// written before reward models existed hash (and restore)
		// unchanged.
		s.RewardModel = ""
	case "", RewardLinear:
	default:
		return fmt.Errorf("serve: reward model %q (want %s|%s)", s.RewardModel, RewardBernoulli, RewardLinear)
	}
	if s.RewardModel == RewardLinear {
		if s.D == 0 {
			s.D = DefaultDim
		}
		if s.D < 1 {
			return fmt.Errorf("serve: feature dimension d=%d must be positive", s.D)
		}
	} else if s.D != 0 {
		return fmt.Errorf("serve: d=%d is only valid with reward_model %q", s.D, RewardLinear)
	}
	scen, err := bandit.ParseScenario(s.Scenario)
	if err != nil {
		return err
	}
	s.Scenario = scen.String()
	if sim.ContextualPolicy(s.Policy) && s.RewardModel != RewardLinear {
		return fmt.Errorf("serve: policy %q needs per-round contexts; set reward_model %q", s.Policy, RewardLinear)
	}
	if _, err := sim.NewPolicySpec(s.Policy, scen); err != nil {
		return err
	}
	if scen.Combinatorial() && (s.M < 1 || s.M > s.K) {
		return fmt.Errorf("serve: strategy size m=%d outside [1,%d]", s.M, s.K)
	}
	found := false
	for _, n := range graphs.GeneratorNames() {
		if n == s.Graph {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("serve: unknown graph generator %q (valid: %s)",
			s.Graph, strings.Join(graphs.GeneratorNames(), ", "))
	}
	return nil
}

// Contextual reports whether the normalized spec plays the contextual
// (linear-reward) game.
func (s *Spec) Contextual() bool { return s.RewardModel == RewardLinear }

// RewardModelName returns the spec's reward model with the default
// spelled out — "bernoulli" rather than the canonical empty string.
func (s *Spec) RewardModelName() string {
	if s.RewardModel == "" {
		return RewardBernoulli
	}
	return s.RewardModel
}

// Hash returns the canonical content hash of a normalized spec: the
// sha256 of its canonical JSON encoding, truncated to 16 hex digits. The
// hash binds the decision log and snapshot to the spec that produced
// them; a restored instance refuses a log or snapshot written under a
// different spec.
func (s *Spec) Hash() string {
	raw, err := json.Marshal(s)
	if err != nil {
		// A Spec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("serve: marshal spec: %v", err))
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8])
}

// build realises a normalized spec as a runner positioned at round zero.
// Every call with the same spec produces a runner whose decision sequence
// under the same feedback is bit-identical — this is the function both
// serving and replay verification rest on.
func (s *Spec) build() (*sim.Run, error) {
	scen, err := bandit.ParseScenario(s.Scenario)
	if err != nil {
		return nil, err
	}
	pol, err := sim.NewPolicySpec(s.Policy, scen)
	if err != nil {
		return nil, err
	}
	r := rng.New(s.Seed)
	g, err := graphs.FromName(graphs.GeneratorName(s.Graph), s.K, s.P, r.Split(1))
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{
		Horizon:         s.Horizon,
		Checkpoints:     sim.DefaultCheckpoints(s.Horizon, s.Points),
		AnnounceHorizon: true,
	}
	var env bandit.RewardModel
	if s.Contextual() {
		// Split(2) plays the same role it does for Bernoulli arm means —
		// the hidden reward parameters — and the per-round feature stream
		// gets the next untaken split, Split(5).
		theta := bandit.RandomTheta(r.Split(2), s.D)
		env, err = bandit.NewContextualEnv(g, s.K, theta, r.Split(5).Counter())
	} else {
		env, err = bandit.NewEnv(g, armdist.RandomBernoulliArms(s.K, r.Split(2)))
	}
	if err != nil {
		return nil, err
	}
	if !scen.Combinatorial() {
		return sim.NewSingleRun(env, scen, pol.Single(r.Split(3)), cfg, r.Split(4))
	}
	set, err := strategy.TopM(s.K, s.M, g)
	if err != nil {
		return nil, err
	}
	return sim.NewComboRun(env, set, scen, pol.Combo(r.Split(3)), cfg, r.Split(4), nil)
}
