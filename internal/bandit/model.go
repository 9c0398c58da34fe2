package bandit

import (
	"netbandit/internal/graphs"
	"netbandit/internal/rng"
)

// RewardModel is the reward-model seam the simulation runner plays
// through: the relation graph, each round's expected rewards, and the
// closure sampler. *Env (fixed Bernoulli means) and *ContextualEnv
// (means linear in per-round features) are its two implementations, so
// one round loop serves both without asking which it holds.
type RewardModel interface {
	// K returns the number of arms.
	K() int
	// D returns the per-arm feature dimension: 0 when the means are fixed,
	// positive when every round draws a context.
	D() int
	// Graph returns the relation graph; callers must treat it as
	// read-only.
	Graph() *graphs.Graph
	// Closed returns the closed neighbourhood N̄_i, sorted and shared.
	Closed(i int) []int
	// SelfPos returns the position of arm i within Closed(i).
	SelfPos(i int) int
	// RoundMeans returns round t's context and expected reward of every
	// arm, reusing rc and buf where it can. The context is nil exactly
	// when D() is 0; the means are then the model's own read-only vector,
	// the same every round.
	RoundMeans(t int, rc *RoundContext, buf []float64) (*RoundContext, []float64)
	// SampleClosure draws X_{i,t} for the listed arms from the reward
	// counter stream c and appends one Observation per arm to dst, in the
	// order listed; when xs is non-nil each value is also written at its
	// arm index. means is round t's vector from RoundMeans. Every draw is
	// a pure function of (c, arm, t).
	SampleClosure(c rng.Counter, t int, arms []int, means, xs []float64, dst []Observation, scratch *rng.RNG) []Observation
}

var (
	_ RewardModel = (*Env)(nil)
	_ RewardModel = (*ContextualEnv)(nil)
)

// D returns 0: an Env's means do not move with the round.
func (e *Env) D() int { return 0 }

// RoundMeans returns a nil context and the arm means, whatever the round.
// The slice is the environment's own; callers must not modify it.
func (e *Env) RoundMeans(int, *RoundContext, []float64) (*RoundContext, []float64) {
	return nil, e.means
}

// SampleClosure is SampleObservations; the means are fixed, so the
// argument is ignored.
func (e *Env) SampleClosure(c rng.Counter, t int, arms []int, _, xs []float64, dst []Observation, scratch *rng.RNG) []Observation {
	return e.SampleObservations(c, t, arms, xs, dst, scratch)
}

// RoundMeans derives round t's context into rc and its expected rewards
// p_i(t) into buf (either may be nil) and returns both.
func (e *ContextualEnv) RoundMeans(t int, rc *RoundContext, buf []float64) (*RoundContext, []float64) {
	rc = e.Context(t, rc)
	return rc, e.MeansAt(rc, buf)
}

// SampleClosure is SampleObservationsAt; every arm is Bernoulli, so the
// scratch generator is unused.
func (e *ContextualEnv) SampleClosure(c rng.Counter, t int, arms []int, means, xs []float64, dst []Observation, _ *rng.RNG) []Observation {
	return e.SampleObservationsAt(c, t, arms, means, xs, dst)
}
