package policy

import (
	"fmt"

	"netbandit/internal/bandit"
	"netbandit/internal/rng"
)

// EpsilonGreedy explores uniformly at random with probability ε_t and
// otherwise exploits the empirically best arm. With Decay == 0, ε is
// constant; with Decay = c > 0, ε_t = min(1, c·K/t), the annealed schedule
// of Auer et al. Randomness comes from the per-replication generator the
// harness passes in.
type EpsilonGreedy struct {
	// Epsilon is the constant exploration probability (used when Decay == 0).
	Epsilon float64
	// Decay, when positive, switches to the annealed ε_t = min(1, Decay·K/t).
	Decay float64
	// UseSideObs folds neighbours' observations into the arm statistics.
	UseSideObs bool

	rng   *rng.RNG
	stats bandit.ArmStats
	k     int
}

// newEpsilonGreedy returns a constant-ε policy.
func newEpsilonGreedy(epsilon float64, r *rng.RNG) *EpsilonGreedy {
	return &EpsilonGreedy{Epsilon: epsilon, rng: r}
}

// NewDecayingEpsilonGreedy returns an annealed policy with ε_t = min(1, c·K/t).
func NewDecayingEpsilonGreedy(c float64, r *rng.RNG) *EpsilonGreedy {
	return &EpsilonGreedy{Decay: c, rng: r}
}

// Name implements bandit.SinglePolicy.
func (p *EpsilonGreedy) Name() string {
	if p.Decay > 0 {
		return fmt.Sprintf("eps-greedy(decay=%.2f)", p.Decay)
	}
	return fmt.Sprintf("eps-greedy(%.2f)", p.Epsilon)
}

// Reset implements bandit.SinglePolicy.
func (p *EpsilonGreedy) Reset(meta bandit.Meta) {
	p.k = meta.K
	p.stats.Reset(meta.K)
}

// Select implements bandit.SinglePolicy.
func (p *EpsilonGreedy) Select(t int, _ *bandit.RoundContext) int {
	eps := p.Epsilon
	if p.Decay > 0 {
		eps = p.Decay * float64(p.k) / float64(t)
		if eps > 1 {
			eps = 1
		}
	}
	if p.rng.Bernoulli(eps) {
		return p.rng.Intn(p.k)
	}
	// Exploit, forcing unobserved arms first.
	for i := 0; i < p.k; i++ {
		if p.stats.Count[i] == 0 {
			return i
		}
	}
	return bandit.ArgmaxFloat(p.stats.Mean)
}

// Update implements bandit.SinglePolicy.
func (p *EpsilonGreedy) Update(_ int, chosen int, obs []bandit.Observation) {
	if p.UseSideObs {
		for _, o := range obs {
			p.stats.Observe(o.Arm, o.Value)
		}
		return
	}
	if v, ok := bandit.ChosenValue(chosen, obs); ok {
		p.stats.Observe(chosen, v)
	}
}

var _ bandit.SinglePolicy = (*EpsilonGreedy)(nil)
