package policy

import (
	"netbandit/internal/bandit"
	"netbandit/internal/rng"
)

// Random pulls a uniformly random arm every round — the weakest sensible
// baseline; any learning policy must dominate it.
type Random struct {
	rng *rng.RNG
	k   int
}

// NewRandom returns a uniformly random policy.
func NewRandom(r *rng.RNG) *Random { return &Random{rng: r} }

// Name implements bandit.SinglePolicy.
func (p *Random) Name() string { return "random" }

// Reset implements bandit.SinglePolicy.
func (p *Random) Reset(meta bandit.Meta) { p.k = meta.K }

// Select implements bandit.SinglePolicy.
func (p *Random) Select(int, *bandit.RoundContext) int { return p.rng.Intn(p.k) }

// Update implements bandit.SinglePolicy.
func (p *Random) Update(int, int, []bandit.Observation) {}

var _ bandit.SinglePolicy = (*Random)(nil)

// FTL is follow-the-leader: always play the empirically best arm (after
// one forced pull of each). It under-explores and famously gets stuck on
// suboptimal arms — a cautionary baseline. UseSideObs gives it the side
// observations, which largely repairs its exploration on dense graphs.
type FTL struct {
	// UseSideObs folds every revealed observation into the statistics.
	UseSideObs bool

	stats bandit.ArmStats
	k     int
}

// newFTL returns a follow-the-leader policy.
func newFTL() *FTL { return &FTL{} }

// Name implements bandit.SinglePolicy.
func (p *FTL) Name() string {
	if p.UseSideObs {
		return "FTL-side"
	}
	return "FTL"
}

// Reset implements bandit.SinglePolicy.
func (p *FTL) Reset(meta bandit.Meta) {
	p.k = meta.K
	p.stats.Reset(meta.K)
}

// Select implements bandit.SinglePolicy.
func (p *FTL) Select(int, *bandit.RoundContext) int {
	for i := 0; i < p.k; i++ {
		if p.stats.Count[i] == 0 {
			return i
		}
	}
	return bandit.ArgmaxFloat(p.stats.Mean)
}

// Update implements bandit.SinglePolicy.
func (p *FTL) Update(_ int, chosen int, obs []bandit.Observation) {
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

var _ bandit.SinglePolicy = (*FTL)(nil)
