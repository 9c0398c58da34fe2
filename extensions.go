package netbandit

// Facade surface for the extension subsystems: the non-stationary
// (piecewise) environment with its sliding-window policy, and the
// theoretical bound calculators.

import (
	"netbandit/internal/nonstat"
	"netbandit/internal/theory"
)

// Extension types.
type (
	// PiecewiseEnv is a piecewise-stationary networked bandit.
	PiecewiseEnv = nonstat.PiecewiseEnv
	// Segment is one stationary phase of a PiecewiseEnv.
	Segment = nonstat.Segment
	// DynamicResult is the outcome of a piecewise run (dynamic regret).
	DynamicResult = nonstat.Result
)

// NewPiecewiseEnv builds a piecewise-stationary environment over a fixed
// relation graph.
func NewPiecewiseEnv(g *Graph, segments []Segment) (*PiecewiseEnv, error) {
	return nonstat.NewPiecewiseEnv(g, segments)
}

// NewSWDFLSSO returns the sliding-window DFL-SSO extension for
// non-stationary means.
func NewSWDFLSSO(window int) SinglePolicy { return nonstat.NewSWDFLSSO(window) }

// RunPiecewise plays a single-play policy against a piecewise environment
// with SSO feedback and dynamic-regret accounting.
func RunPiecewise(env *PiecewiseEnv, pol SinglePolicy, horizon int, checkpoints []int, r *RNG) (*DynamicResult, error) {
	return nonstat.Run(env, pol, horizon, checkpoints, r)
}

// Theoretical regret bounds (package theory).

// Theorem1RegretBound returns the DFL-SSO bound of Theorem 1 for the
// given clique-cover size.
func Theorem1RegretBound(n, k, cliqueCover int) float64 {
	return theory.Theorem1Bound(n, k, cliqueCover)
}

// Theorem4RegretBound returns the DFL-CSR bound of Theorem 4 for the
// given maximum closure size N.
func Theorem4RegretBound(n, k, maxClosure int) float64 {
	return theory.Theorem4Bound(n, k, maxClosure)
}
