// Package theory evaluates the paper's regret upper bounds numerically —
// Theorems 1-4 of Tang & Zhou plus the classical MOSS bound they improve
// on — so experiments can overlay measured regret against its theoretical
// ceiling and tests can assert that no measured curve ever exceeds its
// bound.
package theory

import (
	"fmt"
	"math"
)

// MOSSBound is the distribution-free bound of plain MOSS over K arms,
// R_n <= 49 sqrt(nK) (Audibert & Bubeck 2009) — the comparator the paper
// cites for the no-side-bonus case.
func MOSSBound(n, k int) float64 {
	mustPositive(n, k)
	return 49 * math.Sqrt(float64(n)*float64(k))
}

// Theorem1Bound is the DFL-SSO bound: R_n <= 15.94 sqrt(nK) + 0.74 C
// sqrt(n/K), where C is the size of a clique cover of the subgraph H
// induced by the large-gap arms. The C-dependent term is what side
// observation buys: denser relation graphs have smaller covers.
func Theorem1Bound(n, k, cliqueCover int) float64 {
	mustPositive(n, k)
	if cliqueCover < 0 {
		panic("theory: negative clique cover")
	}
	nf, kf := float64(n), float64(k)
	return 15.94*math.Sqrt(nf*kf) + 0.74*float64(cliqueCover)*math.Sqrt(nf/kf)
}

// theorem2Bound is the DFL-CSO bound, Theorem 1 applied to the com-arm
// conversion: R_n <= 15.94 sqrt(n|F|) + 0.74 C sqrt(n/|F|), with C a
// clique cover of the strategy relation graph's large-gap subgraph.
func theorem2Bound(n, f, cliqueCover int) float64 {
	return Theorem1Bound(n, f, cliqueCover)
}

// theorem3Bound is the DFL-SSR bound: R_n <= 49 K sqrt(nK) — the MOSS
// bound scaled by K because side rewards live on [0, K] rather than [0, 1].
func theorem3Bound(n, k int) float64 {
	mustPositive(n, k)
	return 49 * float64(k) * math.Sqrt(float64(n)*float64(k))
}

// Theorem4Bound is the DFL-CSR bound:
//
//	R(n) <= NK + (sqrt(eK) + 8(1+N)N^3) n^{2/3} + (1 + 4 sqrt(K) N^2 / e) N^2 K n^{5/6}
//
// where N = max_x |Y_x| is the largest strategy closure.
func Theorem4Bound(n, k, maxClosure int) float64 {
	mustPositive(n, k)
	if maxClosure <= 0 {
		panic("theory: non-positive max closure size")
	}
	nf, kf := float64(n), float64(k)
	nn := float64(maxClosure)
	n23 := math.Cbrt(nf * nf)    // n^{2/3}
	n56 := math.Pow(nf, 5.0/6.0) // n^{5/6}
	term1 := nn * kf             // NK
	term2 := (math.Sqrt(math.E*kf) + 8*(1+nn)*nn*nn*nn) * n23
	term3 := (1 + 4*math.Sqrt(kf)*nn*nn/math.E) * nn * nn * kf * n56
	return term1 + term2 + term3
}

// ucbnBoundGap is the leading term of the distribution-dependent UCB-N
// guarantee from prior work (Caron et al. 2012): sum over a clique cover
// of (8 max_i∈c Δ_i / Δ_min,c²) ln n + O(1). It is provided to exhibit the
// Δ dependence the paper's distribution-free bounds remove: as
// minGap → 0 this bound diverges while Theorem 1 stays finite.
func ucbnBoundGap(n, cliqueCover int, maxGap, minGap float64) float64 {
	mustPositive(n, 1)
	if cliqueCover < 0 || maxGap < 0 {
		panic("theory: invalid UCB-N bound parameters")
	}
	if minGap <= 0 {
		return math.Inf(1)
	}
	return float64(cliqueCover) * 8 * maxGap / (minGap * minGap) * math.Log(float64(n))
}

// zeroRegretHorizon returns the smallest horizon n at which the given
// bound divided by n falls below eps — i.e. when the policy's guaranteed
// average regret enters the eps-optimal regime. It returns 0 when no such
// horizon exists below maxN.
func zeroRegretHorizon(bound func(n int) float64, eps float64, maxN int) int {
	if eps <= 0 {
		panic("theory: eps must be positive")
	}
	// The bounds here are all o(n) and monotone in n/n, so binary search
	// on the predicate bound(n)/n <= eps is valid.
	lo, hi := 1, maxN
	if bound(hi)/float64(hi) > eps {
		return 0
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if bound(mid)/float64(mid) <= eps {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func mustPositive(n, k int) {
	if n <= 0 || k <= 0 {
		panic(fmt.Sprintf("theory: n=%d and k=%d must be positive", n, k))
	}
}
