package sim

import (
	"fmt"
	"strings"

	"netbandit/internal/bandit"
	"netbandit/internal/core"
	"netbandit/internal/policy"
	"netbandit/internal/rng"
)

// This file is the by-name policy registry. It exists so that every layer
// that builds a policy from a declarative description — the ad-hoc CLI,
// the sweep grid parser, and the decision service's instance specs — maps
// the same name to the same construction, and therefore to the same
// decision sequence under the same seed.

// PolicyNames returns every name the registry resolves, single-play and
// combinatorial together, in display order.
func PolicyNames() []string {
	return []string{"dfl", "dfl-hop", "dfl-stream", "moss", "ucb1", "ucbn", "ucbmaxn",
		"thompson", "egreedy", "exp3", "random", "cucb", "exp3f",
		"linucb", "ctx-thompson", "cts", "osmd"}
}

// ContextualPolicy reports whether the named policy requires per-round
// feature contexts (and therefore a contextual environment axis or a
// linear-reward serve spec).
func ContextualPolicy(name string) bool {
	switch name {
	case "linucb", "ctx-thompson":
		return true
	default:
		return false
	}
}

// NewPolicySpec is the registry-backed constructor every layer shares: it
// resolves a policy name against the scenario into a complete policy axis
// point — the single-play or combinatorial factory as the scenario
// demands, plus the contextual-requirement flag the sweep grid validates.
func NewPolicySpec(name string, scen bandit.Scenario) (PolicySpec, error) {
	spec := PolicySpec{Name: name, Contextual: ContextualPolicy(name)}
	if scen.Combinatorial() {
		combo, err := comboPolicyFactory(name, scen)
		if err != nil {
			return PolicySpec{}, err
		}
		spec.Combo = combo
		return spec, nil
	}
	single, err := singlePolicyFactory(name, scen)
	if err != nil {
		return PolicySpec{}, err
	}
	spec.Single = single
	return spec, nil
}

// singlePolicyFactory maps a policy name to a single-play factory. "dfl"
// resolves to the scenario's own algorithm: DFL-SSO under side
// observation, DFL-SSR under side reward.
func singlePolicyFactory(name string, scen bandit.Scenario) (SingleFactory, error) {
	switch name {
	case "dfl":
		if scen == bandit.SSR {
			return func(*rng.RNG) bandit.SinglePolicy { return core.NewDFLSSR() }, nil
		}
		return func(*rng.RNG) bandit.SinglePolicy { return core.NewDFLSSO() }, nil
	case "dfl-hop":
		return func(*rng.RNG) bandit.SinglePolicy { return core.NewDFLSSOGreedyHop() }, nil
	case "dfl-stream":
		return func(*rng.RNG) bandit.SinglePolicy { return core.NewDFLSSRStreaming() }, nil
	case "moss":
		return func(*rng.RNG) bandit.SinglePolicy { return policy.NewMOSS() }, nil
	case "ucb1":
		return func(*rng.RNG) bandit.SinglePolicy { return policy.NewUCB1() }, nil
	case "ucbn":
		return func(*rng.RNG) bandit.SinglePolicy { return policy.NewUCBN() }, nil
	case "ucbmaxn":
		return func(*rng.RNG) bandit.SinglePolicy { return policy.NewUCBMaxN() }, nil
	case "thompson":
		return func(r *rng.RNG) bandit.SinglePolicy { return policy.NewThompson(r) }, nil
	case "egreedy":
		return func(r *rng.RNG) bandit.SinglePolicy { return policy.NewDecayingEpsilonGreedy(1, r) }, nil
	case "exp3":
		return func(r *rng.RNG) bandit.SinglePolicy { return policy.NewEXP3(0.05, r) }, nil
	case "random":
		return func(r *rng.RNG) bandit.SinglePolicy { return policy.NewRandom(r) }, nil
	case "linucb":
		return func(*rng.RNG) bandit.SinglePolicy { return policy.NewLinUCB(1) }, nil
	case "ctx-thompson":
		return func(r *rng.RNG) bandit.SinglePolicy { return policy.NewCtxThompson(0.5, r) }, nil
	default:
		return nil, fmt.Errorf("sim: unknown single-play policy %q (valid: %s)",
			name, strings.Join(PolicyNames(), ", "))
	}
}

// comboPolicyFactory maps a policy name to a combinatorial factory. "dfl"
// resolves to DFL-CSR under side reward and DFL-CSO otherwise.
func comboPolicyFactory(name string, scen bandit.Scenario) (ComboFactory, error) {
	switch name {
	case "dfl":
		if scen == bandit.CSR {
			return func(*rng.RNG) bandit.ComboPolicy { return core.NewDFLCSR() }, nil
		}
		return func(*rng.RNG) bandit.ComboPolicy { return core.NewDFLCSO() }, nil
	case "cucb":
		obj := policy.Direct
		if scen == bandit.CSR {
			obj = policy.Closure
		}
		return func(*rng.RNG) bandit.ComboPolicy { return policy.NewCUCB(obj) }, nil
	case "exp3f":
		return func(r *rng.RNG) bandit.ComboPolicy { return policy.NewComboEXP3(0.05, r) }, nil
	case "random":
		return func(r *rng.RNG) bandit.ComboPolicy { return policy.NewComboRandom(r) }, nil
	case "linucb":
		obj := policy.Direct
		if scen == bandit.CSR {
			obj = policy.Closure
		}
		return func(*rng.RNG) bandit.ComboPolicy { return policy.NewCombLinUCB(1, obj) }, nil
	case "ctx-thompson":
		obj := policy.Direct
		if scen == bandit.CSR {
			obj = policy.Closure
		}
		return func(r *rng.RNG) bandit.ComboPolicy { return policy.NewCombCtxThompson(0.5, obj, r) }, nil
	case "cts":
		obj := policy.Direct
		if scen == bandit.CSR {
			obj = policy.Closure
		}
		return func(r *rng.RNG) bandit.ComboPolicy { return policy.NewCTS(obj, r) }, nil
	case "osmd":
		return func(r *rng.RNG) bandit.ComboPolicy { return policy.NewOSMD(0, r) }, nil
	default:
		return nil, fmt.Errorf("sim: unknown combinatorial policy %q (valid: dfl, cucb, exp3f, random, linucb, ctx-thompson, cts, osmd)", name)
	}
}
