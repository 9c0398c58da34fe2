// Package netbandit is a from-scratch Go reproduction of "Networked
// Stochastic Multi-Armed Bandits with Combinatorial Strategies"
// (Shaojie Tang and Yaqin Zhou, ICDCS 2017; arXiv:1503.06169).
//
// The model: K stochastic arms with unknown means in [0, 1] are linked by
// an undirected relation graph. Pulling an arm (or a combinatorial
// strategy of up to M arms) additionally reveals — and in the side-reward
// settings also pays out — the rewards of every neighbouring arm. The
// paper contributes four distribution-free, zero-regret index policies,
// one per scenario:
//
//   - DFL-SSO — single-play, side observation (Algorithm 1)
//   - DFL-CSO — combinatorial-play, side observation (Algorithm 2)
//   - DFL-SSR — single-play, side reward (Algorithm 3)
//   - DFL-CSR — combinatorial-play, side reward (Algorithm 4)
//
// This package is the public facade: it re-exports the environment,
// policy, strategy-set and simulation machinery implemented under
// internal/ and adds convenience constructors, so a downstream user needs
// exactly one import:
//
//	env, _ := netbandit.NewBernoulliEnv(graph, means)
//	dfl, _ := netbandit.NewPolicySpec("dfl", netbandit.SSO)
//	sweep := netbandit.Sweep{
//	    Envs:     []netbandit.EnvSpec{netbandit.FixedEnv("env", netbandit.SSO, env, nil)},
//	    Policies: []netbandit.PolicySpec{dfl},
//	    Config:   netbandit.Config{Horizon: 10000},
//	    Reps:     20, Seed: 1, CommonStreams: true,
//	}
//	res, _ := sweep.Run(context.Background())
//	fmt.Println(res.Cells[0].Agg.Final(netbandit.CumPseudo))
//
// The named experiments behind every figure of the paper's evaluation
// section are available through Experiments / FindExperiment and the
// cmd/experiments binary.
//
// # Layer map
//
// The internal packages stack from primitives to orchestration (each
// layer's invariants are documented in its own package doc; the full tour
// lives in docs/ARCHITECTURE.md):
//
//	rng                       deterministic splittable RNG + counter streams
//	graphs, armdist           relation graphs, reward distributions
//	bandit, strategy          environments, scenarios, feasible families
//	core, policy              the paper's DFL algorithms, baselines
//	sim                       one runner → grid sweeps
//	shard, shard/transport    distributable sweeps: plans, records,
//	                          work-stealing coordinator, local/ssh workers
//	cmd/nbandit               the CLI over all of it
//
// One contract spans every layer: all randomness derives from a single
// seed, and each reward X_{i,t} is a pure function of its stream, so
// results are bit-identical no matter how work is parallelised, subset,
// interrupted, or spread across machines. Operating distributed sweeps is
// covered by docs/RUNBOOK.md.
package netbandit
