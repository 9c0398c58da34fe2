// Package serve is the real-time decision service: it hosts many
// concurrent bandit instances — one per tenant, graph, and policy,
// each created from a declarative Spec — behind an HTTP JSON API
// (POST /v1/decide, POST /v1/feedback, GET /v1/stats, GET /v1/instances)
// built on the steppable sim.Run: every instance, single-play or
// combinatorial, fixed-mean or contextual, is one Run driven through
// Decide and then ApplyFeedback (client mode) or AutoFeedback (env mode).
//
// The package's central property is that serving does not weaken the
// repository's determinism contract. Every instance derives all
// randomness from its spec's seed through the counter-based RNG, so a
// served decision is a pure function of (seed, t, feedback history).
// Each closed round is appended to a checksummed, torn-tail-tolerant
// decision log; the log IS the instance's durable state — a restarted
// server rebuilds every policy by replaying its log through the exact
// round loop and resumes bit-identically, and any historical decision
// can be re-derived offline by the replay verifier (VerifyDir,
// `nbandit serve -replay`). Snapshots of the instance's regret curves
// ride sim.AggregateState's exact JSON round-trip and act as a
// cross-check: a replay that does not reproduce the snapshot
// bit-for-bit refuses to serve.
//
// Concurrency model: each instance is owned by a single writer
// goroutine fed through a bounded mailbox; decide requests
// rendezvous with it, feedback is batched and async-ingested through
// a bounded server-wide queue, and reads (/v1/stats) see lock-free
// atomic snapshots published after every round.
package serve
