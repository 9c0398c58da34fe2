// Command nbandit runs ad-hoc networked-bandit simulations: pick a
// scenario, a policy, a relation graph and a horizon, get the aggregated
// regret curves as a table, CSV, or ASCII chart.
//
// Examples:
//
//	nbandit -scenario sso -policy dfl -k 100 -graph gnp -p 0.3 -n 10000 -reps 20
//	nbandit -scenario csr -policy dfl -k 20 -m 2 -n 5000
//	nbandit -scenario sso -policy moss -k 50 -format csv > moss.csv
//
// The sweep subcommand runs a whole parameter grid — policies × graph
// parameters × horizons — on one shared bounded worker pool, with
// deterministic per-cell aggregates and fail-fast cancellation:
//
//	nbandit sweep -scenario sso -policies dfl,moss,ucb1 -k 100 -p 0.1,0.3,0.6 -n 10000 -reps 20
//	nbandit sweep -scenario cso -policies dfl,cucb -k 20 -m 2 -p 0.3,0.6 -format csv > grid.csv
//	nbandit sweep -scenario sso -policies dfl -p 0.3 -n 1000,10000 -format json -progress
//
// Sweeps derive every environment and replication stream from per-axis
// splits of -seed so that cells are independent; a one-cell sweep therefore
// does not reproduce the numbers of a plain nbandit run with the same seed
// (sweep results are comparable to other sweep results, single runs to
// single runs).
//
// The shard subcommands distribute a sweep over worker processes or
// machines with checkpoint/resume, work-stealing lease assignment, and
// straggler re-assignment, and merge the spilled per-cell aggregates into
// output bit-identical to a single-process sweep:
//
//	nbandit shard plan -dir grid -shards 4 -scenario sso -policies dfl,moss -p 0.1,0.3 -n 10000 -reps 20
//	nbandit shard run -dir grid -procs 4                       # work-stealing coordinator, local workers
//	nbandit shard run -dir grid -transport ssh -hosts a,b,c    # workers over ssh (synced job dir)
//	nbandit shard run -dir grid -shard 0                       # hand-driven static worker (rerun to resume)
//	nbandit shard status -dir grid                             # completion, live leases, steals
//	nbandit shard merge -dir grid -format json
//
// The chaos subcommand drills that distribution layer under seeded,
// replayable fault injection — refused spawns, crashed workers, partitioned
// and stalled heartbeat streams, corrupted record frames — and verifies
// that every run either merges bit-identical to the single-process sweep
// or aborts explicitly:
//
//	nbandit chaos -seeds 20 -mode both
//
// The serve subcommand turns the library into a replayable real-time
// decision service: many concurrent bandit instances behind an HTTP JSON
// API, each appending every closed round to a checksummed decision log
// so a restarted server resumes bit-identically, with an offline replay
// auditor and a load generator to prove it:
//
//	nbandit serve -addr :8080 -dir data -journal
//	nbandit serve -replay -dir data            # audit: re-derive every decision
//	nbandit loadgen -addr 127.0.0.1:8080 -duration 5s -out BENCH_PR9.json
//
// The observability plane rides along: `shard run -journal` (and `chaos
// -journal`) turn on a structured flight recorder, `-listen` exposes
// live Prometheus metrics plus pprof, and the trace/top subcommands read
// it all back:
//
//	nbandit shard run -dir grid -procs 4 -journal -listen :9090
//	nbandit top -dir grid                      # live one-screen view of the run
//	nbandit trace summary grid                 # post-mortem: counts, faults, slot quantiles
//	nbandit trace timeline grid                # every recorded event in order
//
// See docs/RUNBOOK.md for the full operating guide.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"netbandit"
	"netbandit/internal/armdist"
	"netbandit/internal/bandit"
	"netbandit/internal/graphs"
	"netbandit/internal/rng"
	"netbandit/internal/sim"
	"netbandit/internal/strategy"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "sweep" {
		if err := runSweep(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "nbandit sweep:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "bench" {
		if err := runBench(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "nbandit bench:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "shard" {
		if err := runShard(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "nbandit shard:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "chaos" {
		if err := runChaos(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "nbandit chaos:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := runServe(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "nbandit serve:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "loadgen" {
		if err := runLoadgen(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "nbandit loadgen:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		if err := runTrace(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "nbandit trace:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "top" {
		if err := runTop(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "nbandit top:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nbandit:", err)
		os.Exit(1)
	}
}

type options struct {
	scenario string
	policy   string
	graph    string
	k        int
	m        int
	p        float64
	horizon  int
	reps     int
	seed     uint64
	workers  int
	format   string
	metric   string
}

func run() error {
	var o options
	flag.StringVar(&o.scenario, "scenario", "sso", "scenario: sso|cso|ssr|csr")
	flag.StringVar(&o.policy, "policy", "dfl", "policy: "+strings.Join(policyNames(), "|"))
	flag.StringVar(&o.graph, "graph", "gnp", "relation graph: "+strings.Join(graphs.GeneratorNames(), "|"))
	flag.IntVar(&o.k, "k", 100, "number of arms")
	flag.IntVar(&o.m, "m", 2, "strategy size for combinatorial scenarios")
	flag.Float64Var(&o.p, "p", 0.3, "graph generator parameter (edge probability for gnp)")
	flag.IntVar(&o.horizon, "n", 10000, "horizon (rounds)")
	flag.IntVar(&o.reps, "reps", 10, "replications")
	flag.Uint64Var(&o.seed, "seed", 1, "random seed")
	flag.IntVar(&o.workers, "workers", 0, "parallel workers (0 = GOMAXPROCS)")
	flag.StringVar(&o.format, "format", "ascii", "output: ascii|csv|summary")
	flag.StringVar(&o.metric, "metric", "avg-pseudo", "metric: cum-pseudo|cum-realized|avg-pseudo|avg-realized")
	flag.Parse()

	scen, err := bandit.ParseScenario(o.scenario)
	if err != nil {
		return err
	}
	if sim.ContextualPolicy(o.policy) {
		return fmt.Errorf("policy %q needs per-round contexts; use `nbandit sweep -d <dim>` for contextual runs", o.policy)
	}
	metric, err := parseMetric(o.metric)
	if err != nil {
		return err
	}

	pol, err := sim.NewPolicySpec(o.policy, scen)
	if err != nil {
		return err
	}

	r := rng.New(o.seed)
	g, err := graphs.FromName(graphs.GeneratorName(o.graph), o.k, o.p, r.Split(1))
	if err != nil {
		return err
	}
	env, err := netbandit.NewEnv(g, armdist.RandomBernoulliArms(o.k, r.Split(2)))
	if err != nil {
		return err
	}
	var set *strategy.Set
	if scen.Combinatorial() {
		if set, err = strategy.TopM(o.k, o.m, g); err != nil {
			return err
		}
	}

	// One cell on common streams: replication rep draws from
	// rng.New(seed).Split(rep+1), the ReplicateSingle/ReplicateCombo
	// derivation.
	sw := sim.Sweep{
		Envs:          []sim.EnvSpec{sim.FixedEnv("", scen, env, set)},
		Policies:      []sim.PolicySpec{pol},
		Config:        sim.Config{Horizon: o.horizon, AnnounceHorizon: true},
		Reps:          o.reps,
		Seed:          o.seed,
		Workers:       o.workers,
		CommonStreams: true,
	}
	res, err := sw.Run(context.Background())
	if err != nil {
		return err
	}
	return emit(res.Cells[0].Agg, metric, o)
}

func policyNames() []string { return sim.PolicyNames() }

func parseMetric(name string) (sim.Metric, error) {
	switch name {
	case "cum-pseudo":
		return sim.CumPseudo, nil
	case "cum-realized":
		return sim.CumRealized, nil
	case "avg-pseudo":
		return sim.AvgPseudo, nil
	case "avg-realized":
		return sim.AvgRealized, nil
	default:
		return 0, fmt.Errorf("unknown metric %q", name)
	}
}

func emit(agg *sim.Aggregate, metric sim.Metric, o options) error {
	xs := make([]float64, len(agg.T))
	for i, t := range agg.T {
		xs[i] = float64(t)
	}
	table := &netbandit.Table{
		ID:     "adhoc",
		Title:  fmt.Sprintf("%s / %s on %s(K=%d, p=%.2f), n=%d, %d reps", o.scenario, agg.Policy, o.graph, o.k, o.p, o.horizon, agg.Reps),
		XLabel: "time slot",
		YLabel: metric.String(),
		X:      xs,
		Curves: []netbandit.Curve{{
			Name:   agg.Policy,
			Mean:   agg.Mean(metric),
			StdErr: agg.StdErr(metric),
		}},
	}
	switch o.format {
	case "ascii":
		fmt.Print(netbandit.Summary(table))
		fmt.Println(netbandit.RenderASCII(table))
		return nil
	case "csv":
		return netbandit.WriteCSV(os.Stdout, table)
	case "summary":
		fmt.Print(netbandit.Summary(table))
		return nil
	default:
		return fmt.Errorf("unknown format %q", o.format)
	}
}
