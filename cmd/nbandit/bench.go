package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"netbandit"
	"netbandit/internal/serve"
)

// The bench subcommand runs the repository's hot-path micro-benchmarks and
// the quick figure reproductions through testing.Benchmark and writes the
// results into a JSON trajectory file (ns/op, allocs/op, derived ns/round,
// final-regret metrics), merging under a label so before/after pairs live
// side by side:
//
//	nbandit bench -out BENCH_PR3.json -label after
//
// The file is read-modify-write: existing labels (for example a recorded
// pre-optimisation baseline) are preserved. Each PR records into its own
// trajectory file via -out (scripts/bench.sh passes it through), so the
// trajectory grows without editing code; -json remains as the historical
// spelling of the same flag.
//
// Every run also refreshes the file's top-level "meta" entry with the
// environment the numbers were measured on — Go version, GOAMD64 level,
// CPU model, host, git revision, timestamp — so a trajectory file read
// months later still says what produced it. The comparison tooling
// (scripts/benchcmp) only reads explicit labels, so "meta" never collides
// with recorded runs.

type benchResult struct {
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Iterations  int                `json:"iterations"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

func runBench(args []string) error {
	flags := flag.NewFlagSet("bench", flag.ContinueOnError)
	outPath := flags.String("out", "", "trajectory file to merge results into ('-' for stdout only)")
	jsonPath := flags.String("json", "", "alias for -out (historical spelling)")
	label := flags.String("label", "after", "key to store this run under")
	benchtime := flags.String("benchtime", "2s", "per-benchmark measurement time (testing -benchtime)")
	if err := flags.Parse(args); err != nil {
		return err
	}
	switch {
	case *outPath == "" && *jsonPath == "":
		*outPath = "BENCH_PR3.json"
	case *outPath == "":
		*outPath = *jsonPath
	case *jsonPath != "" && *jsonPath != *outPath:
		return fmt.Errorf("bench: -out %q and -json %q disagree; pass one", *outPath, *jsonPath)
	}
	testing.Init()
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		return err
	}

	results := map[string]benchResult{}
	for _, b := range benchSuite() {
		fmt.Fprintf(os.Stderr, "bench: %s...\n", b.name)
		r := testing.Benchmark(b.fn)
		br := benchResult{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
		}
		if len(r.Extra) > 0 {
			br.Extra = map[string]float64{}
			for k, v := range r.Extra {
				br.Extra[k] = v
			}
		}
		if rounds, ok := br.Extra["rounds/op"]; ok && rounds > 0 {
			br.Extra["ns/round"] = br.NsPerOp / rounds
		}
		results[b.name] = br
	}

	return mergeTrajectory(*outPath, *label, results)
}

// mergeTrajectory read-modify-writes a bench trajectory file: results
// land under label, every other recorded label is preserved, and the
// meta block is refreshed. Path "-" prints to stdout instead. Shared by
// `nbandit bench` and `nbandit loadgen`.
func mergeTrajectory(outPath, label string, results map[string]benchResult) error {
	doc := map[string]json.RawMessage{}
	if outPath != "-" {
		raw, err := os.ReadFile(outPath)
		switch {
		case err == nil:
			if err := json.Unmarshal(raw, &doc); err != nil {
				return fmt.Errorf("bench: %s exists but is not a JSON object: %w", outPath, err)
			}
		case errors.Is(err, fs.ErrNotExist):
			// Fresh trajectory file.
		default:
			// Anything else (permissions, I/O) must not silently discard
			// the recorded labels by overwriting with only this run.
			return fmt.Errorf("bench: reading %s: %w", outPath, err)
		}
	}
	enc, err := json.MarshalIndent(results, "  ", "  ")
	if err != nil {
		return err
	}
	doc[label] = enc
	meta, err := json.MarshalIndent(benchMeta(), "  ", "  ")
	if err != nil {
		return err
	}
	doc["meta"] = meta
	out, err := marshalOrdered(doc)
	if err != nil {
		return err
	}
	if outPath == "-" {
		fmt.Println(string(out))
		return nil
	}
	if err := os.WriteFile(outPath, out, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %q under label %q\n", outPath, label)
	return nil
}

// benchMeta captures the environment a bench run was measured on. Every
// field degrades gracefully — a missing git binary or unreadable
// /proc/cpuinfo yields an empty string, never an error — because the
// metadata must not be able to fail a benchmark run.
func benchMeta() map[string]string {
	m := map[string]string{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
	if v := os.Getenv("GOAMD64"); v != "" {
		m["goamd64"] = v
	}
	if host, err := os.Hostname(); err == nil {
		m["host"] = host
	}
	if model := cpuModel(); model != "" {
		m["cpu"] = model
	}
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		m["git"] = strings.TrimSpace(string(out))
	}
	return m
}

// cpuModel reads the first "model name" line from /proc/cpuinfo; empty on
// platforms without it.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}

// marshalOrdered renders the label->results document with sorted keys so
// the trajectory file diffs cleanly between runs.
func marshalOrdered(doc map[string]json.RawMessage) ([]byte, error) {
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf := []byte("{\n")
	for i, k := range keys {
		kj, err := json.Marshal(k)
		if err != nil {
			return nil, err
		}
		buf = append(buf, "  "...)
		buf = append(buf, kj...)
		buf = append(buf, ": "...)
		buf = append(buf, doc[k]...)
		if i < len(keys)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
	}
	return append(buf, "}\n"...), nil
}

type namedBench struct {
	name string
	fn   func(b *testing.B)
}

// benchSuite mirrors the micro-benchmarks of bench_test.go plus a quick
// figure run, as callable functions (testing.Benchmark does not see the
// _test.go files from a built binary).
func benchSuite() []namedBench {
	suite := []namedBench{
		{"dflsso_replication_k100", func(b *testing.B) {
			r := netbandit.NewRNG(1)
			g := netbandit.GnpGraph(100, 0.3, r)
			env, err := netbandit.NewRandomBernoulliEnv(g, 100, r)
			if err != nil {
				b.Fatal(err)
			}
			cfg := netbandit.Config{Horizon: 1000, AnnounceHorizon: true}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run, err := netbandit.NewSingleRun(env, netbandit.SSO, netbandit.NewDFLSSO(), cfg, netbandit.NewRNG(uint64(i)))
				if err == nil {
					_, err = run.Run()
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(1000, "rounds/op")
		}},
		{"dflsso_steady_state_round", func(b *testing.B) {
			const warmup = 2000
			r := netbandit.NewRNG(1)
			g := netbandit.GnpGraph(100, 0.3, r)
			env, err := netbandit.NewRandomBernoulliEnv(g, 100, r)
			if err != nil {
				b.Fatal(err)
			}
			cfg := netbandit.Config{Horizon: warmup + b.N, AnnounceHorizon: true}
			run, err := netbandit.NewSingleRun(env, netbandit.SSO, netbandit.NewDFLSSO(), cfg, netbandit.NewRNG(7))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < warmup; i++ {
				if err := run.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := run.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(1, "rounds/op")
		}},
		{"strategy_graph_construction_top2_k20", func(b *testing.B) {
			r := netbandit.NewRNG(3)
			g := netbandit.GnpGraph(20, 0.3, r)
			set, err := netbandit.TopM(20, 2, g)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sg := netbandit.BuildStrategyGraph(set)
				if sg.N() != set.Len() {
					b.Fatal("bad SG")
				}
			}
		}},
		{"sample_observed_closure", func(b *testing.B) {
			r := netbandit.NewRNG(9)
			g := netbandit.GnpGraph(100, 0.3, r)
			env, err := netbandit.NewRandomBernoulliEnv(g, 100, r)
			if err != nil {
				b.Fatal(err)
			}
			ctr := netbandit.NewCounter(9)
			scratch := netbandit.NewRNG(9)
			buf := make([]float64, env.K())
			closed := env.Closed(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.SampleObserved(ctr, i+1, closed, buf, scratch)
			}
			b.ReportMetric(float64(len(closed)), "arms/op")
		}},
		{"sample_all_k100", func(b *testing.B) {
			r := netbandit.NewRNG(9)
			g := netbandit.GnpGraph(100, 0.3, r)
			env, err := netbandit.NewRandomBernoulliEnv(g, 100, r)
			if err != nil {
				b.Fatal(err)
			}
			stream := netbandit.NewRNG(10)
			buf := make([]float64, env.K())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.SampleAll(stream, buf)
			}
			b.ReportMetric(float64(env.K()), "arms/op")
		}},
		{"dflcsr_replication_k20", func(b *testing.B) {
			r := netbandit.NewRNG(2)
			g := netbandit.GnpGraph(20, 0.3, r)
			env, err := netbandit.NewRandomBernoulliEnv(g, 20, r)
			if err != nil {
				b.Fatal(err)
			}
			set, err := netbandit.TopM(20, 2, g)
			if err != nil {
				b.Fatal(err)
			}
			cfg := netbandit.Config{Horizon: 500, AnnounceHorizon: true}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run, err := netbandit.NewComboRun(env, set, netbandit.CSR, netbandit.NewDFLCSR(), cfg, netbandit.NewRNG(uint64(i)), nil)
				if err == nil {
					_, err = run.Run()
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(500, "rounds/op")
		}},
	}
	// Large-K family: sparse avg-degree-8 Bernoulli env, sliding-window
	// strategies (|F| = K), mirroring bench_test.go's BenchmarkLargeK*.
	largeK := func(k int) (*netbandit.Env, *netbandit.StrategySet, error) {
		env, err := netbandit.NewSparseBernoulliEnv(k, 8, uint64(k))
		if err != nil {
			return nil, nil, err
		}
		set, err := netbandit.WindowStrategies(k, 2, env.Graph())
		if err != nil {
			return nil, nil, err
		}
		return env, set, nil
	}
	for _, k := range []int{256, 4096, 10000} {
		k := k
		suite = append(suite,
			namedBench{fmt.Sprintf("largek_sg_build_k%d", k), func(b *testing.B) {
				_, set, err := largeK(k)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sg := netbandit.BuildStrategyGraph(set)
					if sg.N() != set.Len() {
						b.Fatal("bad SG")
					}
				}
			}},
			namedBench{fmt.Sprintf("largek_steady_state_round_k%d", k), func(b *testing.B) {
				env, _, err := largeK(k)
				if err != nil {
					b.Fatal(err)
				}
				warmup := k + 1000 // unseen queue drains one arm per round
				cfg := netbandit.Config{Horizon: warmup + b.N, AnnounceHorizon: true}
				run, err := netbandit.NewSingleRun(env, netbandit.SSO, netbandit.NewDFLSSO(), cfg, netbandit.NewRNG(7))
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < warmup; i++ {
					if err := run.Step(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := run.Step(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(1, "rounds/op")
			}},
			namedBench{fmt.Sprintf("largek_closure_sample_k%d", k), func(b *testing.B) {
				env, set, err := largeK(k)
				if err != nil {
					b.Fatal(err)
				}
				ctr := netbandit.NewCounter(uint64(k))
				scratch := netbandit.NewRNG(9)
				buf := make([]float64, env.K())
				closure := set.Closure(set.Len() / 2)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					env.SampleObserved(ctr, i+1, closure, buf, scratch)
				}
				b.ReportMetric(float64(len(closure)), "arms/op")
			}},
		)
	}
	// Serve family: the decision service's hot path, with (env mode) and
	// without the HTTP layer, including the per-round decision-log append.
	suite = append(suite,
		namedBench{"serve_decide_env_k16", func(b *testing.B) {
			srv, err := serve.New(serve.Options{Dir: b.TempDir(), SnapshotEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			spec := serve.Spec{ID: "bench", Seed: 1, Scenario: "sso", Policy: "dfl",
				K: 16, Horizon: 100_000_000, Feedback: "env"}
			if _, err := srv.CreateInstance(spec); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.Decide("bench"); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(1, "rounds/op")
		}},
		namedBench{"serve_http_decide_env_k16", func(b *testing.B) {
			srv, err := serve.New(serve.Options{Dir: b.TempDir(), SnapshotEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			spec := serve.Spec{ID: "bench", Seed: 1, Scenario: "sso", Policy: "dfl",
				K: 16, Horizon: 100_000_000, Feedback: "env"}
			if _, err := srv.CreateInstance(spec); err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			defer ts.Close()
			client := ts.Client()
			body := []byte(`{"instance":"bench"}`)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := client.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
			b.ReportMetric(1, "rounds/op")
		}},
	)
	// Contextual family: the marginal round of the linear-reward loop —
	// context fill, policy scoring, counter sampling, ridge update.
	ctxRound := func(pol func() netbandit.ComboPolicy) func(b *testing.B) {
		return func(b *testing.B) {
			const warmup = 500
			r := netbandit.NewRNG(11)
			g := netbandit.GnpGraph(20, 0.3, r)
			cenv, err := netbandit.NewContextualEnv(g, 20, netbandit.RandomTheta(r, 4), netbandit.NewCounter(12))
			if err != nil {
				b.Fatal(err)
			}
			set, err := netbandit.TopM(20, 2, g)
			if err != nil {
				b.Fatal(err)
			}
			cfg := netbandit.Config{Horizon: warmup + b.N, AnnounceHorizon: true}
			run, err := netbandit.NewComboRun(cenv, set, netbandit.CSO, pol(), cfg, netbandit.NewRNG(13), nil)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < warmup; i++ {
				if err := run.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := run.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(1, "rounds/op")
		}
	}
	suite = append(suite,
		namedBench{"comblinucb_steady_round", ctxRound(func() netbandit.ComboPolicy {
			return netbandit.NewCombLinUCB(1, netbandit.ObjectiveDirect)
		})},
		namedBench{"ctx_thompson_steady_round", ctxRound(func() netbandit.ComboPolicy {
			return netbandit.NewCombCtxThompson(0.5, netbandit.ObjectiveDirect, netbandit.NewRNG(14))
		})},
	)
	return append(suite,
		namedBench{"fig3a_quick", func(b *testing.B) {
			e, ok := netbandit.FindExperiment("fig3a")
			if !ok {
				b.Fatal("fig3a not registered")
			}
			params := netbandit.Params{Horizon: 2000, Reps: 2, Seed: 99, Points: 10}
			var table *netbandit.Table
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				table, err = e.Run(params)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			for _, c := range table.Curves {
				if len(c.Mean) > 0 {
					b.ReportMetric(c.Mean[len(c.Mean)-1], "final_regret_"+c.Name)
				}
			}
		}},
	)
}
