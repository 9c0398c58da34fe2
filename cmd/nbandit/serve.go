package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"netbandit/internal/obs"
	"netbandit/internal/serve"
)

// runServe hosts the real-time decision service (or, with -replay,
// audits a data directory offline without serving).
func runServe(args []string) error {
	flags := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := flags.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	dir := flags.String("dir", "", "data directory for instance state (required)")
	snapshotEvery := flags.Int("snapshot-every", 256, "snapshot cadence in closed rounds (negative disables)")
	queue := flags.Int("queue", 1024, "async feedback ingest queue capacity")
	journal := flags.Bool("journal", false, "record instance lifecycle events to a flight-recorder journal in -dir")
	replay := flags.Bool("replay", false, "verify that every instance's log re-derives bit-identically, then exit")
	if err := flags.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}

	if *replay {
		results, err := serve.VerifyDir(*dir)
		for _, r := range results {
			fmt.Printf("instance %-24s rounds %8d spec %s snapshot-checked=%v\n",
				r.ID, r.Rounds, r.SpecHash, r.SnapshotChecked)
		}
		if err != nil {
			return fmt.Errorf("replay audit failed: %w", err)
		}
		fmt.Printf("serve: %d instance(s) re-derived bit-identically\n", len(results))
		return nil
	}

	reg := obs.NewRegistry()
	var rec *obs.Recorder
	if *journal {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			return err
		}
		r, err := obs.Open(filepath.Join(*dir, obs.JournalName))
		if err != nil {
			return err
		}
		defer r.Close()
		rec = r
	}
	srv, err := serve.New(serve.Options{
		Dir: *dir, Registry: reg, Recorder: rec,
		SnapshotEvery: *snapshotEvery, QueueSize: *queue,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The e2e harness parses this line for the bound address; keep its
	// shape stable.
	fmt.Printf("nbandit serve: listening on %s (dir %s, %d instances)\n",
		ln.Addr(), *dir, len(srv.Stats()))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "nbandit serve: shutting down")
		ln.Close()
	}()
	serveErr := http.Serve(ln, srv)
	if closeErr := srv.Close(); closeErr != nil {
		return closeErr
	}
	if serveErr != nil && !errors.Is(serveErr, net.ErrClosed) {
		return serveErr
	}
	return nil
}

type loadgenOptions struct {
	addr      string
	instances int
	workers   int
	mode      string
	scenario  string
	policy    string
	k         int
	seed      uint64
	rate      float64
	duration  time.Duration
	out       string
	label     string
}

// runLoadgen drives a running decision service at a target rate and
// reports decisions/sec plus latency percentiles, optionally merging
// them into a bench trajectory file in the same shape `nbandit bench`
// writes.
func runLoadgen(args []string) error {
	flags := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var o loadgenOptions
	flags.StringVar(&o.addr, "addr", "", "decision service address, host:port (required)")
	flags.IntVar(&o.instances, "instances", 2, "instances to create (loadgen-0..n-1)")
	flags.IntVar(&o.workers, "workers", 4, "concurrent client goroutines")
	flags.StringVar(&o.mode, "mode", "env", "feedback mode for created instances (env|client)")
	flags.StringVar(&o.scenario, "scenario", "sso", "scenario for created instances")
	flags.StringVar(&o.policy, "policy", "dfl", "policy for created instances")
	flags.IntVar(&o.k, "k", 16, "arms per instance")
	flags.Uint64Var(&o.seed, "seed", 1, "base seed; instance i uses seed+i")
	flags.Float64Var(&o.rate, "rate", 0, "target decisions/sec across all workers (0 = unthrottled)")
	flags.DurationVar(&o.duration, "duration", 5*time.Second, "how long to generate load")
	flags.StringVar(&o.out, "out", "", "bench trajectory file to merge results into ('-' for stdout)")
	flags.StringVar(&o.label, "label", "loadgen", "trajectory label to store results under")
	if err := flags.Parse(args); err != nil {
		return err
	}
	if o.addr == "" {
		return fmt.Errorf("-addr is required")
	}
	if o.instances < 1 || o.workers < 1 {
		return fmt.Errorf("-instances and -workers must be positive")
	}
	base := "http://" + o.addr

	client := &http.Client{Timeout: 10 * time.Second}
	ids := make([]string, o.instances)
	for i := range ids {
		ids[i] = fmt.Sprintf("loadgen-%d", i)
		spec := serve.Spec{
			ID: ids[i], Seed: o.seed + uint64(i), Scenario: o.scenario,
			Policy: o.policy, K: o.k, Horizon: 10_000_000, Feedback: o.mode,
		}
		status, body, err := postJSON(client, base+"/v1/instances", spec)
		if err != nil {
			return fmt.Errorf("create %s: %w", ids[i], err)
		}
		switch status {
		case http.StatusCreated:
		case http.StatusConflict:
			// The id survived a previous run. Load may ride on it only if
			// it is the instance this run would have created.
			if err := spec.Normalize(); err != nil {
				return fmt.Errorf("create %s: %w", ids[i], err)
			}
			got, err := instanceHash(client, base, ids[i])
			if err != nil {
				return fmt.Errorf("create %s: %w", ids[i], err)
			}
			if want := spec.Hash(); got != want {
				return fmt.Errorf("create %s: an instance with this id already exists with spec_hash %s, this run's spec hashes to %s (another -mode, -scenario, -policy, -k or -seed?); use a fresh data dir",
					ids[i], got, want)
			}
		default:
			return fmt.Errorf("create %s: status %d: %s", ids[i], status, bytes.TrimSpace(body))
		}
	}

	var decisions, feedbacks, errs atomic.Int64
	latencies := make([][]float64, o.workers)
	deadline := time.Now().Add(o.duration)
	perWorkerInterval := time.Duration(0)
	if o.rate > 0 {
		perWorkerInterval = time.Duration(float64(o.workers) / o.rate * float64(time.Second))
	}
	var wg sync.WaitGroup
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			next := time.Now()
			for i := 0; time.Now().Before(deadline); i++ {
				if perWorkerInterval > 0 {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(perWorkerInterval)
				}
				id := ids[(w+i)%len(ids)]
				t0 := time.Now()
				status, body, err := postJSON(client, base+"/v1/decide", map[string]string{"instance": id})
				lat := time.Since(t0)
				if err != nil || status != http.StatusOK {
					errs.Add(1)
					continue
				}
				decisions.Add(1)
				latencies[w] = append(latencies[w], lat.Seconds())
				if o.mode == "client" {
					var dec serve.Decision
					if json.Unmarshal(body, &dec) == nil && dec.Open {
						values := make([]float64, len(dec.Closure))
						for j, a := range dec.Closure {
							values[j] = float64((dec.T*31+a*7)%11) / 11
						}
						st, _, ferr := postJSON(client, base+"/v1/feedback", map[string]any{
							"items": []serve.FeedbackItem{{
								Instance: id, T: dec.T, Action: dec.Action, Values: values,
							}},
						})
						if ferr == nil && st == http.StatusAccepted {
							feedbacks.Add(1)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	n := decisions.Load()
	if n == 0 {
		return fmt.Errorf("no decisions served in %s (%d errors) — is the service up at %s?",
			o.duration, errs.Load(), o.addr)
	}
	var all []float64
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Float64s(all)
	pct := func(p float64) float64 { return all[int(p*float64(len(all)-1))] }
	var sum float64
	for _, v := range all {
		sum += v
	}
	mean := sum / float64(len(all))
	perSec := float64(n) / o.duration.Seconds()

	fmt.Printf("loadgen: %d decisions in %s (%.1f/sec), %d feedback batches, %d errors\n",
		n, o.duration, perSec, feedbacks.Load(), errs.Load())
	fmt.Printf("loadgen: latency mean %.3fms p50 %.3fms p95 %.3fms p99 %.3fms\n",
		mean*1e3, pct(0.50)*1e3, pct(0.95)*1e3, pct(0.99)*1e3)
	if o.mode == serve.FeedbackClient && feedbacks.Load() == 0 {
		return fmt.Errorf("client mode: %d decisions served but no feedback batch accepted", n)
	}

	if o.out == "" {
		return nil
	}
	results := map[string]benchResult{
		"serve_loadgen_" + o.mode: {
			NsPerOp:    mean * 1e9,
			Iterations: int(n),
			Extra: map[string]float64{
				"decisions_per_sec": perSec,
				"p50_ms":            pct(0.50) * 1e3,
				"p95_ms":            pct(0.95) * 1e3,
				"p99_ms":            pct(0.99) * 1e3,
				"errors":            float64(errs.Load()),
			},
		},
	}
	return mergeTrajectory(o.out, o.label, results)
}

// instanceHash returns the spec hash the service at base reports for
// instance id.
func instanceHash(client *http.Client, base, id string) (string, error) {
	resp, err := client.Get(base + "/v1/instances")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("list instances: status %d", resp.StatusCode)
	}
	var list struct {
		Instances []serve.InstanceStats `json:"instances"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return "", fmt.Errorf("list instances: %w", err)
	}
	for _, in := range list.Instances {
		if in.ID == id {
			return in.SpecHash, nil
		}
	}
	return "", fmt.Errorf("instance %s answered 409 on create but is not listed", id)
}

// postJSON posts v as JSON and returns the status code and body.
func postJSON(client *http.Client, url string, v any) (int, []byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}
