package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"netbandit"
)

// layerNames lists every per-layer metric a traced run reports, whatever
// its workload: a traced run measures every layer, so that layer numbers
// of different workloads line up, and reports the tracing overhead of its
// own workload.
func layerNames() []string {
	var names []string
	for _, c := range paperCells {
		names = append(names,
			fmt.Sprintf("policy.select_ns.%s.%s", c.policy, c.part),
			fmt.Sprintf("policy.update_ns.%s.%s", c.policy, c.part))
	}
	for _, part := range paperParts {
		names = append(names,
			"sim.rep_ms."+part,
			"sim.round_overhead_ns."+part,
			"bandit.sample_ns."+part,
			"bandit.arms_per_round."+part)
	}
	names = append(names,
		"sim.pool_busy_share",
		"sim.env_build_ms",
		"core.sg_build_ms.cso",
		"core.sg_build_ms.csr",
		"core.sg_build_ms.largek",
		"serve.decide_inproc_p50_us",
		"serve.decide_inproc_p99_us",
		"serve.snapshot_ms",
		"serve.create_ms",
		"serve.enqueue_us",
		"serve.feedback_lag_p50_ms",
		"serve.repeat_decide_share",
		"serve.feedback_applied_share",
		"serve.restore_rounds_per_s",
		"serve.verify_rounds_per_s",
		"serve.log_bytes_per_round",
		"serve.restart_s",
		"http.decide_overhead_us",
		"http.decide_resp_bytes",
		"gen.late_share",
		"gen.lag_p99_ms",
		"trace.overhead_share",
	)
	return names
}

// lateAfter is how far behind its due time the open-loop generator may
// send a cycle before the cycle counts as late.
const lateAfter = time.Millisecond

// runTraced is the traced run: the sweep layers, the in-process serve
// layers, and both serve loads against a real process. The workload only
// selects whose overhead trace.overhead_share reports.
func runTraced(o *options) (*report, error) {
	rep := newReport()
	sweepOver, err := traceSweepLayers(o, rep)
	if err != nil {
		return nil, err
	}
	inprocP50, err := traceServeInproc(o, rep)
	if err != nil {
		return nil, err
	}
	envOver, err := traceServeEnv(o, rep, inprocP50)
	if err != nil {
		return nil, err
	}
	clientOver, err := traceServeClient(o, rep)
	if err != nil {
		return nil, err
	}
	over := map[string]float64{wlSweep: sweepOver, wlEnv: envOver, wlClient: clientOver}[o.workload]
	rep.set("trace.overhead_share", over, "share")
	rep.detail("detail trace.overhead_share sweep-paper %.4f serve-env %.4f serve-client %.4f", sweepOver, envOver, clientOver)
	return rep, nil
}

// traceServeEnv runs untraced and traced env trials alternately. The
// traced ones also count response bytes; the HTTP overhead is the client
// p50 minus the in-process p50. The overhead share is the median over
// adjacent pairs of 1 − traced/untraced throughput.
func traceServeEnv(o *options, rep *report, inprocP50 time.Duration) (float64, error) {
	var shares, restart []float64
	var lat durations
	var bytes int64
	for i := 0; i < o.sizes.traceTrials; i++ {
		var rate [2]float64
		for j := range rate {
			tr, err := envTrial(o, o.seed)
			if err != nil {
				return 0, err
			}
			rep.ops(tr.attempted, tr.failed)
			rate[j] = float64(tr.done) / tr.wall.Seconds()
			if j == 1 {
				lat = append(lat, tr.decideLat...)
				bytes += tr.respBytes
				restart = append(restart, tr.restart.Seconds())
			}
		}
		shares = append(shares, 1-rate[1]/rate[0])
	}
	rep.set("http.decide_overhead_us", us(lat.quantile(0.5)-inprocP50), "us")
	rep.set("http.decide_resp_bytes", float64(bytes)/float64(len(lat)), "bytes")
	rep.set("serve.restart_s", median(restart), "s")
	return median(shares), nil
}

// traceServeClient runs untraced and traced client trials alternately; the
// traced ones read the feedback-lag histogram. The open loop runs at a
// fixed rate, so its overhead share is the median over adjacent pairs of
// the relative change of decide p50.
func traceServeClient(o *options, rep *report) (float64, error) {
	var lat, lag durations
	var repeats, decides int64
	var applied, settled uint64
	var shares, lagP50 []float64
	for i := 0; i < o.sizes.traceTrials; i++ {
		var p50 [2]float64
		for j, tracing := range []bool{false, true} {
			tr, err := clientTrial(o, o.seed, tracing)
			if err != nil {
				return 0, err
			}
			rep.ops(tr.attempted, tr.failed)
			p50[j] = float64(tr.decideLat.quantile(0.5))
			if !tracing {
				continue
			}
			lat = append(lat, tr.decideLat...)
			lag = append(lag, tr.genLag...)
			repeats += tr.repeats
			decides += int64(len(tr.decideLat))
			applied += tr.applied
			settled += tr.settled
			lagP50 = append(lagP50, tr.lagP50)
		}
		shares = append(shares, p50[1]/p50[0]-1)
	}
	late := 0
	for _, l := range lag {
		if l > lateAfter {
			late++
		}
	}
	rep.set("serve.feedback_lag_p50_ms", median(lagP50), "ms")
	rep.set("serve.repeat_decide_share", float64(repeats)/float64(decides), "share")
	share := 0.0
	if settled > 0 {
		share = float64(applied) / float64(settled)
	}
	rep.set("serve.feedback_applied_share", share, "share")
	rep.set("gen.late_share", float64(late)/float64(len(lag)), "share")
	rep.set("gen.lag_p99_ms", ms(lag.quantile(0.99)), "ms")
	return median(shares), nil
}

// traceServeInproc times the serve layers in process through the facade,
// with the same instance mix and shipped defaults, and returns the
// in-process decide p50.
func traceServeInproc(o *options, rep *report) (time.Duration, error) {
	dir, err := freshDir(o, "inproc")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	srv, err := netbandit.NewDecisionServer(netbandit.ServeOptions{Dir: dir})
	if err != nil {
		return 0, err
	}
	specs := mixSpecs(o.seed, "env")
	var create []float64
	for _, spec := range specs {
		start := time.Now()
		if _, err := srv.CreateInstance(spec); err != nil {
			srv.Kill()
			return 0, gatef("in-process create %s: %v", spec.ID, err)
		}
		create = append(create, ms(time.Since(start)))
	}
	rep.set("serve.create_ms", median(create), "ms")

	conns := o.sizes.conns
	lats := make([]durations, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mine := owned(c, conns, len(specs))
			n := o.sizes.inprocDecides / conns
			lats[c] = make(durations, 0, n)
			for k := 0; k < n && len(mine) > 0; k++ {
				id := specs[mine[k%len(mine)]].ID
				start := time.Now()
				if _, err := srv.Decide(id); err != nil {
					errs[c] = gatef("in-process decide %s: %v", id, err)
					return
				}
				lats[c] = append(lats[c], time.Since(start))
			}
		}(c)
	}
	wg.Wait()
	var lat durations
	for c := range lats {
		if errs[c] != nil {
			srv.Kill()
			return 0, errs[c]
		}
		lat = append(lat, lats[c]...)
	}
	rep.ops(int64(len(lat)), 0)
	p50 := lat.quantile(0.5)
	rep.setN("serve.decide_inproc_p50_us", us(p50), "us", len(lat))
	rep.setN("serve.decide_inproc_p99_us", us(lat.quantile(0.99)), "us", len(lat))

	var snap []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if err := srv.SnapshotAll(); err != nil {
			srv.Kill()
			return 0, err
		}
		snap = append(snap, ms(time.Since(start)))
	}
	rep.set("serve.snapshot_ms", median(snap), "ms")
	if err := srv.Close(); err != nil {
		return 0, err
	}
	rounds := len(lat)
	rep.set("serve.log_bytes_per_round", float64(logBytes(dir))/float64(rounds), "bytes")

	start := time.Now()
	srv, err = netbandit.NewDecisionServer(netbandit.ServeOptions{Dir: dir})
	if err != nil {
		return 0, gatef("restore: %v", err)
	}
	rep.set("serve.restore_rounds_per_s", float64(rounds)/time.Since(start).Seconds(), "1/s")
	if err := srv.Close(); err != nil {
		return 0, err
	}
	start = time.Now()
	if _, err := netbandit.VerifyServeDir(dir); err != nil {
		return 0, gatef("VerifyServeDir: %v", err)
	}
	rep.set("serve.verify_rounds_per_s", float64(rounds)/time.Since(start).Seconds(), "1/s")

	enq, err := inprocEnqueue(o)
	if err != nil {
		return 0, err
	}
	rep.set("serve.enqueue_us", enq, "us")
	return p50, nil
}

// inprocEnqueue times EnqueueFeedback on client-mode instances, each item
// answering a round the preceding Decide newly opened (at most one queued
// item per instance, so the queue never fills), and returns the median in
// microseconds.
func inprocEnqueue(o *options) (float64, error) {
	dir, err := freshDir(o, "inproc-client")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	srv, err := netbandit.NewDecisionServer(netbandit.ServeOptions{Dir: dir})
	if err != nil {
		return 0, err
	}
	specs := mixSpecs(o.seed, "client")
	for _, spec := range specs {
		if _, err := srv.CreateInstance(spec); err != nil {
			srv.Kill()
			return 0, gatef("in-process create %s: %v", spec.ID, err)
		}
	}
	var enq []float64
	lastFed := map[string]int{}
	n := o.sizes.inprocDecides / 4
	for k := 0; k < n; k++ {
		spec := specs[k%len(specs)]
		dec, err := srv.Decide(spec.ID)
		if err != nil {
			srv.Kill()
			return 0, gatef("in-process decide %s: %v", spec.ID, err)
		}
		if dec.T == lastFed[spec.ID] {
			continue // feedback for this round is queued, not yet applied
		}
		lastFed[spec.ID] = dec.T
		values := make([]float64, len(dec.Closure))
		for j, a := range dec.Closure {
			values[j] = feedbackValue(spec.Seed, dec.T, a)
		}
		item := netbandit.FeedbackItem{Instance: spec.ID, T: dec.T, Action: dec.Action, Values: values}
		start := time.Now()
		ok := srv.EnqueueFeedback(item)
		enq = append(enq, us(time.Since(start)))
		if !ok {
			srv.Kill()
			return 0, gatef("in-process feedback for %s round %d rejected", spec.ID, dec.T)
		}
	}
	if err := srv.Close(); err != nil {
		return 0, err
	}
	return median(enq), nil
}
