package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"netbandit"
)

// The serve workloads host one dfl instance per scenario on a real
// `nbandit serve` process with shipped defaults (snapshot every 256
// rounds, queue 1024), on a fresh data directory per trial. Each of the
// nproc load connections owns its own instances, so an instance's
// decision sequence is deterministic in env mode.

// instPlan is one hosted instance of the mix.
type instPlan struct {
	scenario string
	k        int
}

var serveMix = []instPlan{{"sso", 20}, {"ssr", 16}, {"cso", 16}, {"csr", 16}}

// mixSpecs returns the instance specs for a seed and feedback mode.
func mixSpecs(seed uint64, feedback string) []netbandit.InstanceSpec {
	root := netbandit.NewRNG(seed)
	specs := make([]netbandit.InstanceSpec, len(serveMix))
	for i, ip := range serveMix {
		specs[i] = netbandit.InstanceSpec{
			ID: ip.scenario, Seed: root.Split(uint64(100 + i)).Uint64(), Scenario: ip.scenario,
			Policy: "dfl", K: ip.k, Feedback: feedback,
		}
	}
	return specs
}

// owned returns the indices of the instances connection c drives.
func owned(c, conns, n int) []int {
	var out []int
	for i := c; i < n; i += conns {
		out = append(out, i)
	}
	return out
}

// serveTrial is one serve trial's measurements.
type serveTrial struct {
	setup     time.Duration // spawn on a fresh dir until /healthz, plus creates
	restart   time.Duration // spawn on the populated dir until /healthz
	wall      time.Duration // load phase
	done      int           // decides (env) or completed cycles (client)
	decideLat durations
	fbLat     durations
	genLag    durations
	rss       float64
	digests   map[string]string
	attempted int64
	failed    int64
	respBytes int64
	repeats   int64
	applied   uint64
	settled   uint64 // applied + stale + mismatch + invalid
	lagP50    float64
	rounds    int
}

// serveSetup spawns a server on a fresh dir and creates the mix; any
// status but 201 fails the gate.
func serveSetup(o *options, name string, specs []netbandit.InstanceSpec) (*serveProc, string, time.Duration, error) {
	dir, err := freshDir(o, name)
	if err != nil {
		return nil, "", 0, err
	}
	start := time.Now()
	p, _, err := startServe(o.nbandit, dir)
	if err != nil {
		return nil, "", 0, err
	}
	c := newConn(p.base)
	defer c.close()
	for _, spec := range specs {
		body, err := json.Marshal(spec)
		if err != nil {
			p.kill()
			return nil, "", 0, err
		}
		status, resp, err := c.post("/v1/instances", body)
		if err != nil || status != 201 {
			p.kill()
			return nil, "", 0, gatef("create instance %s: status %d err %v: %s", spec.ID, status, err, strings.TrimSpace(string(resp)))
		}
	}
	return p, dir, time.Since(start), nil
}

// finishTrial stops the server, times a restart on the populated dir,
// replay-verifies the dir and returns the per-instance round counts.
func finishTrial(o *options, p *serveProc, dir string, tr *serveTrial) (map[string]int, error) {
	rss, err := p.peakRSS()
	if err != nil {
		p.kill()
		return nil, err
	}
	tr.rss = rss
	if err := p.stop(); err != nil {
		return nil, err
	}
	p2, restart, err := startServe(o.nbandit, dir)
	if err != nil {
		return nil, fmt.Errorf("restart on populated dir: %w", err)
	}
	tr.restart = restart
	if err := p2.stop(); err != nil {
		return nil, err
	}
	rounds, err := verifyDir(dir)
	if err != nil {
		return nil, err
	}
	for _, n := range rounds {
		tr.rounds += n
	}
	return rounds, os.RemoveAll(dir)
}

// verifyDir is the replay gate: every instance's log under dir must
// re-derive bit-identically. It returns each instance's round count.
func verifyDir(dir string) (map[string]int, error) {
	results, err := netbandit.VerifyServeDir(dir)
	if err != nil {
		return nil, gatef("VerifyServeDir: %v", err)
	}
	rounds := map[string]int{}
	for _, r := range results {
		rounds[r.ID] = r.Rounds
	}
	return rounds, nil
}

// logBytes sums the decision-log files under a data dir.
func logBytes(dir string) int64 {
	var n int64
	entries, _ := os.ReadDir(dir + "/instances")
	for _, e := range entries {
		files, _ := os.ReadDir(dir + "/instances/" + e.Name())
		for _, f := range files {
			if strings.HasPrefix(f.Name(), "log") {
				if info, err := f.Info(); err == nil {
					n += info.Size()
				}
			}
		}
	}
	return n
}

// decideBody is the request body of POST /v1/decide for an instance.
func decideBody(id string) []byte { return []byte(`{"instance":"` + id + `"}`) }

// envTrial is one closed-loop env-mode trial: nproc connections, each
// serving its share of sizes.envDecides on its own instances.
func envTrial(o *options, seed uint64) (*serveTrial, error) {
	specs := mixSpecs(seed, "env")
	p, dir, setup, err := serveSetup(o, "env", specs)
	if err != nil {
		return nil, err
	}
	tr := &serveTrial{setup: setup, digests: map[string]string{}}
	conns := o.sizes.conns
	type connOut struct {
		lat              durations
		served           map[string]int
		hashes           map[string]hash.Hash
		attempted, fails int64
		bytes            int64
		err              error
	}
	outs := make([]connOut, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			out.served, out.hashes = map[string]int{}, map[string]hash.Hash{}
			mine := owned(c, conns, len(specs))
			if len(mine) == 0 {
				return
			}
			cl := newConn(p.base)
			defer cl.close()
			bodies := make([][]byte, len(mine))
			for j, i := range mine {
				bodies[j] = decideBody(specs[i].ID)
				out.hashes[specs[i].ID] = sha256.New()
			}
			n := o.sizes.envDecides / conns
			out.lat = make(durations, 0, n)
			for k := 0; k < n; k++ {
				j := k % len(mine)
				id := specs[mine[j]].ID
				t0 := time.Now()
				status, body, err := cl.post("/v1/decide", bodies[j])
				lat := time.Since(t0)
				out.attempted++
				if err != nil || status != 200 {
					out.fails++
					continue
				}
				var dec netbandit.Decision
				if err := json.Unmarshal(body, &dec); err != nil {
					out.fails++
					continue
				}
				out.served[id]++
				if dec.T != out.served[id] || dec.Open {
					out.err = gatef("instance %s: decide %d answered round %d (open=%v)", id, out.served[id], dec.T, dec.Open)
					return
				}
				fmt.Fprintf(out.hashes[id], "%d:%d\n", dec.T, dec.Action)
				out.lat = append(out.lat, lat)
				out.bytes += int64(len(body))
			}
		}(c)
	}
	wg.Wait()
	tr.wall = time.Since(start)
	served := map[string]int{}
	for _, out := range outs {
		if out.err != nil {
			p.kill()
			return nil, out.err
		}
		tr.decideLat = append(tr.decideLat, out.lat...)
		tr.attempted += out.attempted
		tr.failed += out.fails
		tr.respBytes += out.bytes
		for id, n := range out.served {
			served[id] = n
			tr.done += n
		}
		for id, h := range out.hashes {
			tr.digests[id] = hexSum(h)
		}
	}
	rounds, err := finishTrial(o, p, dir, tr)
	if err != nil {
		return nil, err
	}
	for _, spec := range specs {
		if rounds[spec.ID] != served[spec.ID] {
			return nil, gatef("instance %s: log holds %d rounds, %d decisions were served", spec.ID, rounds[spec.ID], served[spec.ID])
		}
	}
	return tr, nil
}

// feedbackValue is the reward the client reports for one arm of one
// round: a fixed hash of (instance seed, t, arm) mapped into [0, 1].
func feedbackValue(seed uint64, t, arm int) float64 {
	x := seed ^ uint64(t)*0x9e3779b97f4a7c15 ^ uint64(arm)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return float64(x>>11) / float64(1<<53)
}

// clientTrial is one open-loop client-feedback trial: sizes.clientCycles
// decide+feedback cycles due at sizes.clientRate per second, each timed
// from its due time.
func clientTrial(o *options, seed uint64, traced bool) (*serveTrial, error) {
	specs := mixSpecs(seed, "client")
	p, dir, setup, err := serveSetup(o, "client", specs)
	if err != nil {
		return nil, err
	}
	tr := &serveTrial{setup: setup}
	conns := o.sizes.conns
	period := time.Duration(float64(time.Second) / o.sizes.clientRate)
	type connOut struct {
		decideLat, fbLat, lag durations
		fed                   map[string]uint64
		attempted, fails      int64
		repeats               int64
		done                  int
		last                  time.Time
	}
	outs := make([]connOut, conns)
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			out.fed = map[string]uint64{}
			mine := owned(c, conns, len(specs))
			if len(mine) == 0 {
				return
			}
			cl := newConn(p.base)
			defer cl.close()
			lastFed := map[string]int{}
			for i, k := c, 0; i < o.sizes.clientCycles; i, k = i+conns, k+1 {
				spec := specs[mine[k%len(mine)]]
				due := start.Add(time.Duration(i) * period)
				sleepUntil(due)
				out.lag = append(out.lag, time.Since(due))
				out.attempted++
				status, body, err := cl.post("/v1/decide", decideBody(spec.ID))
				if err != nil || status != 200 {
					out.fails++
					continue
				}
				out.decideLat = append(out.decideLat, time.Since(due))
				var dec netbandit.Decision
				if err := json.Unmarshal(body, &dec); err != nil || !dec.Open {
					out.fails++
					continue
				}
				if dec.T == lastFed[spec.ID] {
					// The previous round's feedback is queued but not yet
					// applied, so the same round came back.
					out.repeats++
					out.done++
					out.last = time.Now()
					continue
				}
				values := make([]float64, len(dec.Closure))
				for j, a := range dec.Closure {
					values[j] = feedbackValue(spec.Seed, dec.T, a)
				}
				fb, err := json.Marshal(map[string][]netbandit.FeedbackItem{"items": {{
					Instance: spec.ID, T: dec.T, Action: dec.Action, Values: values,
				}}})
				if err != nil {
					out.fails++
					continue
				}
				out.attempted++
				status, body, err = cl.post("/v1/feedback", fb)
				var ack struct{ Accepted, Rejected int }
				if err != nil || status != 202 || json.Unmarshal(body, &ack) != nil || ack.Accepted != 1 {
					out.fails++
					continue
				}
				out.fbLat = append(out.fbLat, time.Since(due))
				lastFed[spec.ID] = dec.T
				out.fed[spec.ID]++
				out.done++
				out.last = time.Now()
			}
		}(c)
	}
	wg.Wait()
	fed := map[string]uint64{}
	var last time.Time
	for _, out := range outs {
		tr.decideLat = append(tr.decideLat, out.decideLat...)
		tr.fbLat = append(tr.fbLat, out.fbLat...)
		tr.genLag = append(tr.genLag, out.lag...)
		tr.attempted += out.attempted
		tr.failed += out.fails
		tr.repeats += out.repeats
		tr.done += out.done
		for id, n := range out.fed {
			fed[id] += n
		}
		if out.last.After(last) {
			last = out.last
		}
	}
	tr.wall = last.Sub(start)

	// Wait for the pump to apply every accepted item; an item still
	// unapplied after the wait counts as failed.
	cl := newConn(p.base)
	defer cl.close()
	var st *serverStats
	for deadline := time.Now().Add(10 * time.Second); ; {
		st, err = cl.stats()
		if err != nil {
			p.kill()
			return nil, err
		}
		settled := true
		for _, in := range st.Instances {
			if in.FeedbackApplied < fed[in.ID] {
				settled = false
			}
		}
		if settled || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	applied := map[string]int{}
	for _, in := range st.Instances {
		applied[in.ID] = int(in.FeedbackApplied)
		tr.applied += in.FeedbackApplied
		tr.settled += in.FeedbackApplied + in.FeedbackStale + in.FeedbackMismatch + in.FeedbackInvalid
		if in.FeedbackApplied < fed[in.ID] {
			tr.failed += int64(fed[in.ID] - in.FeedbackApplied)
		}
		tr.failed += int64(in.FeedbackStale + in.FeedbackMismatch + in.FeedbackInvalid)
	}
	if traced {
		raw, err := cl.get("/metrics")
		if err != nil {
			p.kill()
			return nil, err
		}
		tr.lagP50 = histQuantile(string(raw), "nbandit_serve_feedback_lag_seconds", 0.5) * 1e3
	}
	rounds, err := finishTrial(o, p, dir, tr)
	if err != nil {
		return nil, err
	}
	for _, spec := range specs {
		if rounds[spec.ID] != applied[spec.ID] {
			return nil, gatef("instance %s: log holds %d rounds, %d feedback items were applied", spec.ID, rounds[spec.ID], applied[spec.ID])
		}
	}
	return tr, nil
}

// sleepUntil blocks the calling thread until t. On the reference host the
// runtime timer wakes a sub-millisecond sleeper about 1 ms late, half the
// open loop's 2 ms per-connection period; nanosleep(2) wakes within tens
// of microseconds, without spinning.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-checks the time
	}
}

// histQuantile estimates a quantile from a Prometheus text-format
// histogram by linear interpolation inside the bucket that holds it.
func histQuantile(text, name string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		le, count, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		bound := math.Inf(1)
		if le != "+Inf" {
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			bound = v
		}
		c, err := strconv.ParseFloat(strings.TrimSpace(count), 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{bound, c})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0
	}
	target := q * bs[len(bs)-1].cum
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= target {
			if math.IsInf(b.le, 1) {
				return lo
			}
			if b.cum == prev {
				return b.le
			}
			return lo + (b.le-lo)*(target-prev)/(b.cum-prev)
		}
		lo, prev = b.le, b.cum
	}
	return lo
}

// serveRun runs trials until both the time budget and the minimum count
// are met, after one untimed warm-up trial.
func serveRun(o *options, trial func(seed uint64) (*serveTrial, error)) ([]*serveTrial, error) {
	var trials []*serveTrial
	start := time.Now()
	for len(trials) < o.sizes.minTrials || time.Since(start).Seconds() < o.seconds {
		tr, err := trial(o.seed)
		if err != nil {
			return nil, err
		}
		trials = append(trials, tr)
	}
	return trials, nil
}

// foldTrials reports the end-to-end metrics common to both serve
// workloads. Each is the median over trials of the trial's own value: on
// a shared host a slow stretch of a few seconds then moves a trial or two,
// not the run. The p99 is printed, not gated: it falls where the requests
// that waited on a snapshot's fsync begin, and moves with the disk.
func foldTrials(rep *report, trials []*serveTrial) {
	var setup, restart, rss, rate, p50, p99 []float64
	samples := 0
	for _, tr := range trials {
		setup = append(setup, tr.setup.Seconds())
		restart = append(restart, tr.restart.Seconds())
		rss = append(rss, tr.rss)
		rate = append(rate, float64(tr.done)/tr.wall.Seconds())
		p50 = append(p50, ms(tr.decideLat.quantile(0.50)))
		p99 = append(p99, ms(tr.decideLat.quantile(0.99)))
		samples += len(tr.decideLat)
		rep.ops(tr.attempted, tr.failed)
	}
	rep.set("setup_s", median(setup), "s")
	rep.set("peak_rss_mb", median(rss), "MB")
	rep.set("work_per_s", median(rate), "1/s")
	rep.setN("p50_ms", median(p50), "ms", samples)
	rep.detail("detail p99_ms %14.6g ms n=%d (median over %d trials of %d decides)", median(p99), samples, len(trials), samples/len(trials))
	rep.detail("detail restart_s %14.6g s (median of %d trials, %d rounds each)", median(restart), len(trials), trials[0].rounds)
}

// runServeEnv is the untraced serve-env run.
func runServeEnv(o *options) (*report, error) {
	rep := newReport()
	if err := envGolden(o); err != nil {
		return nil, err
	}
	var digests map[string]string
	trials, err := serveRun(o, func(seed uint64) (*serveTrial, error) {
		tr, err := envTrial(o, seed)
		if err != nil {
			return nil, err
		}
		if digests == nil {
			digests = tr.digests
		}
		for id, d := range tr.digests {
			if digests[id] != d {
				return nil, gatef("instance %s: (t, action) digest %s differs from the first trial's %s (same seed)", id, d, digests[id])
			}
		}
		return tr, nil
	})
	if err != nil {
		return nil, err
	}
	foldTrials(rep, trials)
	return rep, nil
}

// envGolden is the warm-up trial: the golden seed, whose per-instance
// (t, action) digests must equal the recorded ones.
func envGolden(o *options) error {
	tr, err := envTrial(o, o.digests.GoldenSeed)
	if err != nil {
		return err
	}
	for _, spec := range mixSpecs(o.digests.GoldenSeed, "env") {
		if got, want := tr.digests[spec.ID], o.digests.Env[spec.ID]; got != want {
			return gatef("serve-env golden digest of instance %s is %s, recorded %s", spec.ID, got, want)
		}
	}
	return nil
}

// runServeClient is the untraced serve-client run.
func runServeClient(o *options) (*report, error) {
	rep := newReport()
	if _, err := clientTrial(o, o.seed, false); err != nil { // warm-up
		return nil, err
	}
	trials, err := serveRun(o, func(seed uint64) (*serveTrial, error) { return clientTrial(o, seed, false) })
	if err != nil {
		return nil, err
	}
	foldTrials(rep, trials)
	var fb50, fb99 []float64
	for _, tr := range trials {
		fb50 = append(fb50, ms(tr.fbLat.quantile(0.50)))
		fb99 = append(fb99, ms(tr.fbLat.quantile(0.99)))
	}
	rep.detail("detail feedback_p50_ms %14.6g ms, feedback_p99_ms %.6g ms (medians over trials)", median(fb50), median(fb99))
	return rep, nil
}
