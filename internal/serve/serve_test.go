package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testSpec is the workhorse instance of the HTTP tests: a small SSO
// bandit with a randomness-consuming policy (Thompson), which makes
// decide idempotence and restart replay genuinely load-bearing — any
// double-consumed sample diverges the sequence immediately.
func testSpec(id string, feedback string) Spec {
	return Spec{
		ID: id, Seed: 41, Scenario: "sso", Policy: "thompson",
		K: 6, P: 0.4, Horizon: 400, Points: 10, Feedback: feedback,
	}
}

// fbValues is the deterministic feedback the client-mode tests supply:
// a pure function of (t, closure) so an offline rerun derives the same
// sequence the server served.
func fbValues(t int, closure []int) []float64 {
	v := make([]float64, len(closure))
	for i, a := range closure {
		v[i] = float64((t*31+a*7)%11) / 11
	}
	return v
}

func newTestServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Options{Dir: dir, SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

// driveHTTP runs n client-mode rounds over the wire, returning the
// served action sequence.
func driveHTTP(t *testing.T, base, id string, n int) []int {
	t.Helper()
	actions := make([]int, 0, n)
	lastT := 0
	for len(actions) < n {
		var dec Decision
		if code := doJSON(t, "POST", base+"/v1/decide", decideRequest{Instance: id}, &dec); code != http.StatusOK {
			t.Fatalf("decide: status %d", code)
		}
		if !dec.Open {
			t.Fatalf("round %d: client-mode decide not open", dec.T)
		}
		if dec.T > lastT {
			// A fresh round; an unchanged T means the previous round's
			// async feedback hasn't been ingested yet — the decide was
			// served idempotently and we simply re-post (duplicate-safe).
			lastT = dec.T
			actions = append(actions, dec.Action)
		}
		var fr feedbackResponse
		code := doJSON(t, "POST", base+"/v1/feedback", feedbackRequest{Items: []FeedbackItem{{
			Instance: id, T: dec.T, Action: dec.Action, Values: fbValues(dec.T, dec.Closure),
		}}}, &fr)
		if code != http.StatusAccepted {
			t.Fatalf("feedback round %d: status %d", dec.T, code)
		}
	}
	// Settle: feedback is async-ingested, so wait for the final round to
	// close before the caller inspects stats or kills the server.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var stats struct {
			Instances []*InstanceStats `json:"instances"`
		}
		doJSON(t, "GET", base+"/v1/stats", nil, &stats)
		for _, in := range stats.Instances {
			if in.ID == id && in.Round >= lastT {
				return actions
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("round %d feedback never ingested", lastT)
		}
		time.Sleep(time.Millisecond)
	}
}

// offlineActions derives the reference action sequence for a spec by
// driving a fresh runner directly with the same deterministic feedback.
func offlineActions(t *testing.T, spec Spec, n int) []int {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	run, err := spec.build()
	if err != nil {
		t.Fatal(err)
	}
	actions := make([]int, 0, n)
	for i := 0; i < n; i++ {
		rt, action, err := run.Decide()
		if err != nil {
			t.Fatal(err)
		}
		actions = append(actions, action)
		closure, err := run.PendingClosure()
		if err != nil {
			t.Fatal(err)
		}
		if spec.Feedback == FeedbackEnv {
			if _, err := run.AutoFeedback(); err != nil {
				t.Fatal(err)
			}
		} else if err := run.ApplyFeedback(fbValues(rt, closure)); err != nil {
			t.Fatal(err)
		}
	}
	return actions
}

func TestServeLifecycleHTTP(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, dir)
	defer s.Close()

	spec := testSpec("tenant-a", FeedbackClient)
	var st InstanceStats
	if code := doJSON(t, "POST", ts.URL+"/v1/instances", spec, &st); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if st.ID != "tenant-a" || st.Round != 0 {
		t.Fatalf("create stats: %+v", st)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/instances", spec, nil); code != http.StatusConflict {
		t.Fatalf("duplicate create not 409")
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/decide", decideRequest{Instance: "nope"}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown instance decide not 404")
	}

	envSpec := testSpec("shadow-b", FeedbackEnv)
	envSpec.Seed = 97
	if code := doJSON(t, "POST", ts.URL+"/v1/instances", envSpec, nil); code != http.StatusCreated {
		t.Fatalf("create env instance failed")
	}

	// Client mode over the wire matches the offline derivation.
	got := driveHTTP(t, ts.URL, "tenant-a", 30)
	want := offlineActions(t, testSpec("tenant-a", FeedbackClient), 30)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("served action[%d]=%d, offline derivation says %d", i, got[i], want[i])
		}
	}

	// Env mode closes rounds immediately and returns the sampled values.
	var dec Decision
	for i := 0; i < 10; i++ {
		if code := doJSON(t, "POST", ts.URL+"/v1/decide", decideRequest{Instance: "shadow-b"}, &dec); code != http.StatusOK {
			t.Fatalf("env decide: status %d", code)
		}
		if dec.Open || len(dec.Values) != len(dec.Closure) {
			t.Fatalf("env decide round %d: open=%v values=%d closure=%d", dec.T, dec.Open, len(dec.Values), len(dec.Closure))
		}
	}

	// Stats and metrics expose the serve surface.
	var stats struct {
		Decisions int64            `json:"decisions_total"`
		Instances []*InstanceStats `json:"instances"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if len(stats.Instances) != 2 || stats.Decisions == 0 {
		t.Fatalf("stats: %+v", stats)
	}
	for _, in := range stats.Instances {
		if in.ID == "tenant-a" && (in.Round != 30 || in.FeedbackApplied != 30) {
			t.Fatalf("tenant-a stats: %+v", in)
		}
		if in.ID == "shadow-b" && in.Round != 10 {
			t.Fatalf("shadow-b stats: %+v", in)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		"nbandit_serve_decisions_total",
		"nbandit_serve_feedback_total",
		"nbandit_serve_feedback_lag_seconds",
		"nbandit_serve_decide_seconds",
		"nbandit_serve_instances 2",
		`nbandit_serve_instance_rounds{instance="tenant-a"}`,
		"nbandit_serve_feedback_queue_depth",
	} {
		if !strings.Contains(string(prom), series) {
			t.Fatalf("/metrics missing %q", series)
		}
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Graceful shutdown leaves a directory the offline auditor accepts.
	results, err := VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || !results[0].SnapshotChecked {
		t.Fatalf("verify results: %+v", results)
	}
}

// TestRestartReplayAudit is the replay-audit e2e: serve rounds over
// HTTP, crash the server (no graceful shutdown), restart over the same
// directory, and prove the instance resumes bit-identically — the
// continued sequence equals an uninterrupted offline run, in both
// feedback modes.
func TestRestartReplayAudit(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, dir)

	spec := testSpec("tenant-a", FeedbackClient)
	if code := doJSON(t, "POST", ts.URL+"/v1/instances", spec, nil); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	envSpec := testSpec("shadow-b", FeedbackEnv)
	envSpec.Seed = 97
	if code := doJSON(t, "POST", ts.URL+"/v1/instances", envSpec, nil); code != http.StatusCreated {
		t.Fatal("create failed")
	}

	const before, after = 25, 20
	firstHalf := driveHTTP(t, ts.URL, "tenant-a", before)
	envFirst := make([]Decision, before)
	for i := range envFirst {
		doJSON(t, "POST", ts.URL+"/v1/decide", decideRequest{Instance: "shadow-b"}, &envFirst[i])
	}

	s.Kill()
	ts.Close()

	// The crashed directory already passes the offline audit.
	if _, err := VerifyDir(dir); err != nil {
		t.Fatalf("verify after crash: %v", err)
	}

	s2, ts2 := newTestServer(t, dir)
	defer s2.Close()
	for _, st := range s2.Stats() {
		if st.ID == "tenant-a" && st.Round != before {
			t.Fatalf("restored tenant-a at round %d, want %d", st.Round, before)
		}
	}

	secondHalf := driveHTTP(t, ts2.URL, "tenant-a", after)
	envSecond := make([]Decision, after)
	for i := range envSecond {
		doJSON(t, "POST", ts2.URL+"/v1/decide", decideRequest{Instance: "shadow-b"}, &envSecond[i])
	}

	want := offlineActions(t, testSpec("tenant-a", FeedbackClient), before+after)
	got := append(append([]int(nil), firstHalf...), secondHalf...)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("action[%d]: served %d across restart, offline says %d", i, got[i], want[i])
		}
	}

	// Env mode: values served after restart must be the exact samples an
	// uninterrupted run would have produced.
	ref := envSpec
	if err := ref.Normalize(); err != nil {
		t.Fatal(err)
	}
	run, err := ref.build()
	if err != nil {
		t.Fatal(err)
	}
	all := append(envFirst, envSecond...)
	for i, dec := range all {
		rt, action, err := run.Decide()
		if err != nil {
			t.Fatal(err)
		}
		obsv, err := run.AutoFeedback()
		if err != nil {
			t.Fatal(err)
		}
		if rt != dec.T || action != dec.Action {
			t.Fatalf("env round %d: served (t=%d,a=%d), offline (t=%d,a=%d)", i, dec.T, dec.Action, rt, action)
		}
		for j, o := range obsv {
			if math.Float64bits(o.Value) != math.Float64bits(dec.Values[j]) {
				t.Fatalf("env round %d value %d: served %v, offline %v", dec.T, j, dec.Values[j], o.Value)
			}
		}
	}

	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDir(dir); err != nil {
		t.Fatalf("final verify: %v", err)
	}
}

// TestCrashConsistencyEveryOffset truncates the decision log at every
// byte offset after a crash and requires the server to either refuse to
// start or recover to a consistent round from which the continued
// sequence still re-derives the offline reference.
func TestCrashConsistencyEveryOffset(t *testing.T) {
	dir := t.TempDir()
	// No cadence snapshots: recovery must come from the log alone, so
	// every truncation point must be recoverable, not refusable.
	s, err := New(Options{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{ID: "crashy", Seed: 5, Scenario: "csr", Policy: "dfl",
		K: 8, M: 2, P: 0.4, Horizon: 300, Points: 10, Feedback: FeedbackEnv}
	if _, err := s.CreateInstance(spec); err != nil {
		t.Fatal(err)
	}
	const rounds = 10
	for i := 0; i < rounds; i++ {
		if _, err := s.Decide("crashy"); err != nil {
			t.Fatal(err)
		}
	}
	s.Kill()

	logPath := filepath.Join(dir, "instances", "crashy", LogName)
	clean, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	headerEnd := bytes.IndexByte(clean, '\n')
	want := offlineActions(t, spec, rounds)

	for n := headerEnd; n <= len(clean); n++ {
		if err := os.WriteFile(logPath, clean[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := New(Options{Dir: dir, SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("truncation at %d refused: %v", n, err)
		}
		st := s2.Stats()[0]
		if st.Round > rounds {
			t.Fatalf("truncation at %d: impossible round %d", n, st.Round)
		}
		// Continue to the full horizon of the test and re-check the
		// whole sequence against the reference.
		replayed := st.Round
		for replayed < rounds {
			dec, err := s2.Decide("crashy")
			if err != nil {
				t.Fatalf("truncation at %d: decide after recovery: %v", n, err)
			}
			if dec.Action != want[replayed] {
				t.Fatalf("truncation at %d: round %d action %d, reference %d", n, dec.T, dec.Action, want[replayed])
			}
			replayed++
		}
		s2.Kill()
	}

	// Corruption strictly inside an intact middle record must refuse.
	mut := append([]byte(nil), clean...)
	mut[headerEnd+10] ^= 0x01
	if err := os.WriteFile(logPath, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Dir: dir, SnapshotEvery: -1}); err == nil {
		t.Fatal("mid-log corruption accepted")
	}
}

// TestSnapshotDivergenceRefused plants a snapshot from a different
// history and requires restore to refuse rather than serve silently
// diverged state.
func TestSnapshotDivergenceRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec("tenant-a", FeedbackEnv)
	if _, err := s.CreateInstance(spec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := s.Decide("tenant-a"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	snapPath := filepath.Join(dir, "instances", "tenant-a", SnapshotName)
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	for name, mm := range snap.State.Metrics {
		mm.Mean[len(mm.Mean)-1] += 0.125
		snap.State.Metrics[name] = mm
		break
	}
	if err := os.WriteFile(snapPath, mustJSON(&snap), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Dir: dir, SnapshotEvery: 4}); err == nil ||
		!strings.Contains(err.Error(), "diverged") {
		t.Fatalf("tampered snapshot: err=%v, want divergence refusal", err)
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []Spec{
		{Seed: 1, Scenario: "sso", Policy: "dfl", K: 4},                                 // no id
		{ID: "a/b", Seed: 1, Scenario: "sso", Policy: "dfl", K: 4},                      // bad id
		{ID: "x", Seed: 1, Scenario: "nope", Policy: "dfl", K: 4},                       // bad scenario
		{ID: "x", Seed: 1, Scenario: "sso", Policy: "nope", K: 4},                       // bad policy
		{ID: "x", Seed: 1, Scenario: "sso", Policy: "dfl", K: 0},                        // bad k
		{ID: "x", Seed: 1, Scenario: "cso", Policy: "cucb", K: 4, M: 9},                 // m > k
		{ID: "x", Seed: 1, Scenario: "sso", Policy: "dfl", K: 4, Graph: "nope"},         // bad graph
		{ID: "x", Seed: 1, Scenario: "sso", Policy: "dfl", K: 4, Feedback: "telepathy"}, // bad feedback
		{ID: "x", Seed: 1, Scenario: "sso", Policy: "exp3f", K: 4},                      // combo-only policy
		{ID: "x", Seed: 1, Scenario: "cso", Policy: "moss", K: 4},                       // single-only policy
		{ID: "x", Seed: 1, Scenario: "sso", Policy: "dfl", K: 4, Horizon: -1},           // bad horizon
	}
	for i, c := range cases {
		if err := c.Normalize(); err == nil {
			t.Errorf("case %d (%+v): invalid spec accepted", i, c)
		}
	}

	good := Spec{ID: "ok", Seed: 1, Scenario: "SSO", Policy: "dfl", K: 4}
	if err := good.Normalize(); err != nil {
		t.Fatal(err)
	}
	if good.Scenario != "sso" || good.Feedback != FeedbackClient || good.Horizon != DefaultHorizon {
		t.Fatalf("defaults not applied: %+v", good)
	}
	h := good.Hash()
	again := Spec{ID: "ok", Seed: 1, Scenario: "sso", Policy: "dfl", K: 4,
		Graph: "gnp", M: 2, P: 0.3, Horizon: DefaultHorizon, Points: DefaultPoints, Feedback: FeedbackClient}
	if err := again.Normalize(); err != nil {
		t.Fatal(err)
	}
	if again.Hash() != h {
		t.Fatal("explicit defaults hash differently from implied defaults")
	}
}

func TestHorizonExhaustion(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, dir)
	defer s.Close()
	spec := Spec{ID: "tiny", Seed: 3, Scenario: "sso", Policy: "ucb1",
		K: 4, Horizon: 3, Points: 3, Feedback: FeedbackEnv}
	if code := doJSON(t, "POST", ts.URL+"/v1/instances", spec, nil); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	for i := 0; i < 3; i++ {
		if code := doJSON(t, "POST", ts.URL+"/v1/decide", decideRequest{Instance: "tiny"}, nil); code != http.StatusOK {
			t.Fatalf("decide %d failed", i)
		}
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/decide", decideRequest{Instance: "tiny"}, nil); code != http.StatusConflict {
		t.Fatal("decide past horizon not 409")
	}
	var st InstanceStats
	for _, in := range s.Stats() {
		if in.ID == "tiny" {
			st = *in
		}
	}
	if !st.Done || st.Round != 3 {
		t.Fatalf("exhausted instance stats: %+v", st)
	}
}

func ExampleSpec() {
	spec := Spec{ID: "demo", Seed: 7, Scenario: "sso", Policy: "dfl", K: 16}
	if err := spec.Normalize(); err != nil {
		panic(err)
	}
	fmt.Println(spec.Scenario, spec.Feedback, spec.Horizon)
	// Output: sso client 1000000
}
