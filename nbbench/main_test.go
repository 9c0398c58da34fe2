package main

// Smoke self-test: every workload at tiny size, untraced and traced, must
// emit exactly its declared metrics; a corrupted golden digest and a
// tampered decision log must each trip a gate. Run from this directory:
//
//	go test .

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"

	"netbandit"
)

// tinySizes shrinks every workload to a few milliseconds of work.
func tinySizes() sizes {
	var cells []cellPlan
	for _, c := range paperCells {
		c.horizon, c.reps = 60, 1
		cells = append(cells, c)
	}
	return sizes{
		cells:         cells,
		setupReps:     1,
		conns:         2,
		envDecides:    40,
		clientCycles:  40,
		clientRate:    2000,
		minTrials:     1,
		traceTrials:   1,
		inprocDecides: 40,
	}
}

// tinyOptions builds the nbandit binary once per test and returns options
// for a tiny run whose golden digests were just computed.
func tinyOptions(t *testing.T) *options {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "nbandit")
	if out, err := exec.Command("go", "build", "-o", bin, "netbandit/cmd/nbandit").CombinedOutput(); err != nil {
		t.Fatalf("build nbandit: %v\n%s", err, out)
	}
	o := &options{
		seed: 3, seconds: 0.01, nbandit: bin, workDir: dir, sizes: tinySizes(),
		digests: digestBook{GoldenSeed: 20170605},
	}
	book, err := computeDigests(o)
	if err != nil {
		t.Fatal(err)
	}
	o.digests = book
	return o
}

// result parses the JSON line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runTiny(t *testing.T, o *options) result {
	t.Helper()
	var out bytes.Buffer
	o.out = &out
	rep, err := run(o)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", o.workload, o.trace, err)
	}
	if err := emit(o, rep); err != nil {
		t.Fatalf("%s trace=%v: %v", o.workload, o.trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	return res
}

func TestEveryWorkloadEmitsItsMetrics(t *testing.T) {
	o := tinyOptions(t)
	var e2e []string
	for _, m := range endToEnd {
		e2e = append(e2e, m.name)
	}
	sort.Strings(e2e)
	layers := layerNames()
	sort.Strings(layers)
	for _, wl := range []string{wlSweep, wlEnv, wlClient} {
		for _, traced := range []bool{false, true} {
			o.workload, o.trace = wl, traced
			res := runTiny(t, o)
			want := e2e
			if traced {
				want = layers
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if len(got) != len(want) {
				t.Fatalf("%s trace=%v: metrics %v, want %v", wl, traced, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s trace=%v: metrics %v, want %v", wl, traced, got, want)
				}
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", wl, traced, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}

func TestCorruptedDigestTripsGate(t *testing.T) {
	o := tinyOptions(t)
	good := o.digests
	o.digests.Sweep = "00" + good.Sweep[2:]
	o.workload = wlSweep
	if _, err := run(o); !isGate(err) {
		t.Fatalf("sweep-paper with a corrupted digest: err = %v, want a gate failure", err)
	}
	o.digests = good
	o.digests.Env = map[string]string{}
	for id, d := range good.Env {
		o.digests.Env[id] = d
	}
	o.digests.Env["ssr"] = "00" + good.Env["ssr"][2:]
	o.workload = wlEnv
	if _, err := run(o); !isGate(err) {
		t.Fatalf("serve-env with a corrupted digest: err = %v, want a gate failure", err)
	}
}

func TestTamperedLogTripsGate(t *testing.T) {
	dir := t.TempDir()
	srv, err := netbandit.NewDecisionServer(netbandit.ServeOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range mixSpecs(5, "env") {
		if _, err := srv.CreateInstance(spec); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if _, err := srv.Decide(spec.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := verifyDir(dir); err != nil {
		t.Fatalf("untampered dir: %v", err)
	}
	log := filepath.Join(dir, "instances", "ssr", "log.jsonl")
	raw, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	// Change one action digit in the middle of the log.
	i := bytes.Index(raw[len(raw)/2:], []byte(`"action":`)) + len(raw)/2 + len(`"action":`)
	raw[i] = '0' + (raw[i]-'0'+1)%10
	if err := os.WriteFile(log, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := verifyDir(dir); !isGate(err) {
		t.Fatalf("tampered log: err = %v, want a gate failure", err)
	}
}

func isGate(err error) bool {
	var g *gateError
	return errors.As(err, &g)
}
