// Command nbbench is netbandit's repository benchmark. It drives the
// program only through public entry points — the netbandit facade and a
// real `nbandit serve` process over loopback HTTP — and reports, for one
// named workload, either the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run, -trace 1).
//
// Run it from the repository root through the launcher, which builds both
// binaries into .bench_build first:
//
//	bash nbbench/run.sh --workload sweep-paper --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed correctness gate prints
// the reason to standard error and exits 1 without a result line. See
// nbbench/README.md for the workloads, every metric and the layer map.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Workload names. Later changes cite them; do not rename.
const (
	wlSweep  = "sweep-paper"
	wlEnv    = "serve-env"
	wlClient = "serve-client"
)

// Every untraced run reports exactly these end-to-end metrics, and every
// traced run exactly the per-layer names that layerNames lists.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"work_per_s", "1/s"},
	{"p50_ms", "ms"},
}

// options is everything one benchmark run needs.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	nbandit  string // path of the nbandit binary for serve workloads
	workDir  string // scratch space for data dirs, inside the checkout
	sizes    sizes
	digests  digestBook
	out      io.Writer // human-readable lines
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics, operation counts and detail lines.
type report struct {
	metrics   map[string]metric
	samples   map[string]int // sample counts printed beside percentiles
	attempted int64
	failed    int64
	details   []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int{}}
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// setN records a percentile-style metric with its sample count.
func (r *report) setN(name string, v float64, unit string, n int) {
	r.set(name, v, unit)
	r.samples[name] = n
}

func (r *report) detail(format string, a ...any) {
	r.details = append(r.details, fmt.Sprintf(format, a...))
}

// ops adds operation counts to the error-rate tally.
func (r *report) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// gateError is a failed correctness gate: the run reports no numbers.
type gateError struct{ msg string }

func (e *gateError) Error() string { return "correctness gate failed: " + e.msg }

func gatef(format string, a ...any) error { return &gateError{fmt.Sprintf(format, a...)} }

func main() {
	var o options
	var traceFlag int
	var seed uint64
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join([]string{wlSweep, wlEnv, wlClient}, "|"))
	flag.Uint64Var(&seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long the timed phase measures")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.nbandit, "nbandit", "", "path of the nbandit binary (serve workloads)")
	printDigests := flag.Bool("print-digests", false, "compute the golden digests, print them as JSON and exit")
	flag.Parse()
	o.seed = seed
	o.trace = traceFlag == 1
	o.workDir = filepath.Join(".bench_build", "work")
	o.sizes = defaultSizes()
	o.out = os.Stdout
	if traceFlag != 0 && traceFlag != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	if o.seconds <= 0 {
		fail(fmt.Errorf("-seconds must be positive"))
	}
	book, err := readDigests(filepath.Join("nbbench", "digests.json"))
	if err != nil {
		fail(err)
	}
	o.digests = book
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fail(err)
	}
	if *printDigests {
		if err := recordDigests(&o, os.Stdout); err != nil {
			fail(err)
		}
		return
	}
	rep, err := run(&o)
	if err != nil {
		fail(err)
	}
	if err := emit(&o, rep); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "nbbench:", err)
	os.Exit(1)
}

// run dispatches one workload, untraced or traced.
func run(o *options) (*report, error) {
	switch o.workload {
	case wlSweep, wlEnv, wlClient:
	default:
		return nil, fmt.Errorf("unknown -workload %q (want %s|%s|%s)", o.workload, wlSweep, wlEnv, wlClient)
	}
	if o.workload != wlSweep || o.trace {
		if o.nbandit == "" {
			return nil, fmt.Errorf("-nbandit is required for this run")
		}
		if _, err := os.Stat(o.nbandit); err != nil {
			return nil, fmt.Errorf("nbandit binary: %w", err)
		}
	}
	if o.trace {
		return runTraced(o)
	}
	switch o.workload {
	case wlSweep:
		return runSweepPaper(o)
	case wlEnv:
		return runServeEnv(o)
	default:
		return runServeClient(o)
	}
}

// emit prints host metadata, one line per metric with its unit (and the
// sample count beside each percentile), the detail lines, and finally the
// single-line JSON result.
func emit(o *options, r *report) error {
	want := layerNames()
	if !o.trace {
		want = want[:0]
		for _, m := range endToEnd {
			want = append(want, m.name)
		}
	}
	for _, name := range want {
		if _, ok := r.metrics[name]; !ok {
			return fmt.Errorf("internal: metric %s not measured", name)
		}
	}
	if len(r.metrics) != len(want) {
		var extra []string
		for name := range r.metrics {
			extra = append(extra, name)
		}
		sort.Strings(extra)
		return fmt.Errorf("internal: %d metrics measured, %d declared: %v", len(r.metrics), len(want), extra)
	}
	meta, err := json.Marshal(hostMeta(o))
	if err != nil {
		return err
	}
	fmt.Fprintf(o.out, "meta %s\n", meta)
	for _, line := range r.details {
		fmt.Fprintln(o.out, line)
	}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.metrics[name]
		if n, ok := r.samples[name]; ok {
			fmt.Fprintf(o.out, "metric %-40s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, n)
		} else {
			fmt.Fprintf(o.out, "metric %-40s %14.6g %s\n", name, m.Value, m.Unit)
		}
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(o.out, "error_rate %.6g (%d failed of %d attempted)\n", errRate, r.failed, r.attempted)
	if r.attempted < 1 {
		return errors.New("internal: no operations attempted")
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(o.out, string(out))
	return nil
}

// hostMeta stamps a result with what it was measured on.
func hostMeta(o *options) map[string]any {
	return map[string]any{
		"workload":          o.workload,
		"seed":              o.seed,
		"seconds":           o.seconds,
		"trace":             o.trace,
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"go":                runtime.Version(),
		"cpu":               cpuModel(),
		"git_rev":           gitRev(),
		"client_rate_per_s": o.sizes.clientRate,
		"time_utc":          time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev reads the checked-out commit from .git without running git; an
// exported tree has no .git and reports "none".
func gitRev() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if rev, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(rev))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
				return rev
			}
		}
	}
	return "unknown"
}

// peakRSSMB returns VmHWM of a process (pid 0 = this one) in MB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// recordDigests computes the golden digests for the book's golden seed —
// for a change that alters outputs on purpose — and prints the book.
func recordDigests(o *options, w io.Writer) error {
	book, err := computeDigests(o)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(book, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// computeDigests runs the golden sweep pass and one golden env trial.
func computeDigests(o *options) (digestBook, error) {
	book := digestBook{GoldenSeed: o.digests.GoldenSeed}
	sweep, err := goldenSweepDigest(context.Background(), o)
	if err != nil {
		return book, err
	}
	book.Sweep = sweep
	tr, err := envTrial(o, book.GoldenSeed)
	if err != nil {
		return book, err
	}
	book.Env = tr.digests
	return book, nil
}
