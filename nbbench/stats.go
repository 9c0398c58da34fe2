package main

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// sizes fixes how much work each workload does. The defaults are the
// benchmark; the self-test shrinks them.
type sizes struct {
	// cells lists the sweep-paper sub-sweeps, one per (part, policy).
	cells []cellPlan
	// setupReps is how many times set-up is repeated; its median is
	// setup_s.
	setupReps int
	// conns is the number of load connections (and sweep workers).
	conns int
	// envDecides is the number of decides one serve-env trial serves.
	envDecides int
	// clientCycles and clientRate fix one serve-client trial: that many
	// decide+feedback cycles, due at clientRate per second.
	clientCycles int
	clientRate   float64
	// minTrials is the least number of timed trials (or sweep passes) a
	// run makes, however short -seconds is.
	minTrials int
	// traceTrials is the number of untraced+traced pairs each traced run
	// makes per workload.
	traceTrials int
	// inprocDecides is the number of in-process decides the serve layer
	// probe times.
	inprocDecides int
}

// cellPlan is one sweep-paper sub-sweep: one part, one policy.
type cellPlan struct {
	part    string
	policy  string
	horizon int
	reps    int // replications per environment axis point
}

func defaultSizes() sizes {
	n := runtime.NumCPU()
	if n < 1 {
		n = 1
	}
	return sizes{
		cells:         paperCells,
		setupReps:     11,
		conns:         n,
		envDecides:    12000,
		clientCycles:  3000,
		clientRate:    1000,
		minTrials:     3,
		traceTrials:   5,
		inprocDecides: 20000,
	}
}

// durations collects latency samples.
type durations []time.Duration

// quantile returns the q-quantile by the nearest-rank rule on a sorted
// copy; 0 for an empty set.
func (d durations) quantile(q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append(durations(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of a float slice; 0 for an empty one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// digestBook holds the recorded golden digests: outputs of a fixed seed
// that any correct build reproduces byte for byte.
type digestBook struct {
	// GoldenSeed is the seed of the golden (warm-up) pass.
	GoldenSeed uint64 `json:"golden_seed"`
	// Sweep is the SHA-256 of the sweep-paper canonical JSON exports.
	Sweep string `json:"sweep-paper"`
	// Env maps each serve-env instance to the SHA-256 of its (t, action)
	// sequence over one trial.
	Env map[string]string `json:"serve-env"`
}

func readDigests(path string) (digestBook, error) {
	var b digestBook
	raw, err := os.ReadFile(path)
	if err != nil {
		return b, fmt.Errorf("golden digests: %w", err)
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("golden digests %s: %w", path, err)
	}
	return b, nil
}

func hexSum(h interface{ Sum([]byte) []byte }) string { return hex.EncodeToString(h.Sum(nil)) }
