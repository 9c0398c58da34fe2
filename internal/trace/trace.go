// Package trace provides structured per-round tracing for simulation
// runs: an observer interface the runner invokes each round, an in-memory
// ring recorder for tests and debugging, and a JSON-lines writer for
// offline analysis of policy behaviour (which arm was played when, what
// was observed, how regret accrued).
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"netbandit/internal/bandit"
)

// Event is one simulation round as seen by an observer.
type Event struct {
	// T is the 1-based round number.
	T int `json:"t"`
	// Chosen is the played arm (single-play) or strategy index
	// (combinatorial play).
	Chosen int `json:"chosen"`
	// ChosenMean is the expected reward of the chosen action.
	ChosenMean float64 `json:"chosen_mean"`
	// Realized is the reward actually collected.
	Realized float64 `json:"realized"`
	// Observations lists every arm reward revealed this round.
	Observations []bandit.Observation `json:"observations,omitempty"`
}

// Observer receives one Event per simulated round. Implementations must
// not retain the Observations slice past the call; the runner reuses it.
type Observer interface {
	ObserveRound(e Event)
}

// Recorder keeps the last Capacity events in memory. The zero value is
// unbounded; set Capacity to bound memory. Recorder is safe for
// concurrent use so parallel replications may share one (though per-rep
// recorders are more useful).
type Recorder struct {
	// Capacity bounds the retained events; 0 means unbounded.
	Capacity int

	mu     sync.Mutex
	events []Event
	total  int
}

// ObserveRound implements Observer, deep-copying the observations.
func (r *Recorder) ObserveRound(e Event) {
	obs := make([]bandit.Observation, len(e.Observations))
	copy(obs, e.Observations)
	e.Observations = obs

	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if r.Capacity > 0 && len(r.events) == r.Capacity {
		copy(r.events, r.events[1:])
		r.events[len(r.events)-1] = e
		return
	}
	r.events = append(r.events, e)
}

// Events returns a copy of the retained events in arrival order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Total returns the number of events ever observed (retained or evicted).
func (r *Recorder) Total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// PlayCounts tallies how often each action index was chosen among the
// retained events; the slice is sized to the largest seen index + 1.
func (r *Recorder) PlayCounts() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	maxIdx := -1
	for _, e := range r.events {
		if e.Chosen > maxIdx {
			maxIdx = e.Chosen
		}
	}
	counts := make([]int, maxIdx+1)
	for _, e := range r.events {
		counts[e.Chosen]++
	}
	return counts
}

var _ Observer = (*Recorder)(nil)

// JSONLWriter streams one JSON object per round to an io.Writer. Errors
// are retained and reported by Err (an Observer cannot return errors
// mid-run without aborting the simulation API).
type JSONLWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// newJSONLWriter returns a writer emitting JSON lines to w.
func newJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{enc: json.NewEncoder(w)}
}

// ObserveRound implements Observer.
func (j *JSONLWriter) ObserveRound(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if err := j.enc.Encode(e); err != nil {
		j.err = fmt.Errorf("trace: encoding round %d: %w", e.T, err)
	}
}

// Err returns the first encoding error, if any.
func (j *JSONLWriter) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

var _ Observer = (*JSONLWriter)(nil)

// multi fans events out to several observers in order.
type multi []Observer

func (m multi) ObserveRound(e Event) {
	for _, o := range m {
		o.ObserveRound(e)
	}
}
