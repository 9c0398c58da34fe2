package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"netbandit/internal/bandit"
)

func event(t, chosen int) Event {
	return Event{
		T: t, Chosen: chosen, ChosenMean: 0.5, Realized: 1,
		Observations: []bandit.Observation{{Arm: chosen, Value: 1}},
	}
}

func TestRecorderUnbounded(t *testing.T) {
	var r Recorder
	for i := 1; i <= 10; i++ {
		r.ObserveRound(event(i, i%3))
	}
	if r.Total() != 10 || len(r.Events()) != 10 {
		t.Fatalf("total=%d retained=%d", r.Total(), len(r.Events()))
	}
}

func TestRecorderRing(t *testing.T) {
	r := Recorder{Capacity: 3}
	for i := 1; i <= 5; i++ {
		r.ObserveRound(event(i, 0))
	}
	events := r.Events()
	if len(events) != 3 {
		t.Fatalf("retained %d events", len(events))
	}
	if events[0].T != 3 || events[2].T != 5 {
		t.Fatalf("ring kept wrong events: %+v", events)
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d", r.Total())
	}
}

func TestRecorderCopiesObservations(t *testing.T) {
	var r Recorder
	obs := []bandit.Observation{{Arm: 1, Value: 0.5}}
	r.ObserveRound(Event{T: 1, Observations: obs})
	obs[0].Value = 99 // runner reuses the slice; recorder must have copied
	if got := r.Events()[0].Observations[0].Value; got != 0.5 {
		t.Fatalf("recorder aliased the observation slice: %v", got)
	}
}

func TestRecorderPlayCounts(t *testing.T) {
	var r Recorder
	for _, c := range []int{0, 2, 2, 1, 2} {
		r.ObserveRound(event(1, c))
	}
	counts := r.PlayCounts()
	want := []int{1, 1, 3}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
	var empty Recorder
	if got := empty.PlayCounts(); len(got) != 0 {
		t.Fatalf("empty counts = %v", got)
	}
}

func TestJSONLWriter(t *testing.T) {
	var sb strings.Builder
	w := newJSONLWriter(&sb)
	w.ObserveRound(event(1, 4))
	w.ObserveRound(event(2, 5))
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil {
		t.Fatal(err)
	}
	if e.T != 2 || e.Chosen != 5 || len(e.Observations) != 1 {
		t.Fatalf("decoded %+v", e)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errFail }

var errFail = &failErr{}

type failErr struct{}

func (*failErr) Error() string { return "sink failed" }

func TestJSONLWriterError(t *testing.T) {
	w := newJSONLWriter(failWriter{})
	w.ObserveRound(event(1, 0))
	if w.Err() == nil {
		t.Fatal("write error swallowed")
	}
	// Subsequent rounds must not panic.
	w.ObserveRound(event(2, 0))
}

func TestMulti(t *testing.T) {
	var a, b Recorder
	m := multi{&a, &b}
	m.ObserveRound(event(1, 0))
	if a.Total() != 1 || b.Total() != 1 {
		t.Fatal("multi did not fan out")
	}
}
