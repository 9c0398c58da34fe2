package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"netbandit/internal/shard/transport"
)

// flakySpawn wraps a transport so its first failFirst spawns fail with a
// transient error — the refused-connection shape of failure.
type flakySpawn struct {
	transport.Transport
	failFirst int

	mu sync.Mutex
	n  int
}

func (f *flakySpawn) Spawn(ctx context.Context, slot int, spec transport.Spec) (transport.Worker, error) {
	f.mu.Lock()
	n := f.n
	f.n++
	f.mu.Unlock()
	if n < f.failFirst {
		return nil, fmt.Errorf("flaky: connection refused (spawn %d)", n)
	}
	return f.Transport.Spawn(ctx, slot, spec)
}

// fatalTransport refuses every spawn with a fatal (configuration) error.
type fatalTransport struct{ transport.Transport }

func (f *fatalTransport) Spawn(ctx context.Context, slot int, spec transport.Spec) (transport.Worker, error) {
	return nil, transport.FatalSpawn(fmt.Errorf("broken config"))
}

// TestTransientSpawnFailureRetriesWithoutBurningCellRetries: refused
// spawns re-queue the batch, back the slot off, and do NOT count against
// per-cell MaxRetries — with MaxRetries=1, three refusals would otherwise
// abort the run.
func TestTransientSpawnFailureRetriesWithoutBurningCellRetries(t *testing.T) {
	golden := singleProcessGolden(t)
	c, tr, log := stealFixture(t, 2)
	c.Transport = &flakySpawn{Transport: tr, failFirst: 3}
	c.MaxRetries = 1
	c.BackoffBase = 5 * time.Millisecond
	stats, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("run failed despite transient-only spawn errors: %v\n%s", err, log.String())
	}
	if stats.SpawnFailures != 3 {
		t.Fatalf("SpawnFailures = %d, want 3", stats.SpawnFailures)
	}
	if stats.Backoffs == 0 {
		t.Fatal("spawn failures earned no backoff")
	}
	if !strings.Contains(log.String(), "backing off") {
		t.Fatalf("backoff not logged:\n%s", log.String())
	}
	if stats.Requeued != 0 {
		t.Fatalf("Requeued = %d: spawn failures must not count as worker-exit requeues", stats.Requeued)
	}
	mergedEqualsGolden(t, c.Dir, c.Plan, golden)
}

// TestFatalSpawnErrorAbortsRun: a configuration error (FatalSpawn) aborts
// immediately instead of cycling through backoff and quarantine.
func TestFatalSpawnErrorAbortsRun(t *testing.T) {
	c, tr, _ := stealFixture(t, 1)
	c.Transport = &fatalTransport{Transport: tr}
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "broken config") {
			t.Fatalf("want fast abort with the config error, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fatal spawn error did not abort the run")
	}
}

// TestWorkerCrashBacksOffSlot: a worker that exits with unfinished cells
// costs its slot a backoff, and the run still completes byte-identically.
func TestWorkerCrashBacksOffSlot(t *testing.T) {
	golden := singleProcessGolden(t)
	c, _, log := stealFixture(t, 2, crashWorker(0))
	c.BackoffBase = 5 * time.Millisecond
	stats, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("run failed: %v\n%s", err, log.String())
	}
	if stats.Backoffs == 0 {
		t.Fatal("crashed worker earned no backoff")
	}
	mergedEqualsGolden(t, c.Dir, c.Plan, golden)
}

// healthHarness fabricates a stealRun around a planned fixture so the
// state machine can be driven directly, without worker scheduling races.
func healthHarness(t *testing.T, slots int) (*stealRun, *StealCoordinator) {
	t.Helper()
	c, _, _ := stealFixture(t, slots)
	c.BackoffBase = 10 * time.Millisecond
	c.QuarantineAfter = 2
	c.QuarantinePeriod = 40 * time.Millisecond
	st := &stealRun{
		c:        c,
		slots:    slots,
		done:     map[int]bool{},
		attempts: map[int]int{},
		active:   map[int]*lease{},
		costs:    map[int]*slotCost{},
		health:   map[int]*slotHealth{},
		m:        newCoordMetrics(nil),
	}
	st.cond = sync.NewCond(&st.mu)
	st.ctx, st.cancel = context.WithCancel(context.Background())
	t.Cleanup(st.cancel)
	for i := range c.Plan.Cells {
		st.queue = append(st.queue, i)
	}
	st.left = len(st.queue)
	return st, c
}

// TestSlotHealthStateMachine walks one slot through the whole machine:
// backoff on early failures, quarantine at the threshold, probe on
// expiry, re-quarantine on probe failure, dead after repeated cycles —
// and full forgiveness on success.
func TestSlotHealthStateMachine(t *testing.T) {
	st, c := healthHarness(t, 2)
	st.mu.Lock()
	defer st.mu.Unlock()

	boom := fmt.Errorf("boom")
	st.slotFailureLocked(0, boom)
	if h := st.health[0]; h.state != slotBackoff || h.consec != 1 {
		t.Fatalf("after 1 failure: %+v, want backoff/1", h)
	}
	if d := c.backoffDelay(0, 1); d < c.backoffBase() || d > c.backoffBase()+c.backoffBase()/2 {
		t.Fatalf("backoffDelay(1) = %v, want base plus at most half-base jitter", d)
	}
	if c.backoffDelay(0, 1) != c.backoffDelay(0, 1) {
		t.Fatal("backoff jitter is not deterministic")
	}
	if c.backoffDelay(0, 10) > c.backoffMax()+c.backoffBase() {
		t.Fatalf("backoffDelay(10) = %v exceeds the cap", c.backoffDelay(0, 10))
	}

	st.slotFailureLocked(0, boom)
	h := st.health[0]
	if h.state != slotQuarantined || h.quarantines != 1 {
		t.Fatalf("after QuarantineAfter failures: %+v, want quarantined/1 cycle", h)
	}
	if st.degraded {
		t.Fatal("one quarantined slot of two must not trip degraded mode")
	}

	// Quarantine served: take must convert it into a 1-cell probe lease.
	h.until = c.clock().Add(-time.Millisecond)
	st.mu.Unlock()
	l := st.take(0)
	st.mu.Lock()
	if l == nil || len(l.batch) != 1 {
		t.Fatalf("expired quarantine granted %+v, want a 1-cell probe", l)
	}
	if st.health[0].state != slotProbing || st.stats.Probes != 1 {
		t.Fatalf("state %v probes %d, want probing/1", st.health[0].state, st.stats.Probes)
	}

	// Failed probe: back to quarantine with a second cycle.
	delete(st.active, l.id)
	st.requeueLocked(l.batch)
	st.slotFailureLocked(0, boom)
	if h := st.health[0]; h.state != slotQuarantined || h.quarantines != 2 {
		t.Fatalf("failed probe: %+v, want quarantined/2 cycles", h)
	}

	// Two more failed probe cycles kill the slot.
	for i := 0; i < 2; i++ {
		st.health[0].state = slotProbing
		st.slotFailureLocked(0, boom)
	}
	if h := st.health[0]; h.state != slotDead {
		t.Fatalf("after %d failed probe cycles: %+v, want dead", deadAfterQuarantines, h)
	}

	// A dead slot's take returns nil without work.
	st.mu.Unlock()
	if l := st.take(0); l != nil {
		t.Fatalf("dead slot was granted lease %+v", l)
	}
	st.mu.Lock()

	// Success on the healthy slot forgives everything.
	st.slotFailureLocked(1, boom)
	st.slotSuccessLocked(1)
	if h := st.health[1]; h.state != slotOK || h.consec != 0 || h.quarantines != 0 {
		t.Fatalf("success did not reset slot 1: %+v", h)
	}
}

// TestDegradedModeCompletesInProcess: one slot whose workers always crash
// drives the coordinator into quarantine; with a Fallback sweep the run
// finishes the cells in-process and the merge is still byte-identical.
func TestDegradedModeCompletesInProcess(t *testing.T) {
	golden := singleProcessGolden(t)
	crashes := make([]stubBehavior, 8)
	for i := range crashes {
		crashes[i] = crashWorker(0)
	}
	c, _, log := stealFixture(t, 1, crashes...)
	c.BackoffBase = 5 * time.Millisecond
	c.QuarantineAfter = 2
	c.MaxRetries = 100 // the cells are innocent; let slot health decide
	c.Fallback = testSweep()
	stats, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("degraded run failed: %v\n%s", err, log.String())
	}
	if stats.DegradedCells != len(c.Plan.Cells) {
		t.Fatalf("DegradedCells = %d, want %d (all cells finished in-process)", stats.DegradedCells, len(c.Plan.Cells))
	}
	if stats.Quarantines == 0 {
		t.Fatal("crash-only slot never quarantined")
	}
	if !strings.Contains(log.String(), "degraded mode") {
		t.Fatalf("degraded transition not logged:\n%s", log.String())
	}
	mergedEqualsGolden(t, c.Dir, c.Plan, golden)

	// The persisted snapshot records the degraded completion and retries.
	ls, _, err := ReadLeaseStateRetry(c.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if ls.DegradedCells != stats.DegradedCells {
		t.Fatalf("leases.json DegradedCells = %d, want %d", ls.DegradedCells, stats.DegradedCells)
	}
	if len(ls.Retries) == 0 {
		t.Fatal("leases.json has no per-cell retry counts after repeated crashes")
	}
}

// TestDegradedModeWithoutFallbackAborts: the same dead-end without a
// Fallback ends in an explicit error naming the stranded cells — never a
// hang.
func TestDegradedModeWithoutFallbackAborts(t *testing.T) {
	crashes := make([]stubBehavior, 8)
	for i := range crashes {
		crashes[i] = crashWorker(0)
	}
	c, _, _ := stealFixture(t, 1, crashes...)
	c.BackoffBase = 5 * time.Millisecond
	c.QuarantineAfter = 2
	c.MaxRetries = 100
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "dead or quarantined") {
			t.Fatalf("want explicit degraded abort, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("degraded dead-end hung instead of aborting")
	}
}

// TestLeaseStateOldSchemaStillParses: a leases.json written before the
// resilience fields existed must load cleanly with zero values — the
// compat contract for `shard status` across versions.
func TestLeaseStateOldSchemaStillParses(t *testing.T) {
	dir := t.TempDir()
	old := map[string]any{
		"plan": "abc123", "time": time.Now().UTC(), "done": 3, "total": 6,
		"queued": 1, "leases": 4, "steals": 1,
		"active": []map[string]any{{
			"id": 2, "slot": "local#0", "cells": []int{4, 5}, "done": 1,
			"granted": time.Now().UTC(), "last_beat": time.Now().UTC(),
		}},
	}
	raw, err := json.MarshalIndent(old, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(LeaseStatePath(dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ls, _, err := ReadLeaseStateRetry(dir)
	if err != nil {
		t.Fatalf("old-schema leases.json no longer parses: %v", err)
	}
	if ls.Plan != "abc123" || ls.Done != 3 || len(ls.Active) != 1 {
		t.Fatalf("old fields mangled: %+v", ls)
	}
	if ls.Retries != nil || ls.Health != nil || ls.ChaosSeed != "" || ls.DegradedCells != 0 {
		t.Fatalf("new fields must zero-default on old files: %+v", ls)
	}
}

// TestLeaseStateHealthRoundTrip: the new snapshot fields survive a
// marshal/unmarshal cycle.
func TestLeaseStateHealthRoundTrip(t *testing.T) {
	dir := t.TempDir()
	when := time.Now().UTC().Truncate(time.Second)
	in := &LeaseState{
		Plan: "p", Time: when, Done: 1, Total: 6,
		Retries:       map[string]int{"p=0.2/DFL-SSO": 2},
		Health:        []SlotHealthInfo{{Slot: "ssh:h1", State: "quarantined", Failures: 3, Quarantines: 1, ReadmitAt: when.Add(time.Minute)}},
		ChaosSeed:     "17",
		DegradedCells: 2,
	}
	raw, err := json.MarshalIndent(in, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(LeaseStatePath(dir), append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err := ReadLeaseStateRetry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if out.Retries["p=0.2/DFL-SSO"] != 2 || len(out.Health) != 1 || out.ChaosSeed != "17" || out.DegradedCells != 2 {
		t.Fatalf("round trip lost resilience fields: %+v", out)
	}
	if h := out.Health[0]; h.State != "quarantined" || !h.ReadmitAt.Equal(when.Add(time.Minute)) {
		t.Fatalf("health entry mangled: %+v", h)
	}
}
