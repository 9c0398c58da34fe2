package shard

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netbandit/internal/shard/transport"
	"netbandit/internal/sim"
)

// The steal-coordinator tests drive the real lease/steal/settle machinery
// against an in-process stub transport whose "workers" execute leases via
// the real shard.Run, with scripted failure modes:
//
//   - freezeAtRep: stop heartbeating and block mid-replication, before any
//     record of the current cell lands — the SIGSTOP straggler. Only a
//     steal (Kill) unwedges it.
//   - crashAtRep: die mid-replication — a worker crash that leaves its
//     lease's cells without records.
//   - crashAfterCells: die right after the Nth cell record became durable
//     but before its heartbeat line went out — the lost-event window the
//     settle-time disk re-scan exists for.
//   - wrongPlan: advertise a different plan hash at start.
//
// The process-level plumbing (exec, pipes, SIGKILL on stopped processes)
// is covered by the transport package's own tests and the CI e2e job that
// SIGSTOPs a real worker.

// stubBehavior scripts one spawned worker; the zero value misbehaves, use
// normalWorker for a well-behaved one.
type stubBehavior struct {
	freezeAtRep     int
	crashAtRep      int
	crashAfterCells int
	wrongPlan       bool
	wedgeAtExit     bool  // finish every cell, then hang instead of exiting
	corruptFrames   bool  // push mode: flip a byte in every record frame
	costMS          int64 // report this per-cell cost on cell events
}

func normalWorker() stubBehavior {
	return stubBehavior{freezeAtRep: -1, crashAtRep: -1, crashAfterCells: -1}
}

func freezeWorker(atRep int) stubBehavior {
	b := normalWorker()
	b.freezeAtRep = atRep
	return b
}

func crashWorker(atRep int) stubBehavior {
	b := normalWorker()
	b.crashAtRep = atRep
	return b
}

type stubTransport struct {
	dir     string
	plan    *Plan
	slots   int
	push    bool   // mountless mode: workers run in private scratch dirs
	scratch string // parent of the per-spawn worker dirs (push mode)

	mu        sync.Mutex
	spawns    int
	behaviors []stubBehavior // by spawn order; exhausted ⇒ normalWorker
}

func (tr *stubTransport) Slots() int               { return tr.slots }
func (tr *stubTransport) SlotName(slot int) string { return fmt.Sprintf("stub#%d", slot) }

type stubWorker struct {
	events   chan transport.Event
	kill     chan struct{}
	killOnce sync.Once
	done     chan struct{}
	err      error
}

func (w *stubWorker) Events() <-chan transport.Event { return w.events }
func (w *stubWorker) Kill()                          { w.killOnce.Do(func() { close(w.kill) }) }
func (w *stubWorker) Wait() error {
	<-w.done
	return w.err
}

// seedWorkerDir creates one push-mode worker's private directory and lands
// the pushed plan in it, as a mountless transport does on a remote host.
func (tr *stubTransport) seedWorkerDir(spec transport.Spec) (string, error) {
	if !spec.PushRecords || len(spec.PlanFile) == 0 {
		return "", fmt.Errorf("push-mode lease without PushRecords/PlanFile: %+v", spec)
	}
	dir, err := os.MkdirTemp(tr.scratch, "worker-*")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(PlanPath(dir), spec.PlanFile, 0o644); err != nil {
		return "", err
	}
	return dir, nil
}

func (tr *stubTransport) Spawn(ctx context.Context, slot int, spec transport.Spec) (transport.Worker, error) {
	tr.mu.Lock()
	b := normalWorker()
	if tr.spawns < len(tr.behaviors) {
		b = tr.behaviors[tr.spawns]
	}
	tr.spawns++
	tr.mu.Unlock()

	w := &stubWorker{
		events: make(chan transport.Event, 64),
		kill:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	runCtx, cancel := context.WithCancel(context.Background())
	go func() {
		<-w.kill
		cancel() // Kill stops even a busy worker, like SIGKILL would
	}()

	var quiet atomic.Bool // true once frozen/crashed: no more beats
	stopAlive := make(chan struct{})
	var aliveWG sync.WaitGroup
	aliveWG.Add(1)
	go func() {
		defer aliveWG.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopAlive:
				return
			case <-t.C:
				if quiet.Load() {
					continue
				}
				select {
				case w.events <- transport.Event{Kind: transport.EventAlive}:
				case <-stopAlive:
					return
				}
			}
		}
	}()

	go func() {
		// In push mode every spawn gets its own private directory, seeded
		// from the pushed plan bytes exactly as a mountless transport would
		// seed a remote scratch dir; the worker's plan is then the one it
		// read back from that seed, hash verification included.
		dir, plan := tr.dir, tr.plan
		if tr.push {
			seeded, err := tr.seedWorkerDir(spec)
			if err != nil {
				w.err = err
				close(stopAlive)
				close(w.events)
				close(w.done)
				return
			}
			dir = seeded
			if plan, err = ReadPlan(dir); err != nil {
				w.err = err
				close(stopAlive)
				close(w.events)
				close(w.done)
				return
			}
		}
		planHash := plan.Hash
		if b.wrongPlan {
			planHash = strings.Repeat("0", len(planHash))
		}
		w.events <- transport.Event{Kind: transport.EventStart, Plan: planHash}

		sw := testSweep()
		sw.Workers = 2
		if b.crashAtRep == 0 {
			// Die before the first replication folds. Cancelling from
			// Progress instead would let the replications already in
			// flight finish a cell and land its record, which a dead
			// process never does.
			quiet.Store(true)
			cancel()
		}
		reps, cells := 0, 0
		opts := RunOptions{
			Cells: spec.Cells,
			Progress: func(sim.Progress) {
				if reps == b.freezeAtRep {
					quiet.Store(true)
					<-w.kill // wedged until the coordinator reclaims us
				}
				if reps == b.crashAtRep {
					quiet.Store(true)
					cancel()
				}
				reps++
			},
			OnCell: func(idx int) {
				if cells == b.crashAfterCells {
					// The record is durable but the heartbeat for it is
					// lost: die silently.
					quiet.Store(true)
					cancel()
					cells++
					return
				}
				cells++
				ev := transport.Event{Kind: transport.EventCell, Cell: idx}
				if b.costMS > 0 {
					ev.Cost = time.Duration(b.costMS) * time.Millisecond
				}
				if tr.push {
					raw, err := os.ReadFile(RecordPath(dir, idx))
					if err == nil {
						ev.Payload = bytes.TrimRight(raw, "\n")
						if b.corruptFrames && len(ev.Payload) > 0 {
							ev.Payload = append([]byte(nil), ev.Payload...)
							ev.Payload[len(ev.Payload)/2] ^= 0x20
						}
					}
				}
				select {
				case w.events <- ev:
				case <-w.kill:
				}
			},
		}
		_, err := Run(runCtx, dir, plan, sw, opts)
		if err == nil && b.wedgeAtExit {
			// Every record is durable, but the process never exits and
			// stops beating — SIGSTOP during teardown.
			quiet.Store(true)
			<-w.kill
			err = fmt.Errorf("stub worker killed while wedged at exit")
		}
		close(stopAlive)
		aliveWG.Wait()
		if err == nil {
			w.events <- transport.Event{Kind: transport.EventDone}
		}
		close(w.events)
		w.err = err
		close(w.done)
	}()
	return w, nil
}

// stealFixture plans the test sweep into a fresh dir and wires a stub
// transport plus a fast-clock coordinator around it.
func stealFixture(t *testing.T, slots int, behaviors ...stubBehavior) (*StealCoordinator, *stubTransport, *bytes.Buffer) {
	t.Helper()
	return stealFixtureMode(t, slots, false, behaviors...)
}

// pushFixture is stealFixture in mountless mode: workers execute in
// private scratch directories seeded from the pushed plan, and only the
// coordinator's directory collects records.
func pushFixture(t *testing.T, slots int, behaviors ...stubBehavior) (*StealCoordinator, *stubTransport, *bytes.Buffer) {
	t.Helper()
	return stealFixtureMode(t, slots, true, behaviors...)
}

func stealFixtureMode(t *testing.T, slots int, push bool, behaviors ...stubBehavior) (*StealCoordinator, *stubTransport, *bytes.Buffer) {
	t.Helper()
	dir := t.TempDir()
	plan, err := NewPlan(testSweep(), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := WritePlan(dir, plan); err != nil {
		t.Fatal(err)
	}
	tr := &stubTransport{dir: dir, plan: plan, slots: slots, behaviors: behaviors}
	if push {
		tr.push = true
		tr.scratch = t.TempDir()
	}
	var log bytes.Buffer
	c := &StealCoordinator{
		Plan: plan, Dir: dir, Transport: tr,
		// Stub workers beat every 5ms; 150ms of silence means frozen, not
		// slow, even on a loaded CI machine. (A spurious steal would be
		// harmless anyway — that invariant is what the property test
		// below exercises.)
		LeaseTimeout: 150 * time.Millisecond,
		PushRecords:  push,
		Log:          &log,
	}
	return c, tr, &log
}

func mergedEqualsGolden(t *testing.T, dir string, plan *Plan, golden []byte) {
	t.Helper()
	merged, err := Merge(dir, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exportJSON(t, merged), golden) {
		t.Fatal("merged output differs from single-process Sweep.Run")
	}
}

// TestStealCoordinatorCompletesCleanRun: no failures, two slots — the
// queue drains through leases alone and the merge matches the golden.
func TestStealCoordinatorCompletesCleanRun(t *testing.T) {
	golden := singleProcessGolden(t)
	c, _, _ := stealFixture(t, 2)
	stats, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != len(c.Plan.Cells) || stats.Resumed != 0 || stats.Steals != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Leases < 2 {
		t.Fatalf("expected multiple leases (adaptive batches), got %+v", stats)
	}
	mergedEqualsGolden(t, c.Dir, c.Plan, golden)

	// The persisted lease snapshot outlives the run for `shard status`.
	ls, err := ReadLeaseState(c.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Plan != c.Plan.Hash || ls.Done != len(c.Plan.Cells) || len(ls.Active) != 0 {
		t.Fatalf("final lease state = %+v", ls)
	}
}

// TestStealCoordinatorStealsFromStraggler is the straggler acceptance
// test: the first worker freezes mid-replication (the in-process analogue
// of SIGSTOP — no heartbeats, no exit), its lease expires, its cells are
// stolen and finished by the other slot, and the merge is bit-identical
// to the single-process run.
func TestStealCoordinatorStealsFromStraggler(t *testing.T) {
	golden := singleProcessGolden(t)
	c, _, log := stealFixture(t, 2, freezeWorker(0))
	stats, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steals < 1 {
		t.Fatalf("straggler was never stolen from: %+v", stats)
	}
	if stats.Completed != len(c.Plan.Cells) {
		t.Fatalf("stats = %+v", stats)
	}
	if !strings.Contains(log.String(), "stole") {
		t.Fatalf("log does not mention the steal: %q", log.String())
	}
	mergedEqualsGolden(t, c.Dir, c.Plan, golden)
	ls, err := ReadLeaseState(c.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Steals != stats.Steals {
		t.Fatalf("lease state steals = %d, stats = %d", ls.Steals, stats.Steals)
	}
}

// TestStealCoordinatorReclaimsWedgedIdleWorker: a worker that finished
// every cell of its lease but wedges before exiting (SIGSTOP during
// teardown) holds no stealable cells — yet its slot must still be
// reclaimed after the lease timeout, or a single-slot run would hang with
// cells left in the queue.
func TestStealCoordinatorReclaimsWedgedIdleWorker(t *testing.T) {
	golden := singleProcessGolden(t)
	b := normalWorker()
	b.wedgeAtExit = true
	c, _, log := stealFixture(t, 1, b) // one slot: a leaked slot = deadlock
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	stats, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != len(c.Plan.Cells) {
		t.Fatalf("stats = %+v", stats)
	}
	if !strings.Contains(log.String(), "reclaiming") {
		t.Fatalf("log does not mention reclaiming the wedged worker: %q", log.String())
	}
	mergedEqualsGolden(t, c.Dir, c.Plan, golden)
}

// TestStealCoordinatorSurvivesLostCellEvents: a worker dies right after a
// record became durable but before its heartbeat line went out. The
// settle-time disk re-scan must claim the cell instead of re-queueing it.
func TestStealCoordinatorSurvivesLostCellEvents(t *testing.T) {
	golden := singleProcessGolden(t)
	b := normalWorker()
	b.crashAfterCells = 0 // first record durable, heartbeat lost, dead
	c, _, _ := stealFixture(t, 2, b)
	stats, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != len(c.Plan.Cells) {
		t.Fatalf("stats = %+v", stats)
	}
	mergedEqualsGolden(t, c.Dir, c.Plan, golden)
}

// TestStealCoordinatorResumesFromDisk: cells completed by an earlier
// (killed) run are not re-leased.
func TestStealCoordinatorResumesFromDisk(t *testing.T) {
	golden := singleProcessGolden(t)
	c, _, _ := stealFixture(t, 2)
	// Pre-complete half the grid, as a killed earlier run would have.
	sw := testSweep()
	if _, err := Run(context.Background(), c.Dir, c.Plan, sw, RunOptions{Cells: []int{0, 2, 4}}); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed != 3 || stats.Completed != 3 {
		t.Fatalf("stats = %+v", stats)
	}
	mergedEqualsGolden(t, c.Dir, c.Plan, golden)

	// A second coordinator over the complete directory leases nothing.
	again, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if again.Resumed != len(c.Plan.Cells) || again.Leases != 0 {
		t.Fatalf("idempotent rerun stats = %+v", again)
	}
}

// TestStealCoordinatorMountlessPushSync is the mountless acceptance test
// at the unit level: workers run in private scratch directories that share
// nothing with the coordinator, every record travels back as a checksummed
// frame on the heartbeat stream, and the merge of the coordinator's
// directory alone is bit-identical to a single-process Sweep.Run.
func TestStealCoordinatorMountlessPushSync(t *testing.T) {
	golden := singleProcessGolden(t)
	c, tr, _ := pushFixture(t, 2)
	stats, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != len(c.Plan.Cells) || stats.Pushed < len(c.Plan.Cells) {
		t.Fatalf("stats = %+v (every cell must have arrived over the stream)", stats)
	}
	if stats.RejectedFrames != 0 {
		t.Fatalf("clean run rejected %d frames", stats.RejectedFrames)
	}
	mergedEqualsGolden(t, c.Dir, c.Plan, golden)
	// The snapshot records the push counters for `shard status`.
	ls, err := ReadLeaseState(c.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Pushed != stats.Pushed || ls.LeaseTimeoutMS != c.LeaseTimeout.Milliseconds() {
		t.Fatalf("lease state = %+v, stats = %+v", ls, stats)
	}
	_ = tr
}

// TestStealCoordinatorMountlessStragglerSteal: the SIGSTOP scenario with
// no shared directory — the frozen worker's cells are stolen, re-executed
// in another private scratch dir, pushed, and the merge still matches the
// single-process golden.
func TestStealCoordinatorMountlessStragglerSteal(t *testing.T) {
	golden := singleProcessGolden(t)
	c, _, log := pushFixture(t, 2, freezeWorker(0))
	stats, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steals < 1 {
		t.Fatalf("straggler was never stolen from: %+v", stats)
	}
	if stats.Completed != len(c.Plan.Cells) {
		t.Fatalf("stats = %+v", stats)
	}
	if !strings.Contains(log.String(), "stole") {
		t.Fatalf("log does not mention the steal: %q", log.String())
	}
	mergedEqualsGolden(t, c.Dir, c.Plan, golden)
}

// TestStealCoordinatorDropsCorruptFrames: a worker whose record frames are
// corrupted in flight must never get a record persisted — the frames are
// rejected, the cells re-queued, and a later clean execution produces the
// byte-identical merge.
func TestStealCoordinatorDropsCorruptFrames(t *testing.T) {
	golden := singleProcessGolden(t)
	corrupt := normalWorker()
	corrupt.corruptFrames = true
	c, _, log := pushFixture(t, 1, corrupt)
	stats, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.RejectedFrames < 1 {
		t.Fatalf("no frames rejected: %+v", stats)
	}
	if stats.Requeued < 1 {
		t.Fatalf("corrupt-frame cells were not re-queued: %+v", stats)
	}
	if stats.Completed != len(c.Plan.Cells) {
		t.Fatalf("stats = %+v", stats)
	}
	if !strings.Contains(log.String(), "dropped record frame") {
		t.Fatalf("log does not mention the dropped frame: %q", log.String())
	}
	mergedEqualsGolden(t, c.Dir, c.Plan, golden)
}

// TestStealCoordinatorFoldsSlotCosts: per-cell costs reported on cell
// heartbeats land in the persisted snapshot as the slot's online mean —
// the number `shard status` shows and lease sizing feeds on.
func TestStealCoordinatorFoldsSlotCosts(t *testing.T) {
	b := normalWorker()
	b.costMS = 40
	c, _, _ := pushFixture(t, 1, b, b, b, b, b, b)
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ls, err := ReadLeaseState(c.Dir)
	if err != nil {
		t.Fatal(err)
	}
	mean, ok := ls.SlotCosts["stub#0"]
	if !ok || mean != 40 {
		t.Fatalf("slot costs = %+v, want stub#0 at 40ms", ls.SlotCosts)
	}
}

// TestStealCoordinatorRejectsForeignPlanWorker: a worker advertising a
// different plan hash (wrong directory, drifted binary) aborts the run
// instead of contributing silently wrong records.
func TestStealCoordinatorRejectsForeignPlanWorker(t *testing.T) {
	b := normalWorker()
	b.wrongPlan = true
	c, _, _ := stealFixture(t, 1, b)
	if _, err := c.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "plan") {
		t.Fatalf("foreign-plan worker accepted (err = %v)", err)
	}
}

// TestStealCoordinatorAbortsAfterRepeatedCellFailures: a cell whose
// workers keep dying without producing a record exhausts MaxRetries and
// fails the run (instead of spinning forever).
func TestStealCoordinatorAbortsAfterRepeatedCellFailures(t *testing.T) {
	crashes := make([]stubBehavior, 32)
	for i := range crashes {
		crashes[i] = crashWorker(0) // die before any record, every time
	}
	c, _, _ := stealFixture(t, 1, crashes...)
	c.MaxRetries = 2
	_, err := c.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("repeated failures did not abort (err = %v)", err)
	}
}

// TestStealCoordinatorValidates covers the constructor-shaped errors.
func TestStealCoordinatorValidates(t *testing.T) {
	if _, err := (&StealCoordinator{}).Run(context.Background()); err == nil {
		t.Fatal("coordinator without plan/dir/transport accepted")
	}
	c, tr, _ := stealFixture(t, 0)
	_ = tr
	if _, err := c.Run(context.Background()); err == nil {
		t.Fatal("transport with zero slots accepted")
	}
}

// TestStealMergeBitIdenticalUnderLeaseInterleavings is the lease-semantics
// property test: random interleavings of lease grants, heartbeat expiry,
// steals, worker crashes (before and after records land), duplicated
// execution (a stolen cell finished by both straggler and thief), and
// pre-completed cells must all merge bit-identically to a single-process
// Sweep.Run. Completion is defined by deterministic records, so no
// scheduling history may change a byte of the result.
func TestStealMergeBitIdenticalUnderLeaseInterleavings(t *testing.T) {
	golden := singleProcessGolden(t)
	rnd := rand.New(rand.NewSource(20260726))
	for trial := 0; trial < 8; trial++ {
		push := trial%2 == 1 // odd trials run mountless: scripted failures × push-sync
		var behaviors []stubBehavior
		for i, n := 0, rnd.Intn(4); i < n; i++ {
			switch rnd.Intn(4) {
			case 0:
				behaviors = append(behaviors, freezeWorker(rnd.Intn(4)))
			case 1:
				behaviors = append(behaviors, crashWorker(rnd.Intn(4)))
			case 2:
				b := normalWorker()
				b.corruptFrames = true // harmless noise when not pushing
				behaviors = append(behaviors, b)
			default:
				b := normalWorker()
				b.crashAfterCells = rnd.Intn(2)
				behaviors = append(behaviors, b)
			}
		}
		c, _, _ := stealFixtureMode(t, 2+rnd.Intn(2), push, behaviors...)
		c.MaxRetries = 20 // failure modes are scripted, not under test here
		c.MaxBatch = 1 + rnd.Intn(3)
		if rnd.Intn(2) == 0 {
			// Pre-complete a random cell: the duplicate-record resume path.
			pre := rnd.Intn(len(c.Plan.Cells))
			sw := testSweep()
			if _, err := Run(context.Background(), c.Dir, c.Plan, sw, RunOptions{Cells: []int{pre}}); err != nil {
				t.Fatal(err)
			}
		}
		stats, err := c.Run(context.Background())
		if err != nil {
			t.Fatalf("trial %d (push=%v, behaviors %+v): %v", trial, push, behaviors, err)
		}
		if stats.Resumed+stats.Completed != len(c.Plan.Cells) {
			t.Fatalf("trial %d: cells unaccounted for: %+v", trial, stats)
		}
		mergedEqualsGolden(t, c.Dir, c.Plan, golden)
	}
}

// TestNextBatchShrinksMonotonically: the adaptive batch size never grows
// as the queue drains, never drops below one cell, and respects both the
// operator cap and the cost-seeded ceiling.
func TestNextBatchShrinksMonotonically(t *testing.T) {
	for _, slots := range []int{1, 2, 4, 8} {
		for _, maxBatch := range []int{0, 3} {
			for _, costCap := range []int{0, 1, 5} {
				prev := 0
				for queued := 1; queued <= 500; queued++ {
					b := nextBatch(queued, slots, maxBatch, costCap)
					if b < 1 {
						t.Fatalf("slots=%d cap=%d cost=%d queued=%d: batch %d < 1", slots, maxBatch, costCap, queued, b)
					}
					if maxBatch > 0 && b > maxBatch {
						t.Fatalf("slots=%d cap=%d cost=%d queued=%d: batch %d exceeds cap", slots, maxBatch, costCap, queued, b)
					}
					if costCap > 0 && b > costCap {
						t.Fatalf("slots=%d cap=%d cost=%d queued=%d: batch %d exceeds cost ceiling", slots, maxBatch, costCap, queued, b)
					}
					if b < prev { // growing queued must never shrink the batch…
						t.Fatalf("slots=%d cap=%d cost=%d: batch grew from %d to %d as queue shrank from %d to %d",
							slots, maxBatch, costCap, b, prev, queued, queued-1)
					}
					prev = b
				}
			}
		}
	}
	if nextBatch(0, 4, 0, 0) != 0 {
		t.Fatal("empty queue must yield no batch")
	}
}

// TestCostCapSeedsLeaseSize: a slot whose worker reports per-cell costs
// gets its lease ceiling from the half-lease-timeout rule; a slot with no
// estimate yet is sized by fair share alone.
func TestCostCapSeedsLeaseSize(t *testing.T) {
	c := &StealCoordinator{LeaseTimeout: 10 * time.Second}
	st := &stealRun{c: c, costs: map[int]*slotCost{}, m: newCoordMetrics(nil)}
	if got := st.costCapLocked(0); got != 0 {
		t.Fatalf("cost cap without an estimate = %d, want 0 (fair share only)", got)
	}
	// 500ms/cell against a 10s timeout: 5s of work ⇒ 10 cells.
	sc := &slotCost{}
	sc.fold(500)
	st.costs[0] = sc
	if got := st.costCapLocked(0); got != 10 {
		t.Fatalf("cost cap at 500ms/cell, 10s timeout = %d, want 10", got)
	}
	// A very slow worker still gets at least one cell.
	slow := &slotCost{}
	slow.fold(60_000)
	st.costs[1] = slow
	if got := st.costCapLocked(1); got != 1 {
		t.Fatalf("cost cap for a slow worker = %d, want 1", got)
	}
	// The online mean folds repeated reports (1000, 500, 300 → 600).
	m := &slotCost{}
	for _, ms := range []float64{1000, 500, 300} {
		m.fold(ms)
	}
	if m.meanMS != 600 {
		t.Fatalf("online mean = %v, want 600", m.meanMS)
	}
	// And the cap composes with fair share: cost caps a large queue's
	// batch, fair share rules a small one.
	if b := nextBatch(1000, 2, 0, 10); b != 10 {
		t.Fatalf("cost-capped batch = %d, want 10", b)
	}
	if b := nextBatch(4, 2, 0, 10); b != 1 {
		t.Fatalf("small-queue batch = %d, want fair share 1", b)
	}
}

// TestLeaseStateRoundTrip: the snapshot survives its JSON encoding and a
// missing file reports os.IsNotExist.
func TestLeaseStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadLeaseState(dir); !os.IsNotExist(err) {
		t.Fatalf("missing lease state: err = %v, want IsNotExist", err)
	}
	plan, err := NewPlan(testSweep(), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := &StealCoordinator{Plan: plan, Dir: dir, Transport: &stubTransport{dir: dir, plan: plan, slots: 1}}
	st := &stealRun{c: c, done: map[int]bool{0: true}, active: map[int]*lease{}, m: newCoordMetrics(nil)}
	st.persistLocked()
	ls, err := ReadLeaseState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Plan != plan.Hash || ls.Done != 1 || ls.Total != len(plan.Cells) {
		t.Fatalf("round trip = %+v", ls)
	}
}
