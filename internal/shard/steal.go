package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"netbandit/internal/obs"
	"netbandit/internal/shard/transport"
	"netbandit/internal/sim"
)

// This file implements the dynamic coordinator: instead of freezing the
// cell→worker assignment in the plan (the static Assign partition, still
// used by hand-driven `shard run -shard N` workers), the StealCoordinator
// keeps one queue of incomplete cells and leases batches of it to workers
// spawned through a Transport. Work-stealing falls out of the lease rules:
//
//   - a worker that finishes its batch comes back for another lease, so
//     fast workers drain the queue instead of idling next to slow ones
//     (combinatorial cells vary wildly in cost with |F| and K);
//   - a lease whose heartbeat lapses is expired — its remaining cells go
//     back to the queue for any other worker to take (straggler
//     re-assignment), and the straggler is killed;
//   - batch sizes shrink as the queue drains, so the tail of the run is
//     never serialised behind one large final batch — and each slot's
//     batches are additionally capped by its observed per-cell cost, so a
//     slow host never holds more than about half a lease timeout of work;
//   - with PushRecords, workers frame each finished record onto their
//     heartbeat stream and the coordinator persists it locally after full
//     verification, which removes the shared-directory requirement
//     entirely (the transport seeds worker scratch dirs with the plan).
//
// None of this can change the science: records are deterministic (a cell's
// record is byte-identical no matter which worker produces it, because
// replication streams are keyed on the global cell index and rewards on
// (stream, arm, t)), so duplicated execution — a stolen cell finished by
// both the straggler and the thief — merges to the same bytes as a
// single-process run.

// StealCoordinator executes a plan by leasing cell batches to workers
// spawned through a Transport, re-leasing cells whose worker stops
// heartbeating, and shrinking batches as the queue drains.
type StealCoordinator struct {
	// Plan is the job being executed. Required.
	Plan *Plan
	// Dir is the job directory holding plan.json and cells/ on the
	// coordinator's side. Required.
	Dir string
	// Transport spawns and monitors the workers. Required.
	Transport transport.Transport
	// LeaseTimeout is how long a lease may go without a heartbeat before
	// its remaining cells are stolen and the worker is killed; 0 means
	// 30s. Workers beat every second plus once per finished cell, so the
	// timeout should stay well above both the beat interval and the job
	// directory's sync latency — never below ~3s in production.
	LeaseTimeout time.Duration
	// MaxBatch caps the number of cells per lease; 0 means no cap beyond
	// the adaptive half-fair-share rule (see nextBatch).
	MaxBatch int
	// MaxRetries is how many times one cell may be returned to the queue
	// by a failing worker (exit without a record, spawn churn) before the
	// run aborts; 0 means 3. Steals do not count — a straggler is the
	// machine's fault, not the cell's.
	MaxRetries int
	// Workers is the worker-pool size inside each spawned process
	// (0 = the worker's GOMAXPROCS).
	Workers int
	// PushRecords runs the job mountless: workers frame each finished
	// cell's record onto their heartbeat stream, the coordinator verifies
	// every frame against the plan (frame checksum, record checksum, plan
	// hash, cell coordinates) and persists it into Dir via the atomic
	// tmp+rename path — no shared or synced job directory is needed, and
	// the transport seeds worker-side scratch dirs with the plan. A frame
	// that fails verification is dropped and its cell re-run; completion is
	// then defined solely by records on the coordinator's own disk.
	PushRecords bool
	// Progress forwards -progress to every worker; the per-replication
	// streams arrive on Log, prefixed per slot.
	Progress bool
	// Log, when non-nil, receives coordinator events (grants, steals,
	// failures) and the workers' prefixed stderr.
	Log io.Writer
	// BackoffBase is the wait before a failed slot's first re-lease; it
	// doubles per consecutive failure (with deterministic jitter, see
	// backoffDelay) up to BackoffMax. 0 means 250ms.
	BackoffBase time.Duration
	// BackoffMax caps the per-slot backoff; 0 means 16× BackoffBase.
	BackoffMax time.Duration
	// QuarantineAfter is how many consecutive failures put a slot in
	// quarantine (no leases until a timed re-admission probe); 0 means 3.
	QuarantineAfter int
	// QuarantinePeriod is the first quarantine's length; it doubles per
	// failed re-admission probe. 0 means 2× the lease timeout.
	QuarantinePeriod time.Duration
	// Fallback, when non-nil, is the sweep the plan was built from; it
	// enables degraded-mode completion — if every slot ends up dead or
	// quarantined, the coordinator finishes the remaining cells in-process
	// through this sweep instead of hanging or aborting. Nil means such a
	// run aborts explicitly.
	Fallback *sim.Sweep
	// ChaosSeed, when non-empty, labels the fault-injection schedule the
	// transport is running under (nbandit chaos); it is persisted in
	// leases.json so `shard status` shows which schedule a run replays.
	ChaosSeed string
	// Journal, when non-nil, is the flight recorder: every lease grant,
	// steal, retry, health transition, pushed or rejected record frame, and
	// completed cell is appended as a typed event carrying the plan hash
	// and chaos seed. Nil (the default) records nothing at zero cost; the
	// journal is advisory, like leases.json — it never affects the run.
	Journal *obs.Recorder
	// Metrics, when non-nil, receives the coordinator's live series
	// (cells done, queue depth, steals, retries, per-slot health and cost,
	// cell-latency histogram) for the /metrics endpoint. Nil disables.
	Metrics *obs.Registry

	// now is a test seam for lease-expiry clocks; nil means time.Now.
	now func() time.Time
}

// StealStats reports what one StealCoordinator.Run did.
type StealStats struct {
	// Cells is the plan's total cell count.
	Cells int
	// Resumed is how many cells already had a valid record when the
	// coordinator started.
	Resumed int
	// Completed is how many cells gained a record during this run.
	Completed int
	// Leases is the total number of leases granted.
	Leases int
	// Steals is how many leases expired and had their remaining cells
	// re-queued.
	Steals int
	// Requeued is how many cells were returned to the queue by workers
	// that exited without finishing them (excluding steals).
	Requeued int
	// Pushed is how many record frames arrived over worker streams,
	// verified, and were persisted on the coordinator's side (PushRecords
	// runs only).
	Pushed int
	// RejectedFrames is how many pushed record frames failed verification
	// and were dropped; their cells were re-run instead of trusted.
	RejectedFrames int
	// SpawnFailures is how many worker spawns failed transiently (refused
	// connection, chaos injection); their cells returned to the queue
	// without burning per-cell retries.
	SpawnFailures int
	// Backoffs, Quarantines, and Probes count slot-health transitions:
	// timed waits before re-leasing a failed slot, benchings after
	// repeated failures, and 1-cell re-admission leases after quarantine.
	Backoffs    int
	Quarantines int
	Probes      int
	// DegradedCells is how many cells were finished in-process after every
	// slot died or was quarantined (degraded-mode completion).
	DegradedCells int
}

// nextBatch sizes the next lease when queued cells remain: roughly half a
// fair share of the queue per slot, so early leases are large (amortising
// worker spawn cost) and the tail of the run degrades to single-cell
// leases that no slot waits long behind. costCap, when positive, is the
// slot's cost-seeded ceiling — how many cells fit in about half a lease
// timeout at the worker's observed per-cell cost — so a slow host is never
// handed more work than a steal could lose cheaply. The size is monotone
// non-decreasing in queued for fixed slots and caps — as the queue drains,
// batches only shrink.
func nextBatch(queued, slots, maxBatch, costCap int) int {
	if queued <= 0 {
		return 0
	}
	if slots < 1 {
		slots = 1
	}
	b := (queued + 2*slots - 1) / (2 * slots)
	if costCap > 0 && b > costCap {
		b = costCap
	}
	if maxBatch > 0 && b > maxBatch {
		b = maxBatch
	}
	if b < 1 {
		b = 1
	}
	return b
}

// lease is one granted batch: the cells the worker still owes, and the
// heartbeat clock that keeps the ownership alive.
type lease struct {
	id      int
	slot    int
	batch   []int        // granted cells, ascending (spawn spec)
	cells   map[int]bool // remaining: granted minus completed
	granted time.Time
	last    time.Time // most recent heartbeat
	worker  transport.Worker
	stolen  bool
}

// slotCost is one slot's online estimate of its worker's per-cell
// wall-clock cost, folded from the costs reported on cell heartbeats.
type slotCost struct {
	n      int     // cost reports folded in
	meanMS float64 // online mean per-cell wall clock, milliseconds
}

// fold adds one reported cost to the online mean.
func (sc *slotCost) fold(ms float64) {
	sc.n++
	sc.meanMS += (ms - sc.meanMS) / float64(sc.n)
}

// stealRun is the mutable state of one Run, guarded by mu.
type stealRun struct {
	c        *StealCoordinator
	ctx      context.Context
	cancel   context.CancelFunc
	slots    int
	planFile []byte // plan.json bytes pushed to mountless workers

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []int // incomplete, unleased cells, ascending
	done     map[int]bool
	left     int // incomplete cell count (queued + leased)
	attempts map[int]int
	active   map[int]*lease
	costs    map[int]*slotCost   // per-slot cell-cost estimates
	health   map[int]*slotHealth // per-slot resilience state (health.go)
	degraded bool                // every slot dead/quarantined; finish in-process
	nextID   int
	stats    StealStats
	failure  error
	m        *coordMetrics // instruments; built even for a nil registry
}

// costCapLocked translates a slot's cost estimate into a lease-size
// ceiling: the number of cells that fit in half a lease timeout. Zero
// means "no estimate yet" — the first lease to a slot is sized by fair
// share alone.
func (st *stealRun) costCapLocked(slot int) int {
	sc := st.costs[slot]
	if sc == nil || sc.meanMS <= 0 {
		return 0
	}
	limit := int(float64(st.c.leaseTimeout().Milliseconds()) / 2 / sc.meanMS)
	if limit < 1 {
		limit = 1
	}
	return limit
}

func (c *StealCoordinator) clock() time.Time {
	if c.now != nil {
		return c.now()
	}
	return time.Now()
}

func (c *StealCoordinator) leaseTimeout() time.Duration {
	if c.LeaseTimeout > 0 {
		return c.LeaseTimeout
	}
	return 30 * time.Second
}

func (c *StealCoordinator) maxRetries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return 3
}

func (c *StealCoordinator) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, "coordinator: "+format+"\n", args...)
	}
}

// Run drives the queue dry: it scans dir/cells for already-completed
// records, leases the rest to workers, steals from stragglers, and returns
// once every cell of the plan has a valid record (merge-ready) or the run
// has failed. A failure kills every outstanding worker; completed cells
// stay on disk, so a relaunched coordinator resumes where this one ended.
func (c *StealCoordinator) Run(ctx context.Context) (StealStats, error) {
	if c.Plan == nil || c.Transport == nil || c.Dir == "" {
		return StealStats{}, errors.New("shard: steal coordinator needs a Plan, a Dir, and a Transport")
	}
	if err := c.Plan.check(); err != nil {
		return StealStats{}, err
	}
	slots := c.Transport.Slots()
	if slots < 1 {
		return StealStats{}, errors.New("shard: transport has no worker slots")
	}
	if err := os.MkdirAll(cellsDir(c.Dir), 0o755); err != nil {
		return StealStats{}, err
	}
	all := make([]int, len(c.Plan.Cells))
	for i := range all {
		all[i] = i
	}
	completed, _, err := scanCompleted(c.Dir, c.Plan, all)
	if err != nil {
		return StealStats{}, err
	}

	st := &stealRun{
		c:        c,
		slots:    slots,
		done:     completed,
		attempts: make(map[int]int),
		active:   make(map[int]*lease),
		costs:    make(map[int]*slotCost),
		health:   make(map[int]*slotHealth),
		m:        newCoordMetrics(c.Metrics),
	}
	if c.PushRecords {
		// The plan travels to mountless workers inside the lease spec; it is
		// marshalled once here, in the exact shape WritePlan produces, so a
		// seeded scratch dir is indistinguishable from a planned one.
		raw, err := json.MarshalIndent(c.Plan, "", "  ")
		if err != nil {
			return StealStats{}, err
		}
		st.planFile = append(raw, '\n')
	}
	st.cond = sync.NewCond(&st.mu)
	st.stats = StealStats{Cells: len(all), Resumed: len(completed)}
	for _, idx := range all {
		if !completed[idx] {
			st.queue = append(st.queue, idx)
		}
	}
	st.left = len(st.queue)
	c.logf("%d cells, %d already on disk, %d to run over %d slot(s), lease timeout %s",
		len(all), len(completed), st.left, slots, c.leaseTimeout())
	c.jot(obs.EvPlan, -1, -1, -1, "%d cell(s), %d resumed, %d slot(s), lease timeout %s",
		len(all), len(completed), slots, c.leaseTimeout())
	if st.left == 0 {
		st.persistLocked() // legal without mu: no goroutines yet
		c.jot(obs.EvRunEnd, -1, -1, -1, "complete: all %d cell(s) resumed from disk", len(all))
		return st.stats, nil
	}

	st.ctx, st.cancel = context.WithCancel(ctx)
	defer st.cancel()

	// Wake blocked slots when the caller cancels, so they can observe it.
	go func() {
		<-st.ctx.Done()
		st.mu.Lock()
		st.killActiveLocked()
		st.cond.Broadcast()
		st.mu.Unlock()
	}()

	monitorDone := make(chan struct{})
	go func() {
		defer close(monitorDone)
		st.monitor()
	}()

	var wg sync.WaitGroup
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for {
				l := st.take(slot)
				if l == nil {
					return
				}
				st.runLease(l)
			}
		}(s)
	}
	wg.Wait()
	st.finishDegraded()
	st.cancel()
	<-monitorDone

	st.mu.Lock()
	st.persistLocked()
	stats, failure, left := st.stats, st.failure, st.left
	st.mu.Unlock()
	if failure != nil {
		c.jot(obs.EvRunEnd, -1, -1, -1, "failed: %v", failure)
		return stats, failure
	}
	if err := ctx.Err(); err != nil {
		c.jot(obs.EvRunEnd, -1, -1, -1, "cancelled: %v", err)
		return stats, fmt.Errorf("shard: coordinator cancelled: %w", err)
	}
	if left != 0 {
		c.jot(obs.EvRunEnd, -1, -1, -1, "internal error: %d cell(s) unaccounted for", left)
		return stats, fmt.Errorf("shard: internal error: %d cell(s) unaccounted for", left)
	}
	c.logf("complete: %d cell(s) run, %d lease(s), %d steal(s)", stats.Completed, stats.Leases, stats.Steals)
	c.jot(obs.EvRunEnd, -1, -1, -1, "complete: %d cell(s) run, %d lease(s), %d steal(s)",
		stats.Completed, stats.Leases, stats.Steals)
	return stats, nil
}

// take blocks until a batch can be leased to slot, all work is done, or
// the run is aborted; it returns nil in the latter two cases. A slot in
// backoff or quarantine waits out its penalty here (the monitor's tick
// broadcast re-checks the clock); a dead slot never leases again; an
// expired quarantine converts into a single-cell re-admission probe.
func (st *stealRun) take(slot int) *lease {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		if st.failure != nil || st.ctx.Err() != nil || st.left == 0 || st.degraded {
			return nil
		}
		h := st.healthLocked(slot)
		if h.state == slotDead {
			st.checkDegradedLocked()
			return nil
		}
		if (h.state == slotBackoff || h.state == slotQuarantined) && st.c.clock().Before(h.until) {
			st.cond.Wait()
			continue
		}
		if h.state == slotBackoff {
			h.state = slotOK
			st.c.jotHealth(slot, slotBackoff, slotOK)
		}
		if len(st.queue) > 0 {
			n := nextBatch(len(st.queue), st.slots, st.c.MaxBatch, st.costCapLocked(slot))
			if h.state == slotQuarantined {
				// Quarantine served: the next lease is a 1-cell probe —
				// cheap to lose if the slot is still sick.
				h.state = slotProbing
				n = 1
				st.stats.Probes++
				st.m.probes.Inc()
				st.c.logf("%s: quarantine expired — granting a 1-cell re-admission probe",
					st.c.Transport.SlotName(slot))
				st.c.jotHealth(slot, slotQuarantined, slotProbing)
			}
			batch := append([]int(nil), st.queue[:n]...)
			st.queue = append(st.queue[:0], st.queue[n:]...)
			now := st.c.clock()
			l := &lease{
				id: st.nextID, slot: slot, batch: batch,
				cells: make(map[int]bool, len(batch)), granted: now, last: now,
			}
			for _, idx := range batch {
				l.cells[idx] = true
			}
			st.nextID++
			st.active[l.id] = l
			st.stats.Leases++
			st.m.leases.Inc()
			st.c.logf("lease %d → %s: %d cell(s) %v (%d queued)",
				l.id, st.c.Transport.SlotName(slot), len(batch), batch, len(st.queue))
			st.c.jot(obs.EvLeaseGrant, slot, l.id, -1, "%d cell(s) %v (%d queued)",
				len(batch), batch, len(st.queue))
			st.persistLocked()
			return l
		}
		st.cond.Wait()
	}
}

// runLease spawns the worker for one lease, consumes its heartbeats, and
// settles the lease when the worker exits.
func (st *stealRun) runLease(l *lease) {
	spec := transport.Spec{
		Dir: st.c.Dir, Cells: l.batch, Workers: st.c.Workers, Progress: st.c.Progress,
		PushRecords: st.c.PushRecords, PlanFile: st.planFile,
	}
	w, err := st.c.Transport.Spawn(st.ctx, l.slot, spec)
	if err != nil {
		if transport.IsFatalSpawn(err) {
			// A transport misconfigured in a way retries cannot fix
			// (missing binary, slot out of range): abort the run.
			st.c.jot(obs.EvSpawnFail, l.slot, l.id, -1, "fatal: %v", err)
			st.fail(fmt.Errorf("shard: spawning worker on %s: %w", st.c.Transport.SlotName(l.slot), err))
			st.mu.Lock()
			delete(st.active, l.id)
			st.mu.Unlock()
			return
		}
		// Transient spawn failure (refused connection, flaky host): the
		// batch returns to the queue without burning per-cell retries —
		// the cells did nothing wrong — and the slot pays in health.
		st.mu.Lock()
		delete(st.active, l.id)
		if st.failure == nil && st.ctx.Err() == nil {
			st.stats.SpawnFailures++
			st.m.spawnFails.Inc()
			st.requeueLocked(sortedCells(l.cells))
			st.c.logf("lease %d on %s: spawn failed (%v) — %d cell(s) re-queued",
				l.id, st.c.Transport.SlotName(l.slot), err, len(l.cells))
			st.c.jot(obs.EvSpawnFail, l.slot, l.id, -1, "%v — %d cell(s) re-queued", err, len(l.cells))
			st.slotFailureLocked(l.slot, err)
			st.persistLocked()
		}
		st.cond.Broadcast()
		st.mu.Unlock()
		return
	}
	st.c.jot(obs.EvSpawn, l.slot, l.id, -1, "%d cell(s)", len(l.batch))
	st.mu.Lock()
	l.worker = w
	if st.failure != nil || st.ctx.Err() != nil || l.stolen {
		// The run aborted (or a zero-timeout monitor expired the lease)
		// while the spawn was in flight.
		w.Kill()
	}
	st.mu.Unlock()

	for ev := range w.Events() {
		st.observe(l, ev)
	}
	st.settle(l, w.Wait())
}

// observe applies one heartbeat to the lease. In push mode a cell event
// only counts once its record frame has been verified against the plan and
// durably written on the coordinator's side — the verification and the
// disk write happen without the lock held, so a slow disk never stalls
// the monitor, and the heartbeat clock is refreshed before the write, so
// a burst of pushed frames grinding through a slow coordinator disk never
// lets the (alive, frame-emitting) worker's lease lapse behind its own
// queued events. Every event, including one carrying a corrupt frame,
// refreshes the clock: a worker emitting garbage frames is alive, just
// not trusted.
func (st *stealRun) observe(l *lease, ev transport.Event) {
	st.mu.Lock()
	l.last = st.c.clock()
	st.mu.Unlock()

	persisted := false
	var frameErr error
	if ev.Kind == transport.EventCell && st.c.PushRecords &&
		ev.Cell >= 0 && ev.Cell < len(st.c.Plan.Cells) {
		switch {
		case len(ev.Payload) == 0:
			frameErr = errors.New("no record payload on cell event in push mode (worker missing -push-records?)")
		default:
			if err := VerifyRecordLine(ev.Payload, st.c.Plan, ev.Cell); err != nil {
				frameErr = err
			} else if err := persistRecordLine(st.c.Dir, ev.Cell, ev.Payload); err != nil {
				// The frame was fine but the coordinator's own disk failed:
				// that is terminal, not the worker's fault.
				st.fail(fmt.Errorf("shard: persisting pushed record for cell %d: %w", ev.Cell, err))
				return
			} else {
				persisted = true
			}
		}
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	switch ev.Kind {
	case transport.EventStart:
		if ev.Plan != "" && ev.Plan != st.c.Plan.Hash {
			st.failLocked(fmt.Errorf("shard: worker on %s runs plan %.12s, coordinator holds %.12s — mismatched directories or binaries",
				st.c.Transport.SlotName(l.slot), ev.Plan, st.c.Plan.Hash))
		}
	case transport.EventCell:
		if ev.Cell < 0 || ev.Cell >= len(st.c.Plan.Cells) {
			return
		}
		if ev.Cost > 0 {
			sc := st.costs[l.slot]
			if sc == nil {
				sc = &slotCost{}
				st.costs[l.slot] = sc
			}
			sc.fold(float64(ev.Cost.Milliseconds()))
			st.m.cellSeconds.Observe(ev.Cost.Seconds())
		}
		costMS := float64(ev.Cost.Milliseconds())
		if st.c.PushRecords {
			if frameErr != nil {
				st.stats.RejectedFrames++
				st.m.rejected.Inc()
				st.c.logf("lease %d on %s: dropped record frame for cell %d (%v) — the cell will be re-run",
					l.id, st.c.Transport.SlotName(l.slot), ev.Cell, frameErr)
				st.c.jot(obs.EvFrameReject, l.slot, l.id, ev.Cell, "%v", frameErr)
				return
			}
			if persisted {
				st.stats.Pushed++
				st.m.pushed.Inc()
				st.c.jot(obs.EvRecordPush, l.slot, l.id, ev.Cell, "%d byte(s) verified and persisted", len(ev.Payload))
				st.markDoneLocked(ev.Cell, l, costMS)
			}
			return
		}
		st.markDoneLocked(ev.Cell, l, costMS)
	}
}

// markDoneLocked records one durable cell. The cell leaves every lease and
// the queue: a stolen cell can be finished by the original straggler (a
// zombie whose records are byte-identical) while its re-lease is queued or
// running, and both outcomes must count it exactly once. ms is the cell's
// reported wall-clock cost for the journal (0 when unknown: settle-time
// claims, degraded-mode completions).
func (st *stealRun) markDoneLocked(idx int, l *lease, ms float64) {
	if l != nil {
		delete(l.cells, idx)
	}
	if st.done[idx] {
		return
	}
	st.done[idx] = true
	st.left--
	st.stats.Completed++
	slot, leaseID := -1, -1
	if l != nil {
		slot, leaseID = l.slot, l.id
	}
	st.c.jotMS(obs.EvCellDone, slot, leaseID, idx, ms, "")
	for _, other := range st.active {
		delete(other.cells, idx)
	}
	// The queue is kept ascending (take pops a prefix, requeueLocked
	// re-sorts), so membership is a binary search, not a scan.
	if i := sort.SearchInts(st.queue, idx); i < len(st.queue) && st.queue[i] == idx {
		st.queue = append(st.queue[:i], st.queue[i+1:]...)
	}
	if st.left == 0 {
		// Finished: reclaim every outstanding worker (stolen-from
		// stragglers still wedged in Wait included) and release the slots.
		st.killActiveLocked()
		st.cond.Broadcast()
	}
}

// settle closes out a lease after its worker exited: cells whose records
// are on disk but whose heartbeat line was lost (worker killed between
// rename and write) are claimed, the rest return to the queue.
func (st *stealRun) settle(l *lease, exitErr error) {
	st.mu.Lock()
	remaining := sortedCells(l.cells)
	st.mu.Unlock()

	var onDisk map[int]bool
	if len(remaining) > 0 {
		onDisk, _, _ = scanCompleted(st.c.Dir, st.c.Plan, remaining)
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	for _, idx := range remaining {
		if onDisk[idx] {
			st.markDoneLocked(idx, l, 0)
		}
	}
	unfinished := sortedCells(l.cells)
	delete(st.active, l.id)
	if len(unfinished) > 0 && !l.stolen && st.failure == nil && st.ctx.Err() == nil {
		st.stats.Requeued += len(unfinished)
		st.m.requeued.Add(int64(len(unfinished)))
		for _, idx := range unfinished {
			st.attempts[idx]++
			st.c.jot(obs.EvRetry, l.slot, l.id, idx, "attempt %d (worker exit: %v)", st.attempts[idx], exitErr)
			if st.attempts[idx] > st.c.maxRetries() {
				st.failLocked(fmt.Errorf("shard: cell %d (%s) failed %d times (last worker error: %v)",
					idx, st.c.Plan.Cells[idx].Cell, st.attempts[idx], exitErr))
				return
			}
		}
		st.requeueLocked(unfinished)
		st.c.logf("lease %d on %s exited (%v) with %d cell(s) unfinished: re-queued",
			l.id, st.c.Transport.SlotName(l.slot), exitErr, len(unfinished))
		st.slotFailureLocked(l.slot, exitErr)
	} else if len(unfinished) == 0 && !l.stolen {
		// Every cell of the lease is durable: the slot did its job, even
		// if the worker's teardown was messy. Forgive its failure history.
		st.slotSuccessLocked(l.slot)
		if exitErr != nil && st.failure == nil && st.ctx.Err() == nil {
			st.c.logf("lease %d on %s: worker exited with %v after finishing its cells",
				l.id, st.c.Transport.SlotName(l.slot), exitErr)
		}
	}
	st.persistLocked()
	st.cond.Broadcast()
}

// finishDegraded runs after every slot goroutine has returned. If the run
// went degraded — cells remain but every slot is dead or quarantined — it
// finishes the remainder in-process through the Fallback sweep, or fails
// explicitly when no fallback is configured. Either way the run ends in a
// merge-ready directory or a non-nil error, never a hang: that is the
// chaos layer's core invariant.
func (st *stealRun) finishDegraded() {
	st.mu.Lock()
	run := st.degraded && st.failure == nil && st.ctx.Err() == nil && st.left > 0
	remaining := append([]int(nil), st.queue...)
	st.mu.Unlock()
	if !run {
		return
	}
	if st.c.Fallback == nil {
		st.fail(fmt.Errorf("shard: every slot is dead or quarantined with %d cell(s) unfinished and no in-process fallback configured — aborting (cells %v)",
			len(remaining), remaining))
		return
	}
	st.c.logf("degraded mode: finishing %d cell(s) in-process %v", len(remaining), remaining)
	st.c.jot(obs.EvDegraded, -1, -1, -1, "finishing %d cell(s) in-process %v", len(remaining), remaining)
	sw := *st.c.Fallback
	sw.Workers = st.c.Workers
	_, err := Run(st.ctx, st.c.Dir, st.c.Plan, &sw, RunOptions{
		Cells:   remaining,
		Journal: st.c.Journal,
		OnCell: func(idx int) {
			st.mu.Lock()
			if !st.done[idx] {
				st.stats.DegradedCells++
				st.m.degraded.Inc()
				st.markDoneLocked(idx, nil, 0)
			}
			st.mu.Unlock()
		},
	})
	if err != nil {
		st.fail(fmt.Errorf("shard: degraded-mode completion failed: %w", err))
	}
}

// monitor expires leases whose heartbeat lapsed and refreshes the
// lease-state file.
func (st *stealRun) monitor() {
	interval := st.c.leaseTimeout() / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-st.ctx.Done():
			return
		case <-ticker.C:
			st.mu.Lock()
			now := st.c.clock()
			for _, l := range st.active {
				if l.worker == nil || l.stolen || now.Sub(l.last) <= st.c.leaseTimeout() {
					continue
				}
				if len(l.cells) == 0 {
					// Every cell of the lease is durable but the worker
					// wedged before exiting (SIGSTOP after its last
					// record, stuck teardown): nothing to steal, but the
					// slot must be reclaimed or it blocks in Wait forever.
					l.stolen = true
					st.c.logf("lease %d on %s: finished its cells but went silent for %s — reclaiming the worker",
						l.id, st.c.Transport.SlotName(l.slot), now.Sub(l.last).Round(time.Millisecond))
					st.c.jotMS(obs.EvHeartbeatLapse, l.slot, l.id, -1,
						float64(now.Sub(l.last).Milliseconds()), "finished its cells; reclaiming the worker")
					l.worker.Kill()
					continue
				}
				st.stealLocked(l, now.Sub(l.last))
			}
			st.checkDegradedLocked()
			st.persistLocked()
			// Wake slots waiting out a backoff or quarantine: expiry is
			// observed against the clock on this tick cadence.
			st.cond.Broadcast()
			st.mu.Unlock()
		}
	}
}

// stealLocked expires one lease: its remaining cells return to the queue
// for any slot to take, and the straggling worker is killed (SIGKILL
// reclaims even a SIGSTOPped process).
func (st *stealRun) stealLocked(l *lease, silence time.Duration) {
	stolen := sortedCells(l.cells)
	l.cells = make(map[int]bool)
	l.stolen = true
	st.stats.Steals++
	st.m.steals.Inc()
	st.requeueLocked(stolen)
	st.c.logf("lease %d on %s: no heartbeat for %s — stole %d cell(s) %v",
		l.id, st.c.Transport.SlotName(l.slot), silence.Round(time.Millisecond), len(stolen), stolen)
	st.c.jotMS(obs.EvHeartbeatLapse, l.slot, l.id, -1, float64(silence.Milliseconds()),
		"silent %s", silence.Round(time.Millisecond))
	st.c.jot(obs.EvSteal, l.slot, l.id, -1, "%d cell(s) re-queued %v", len(stolen), stolen)
	st.slotFailureLocked(l.slot, fmt.Errorf("no heartbeat for %s", silence.Round(time.Millisecond)))
	l.worker.Kill()
	st.cond.Broadcast()
}

// requeueLocked returns cells to the queue, keeping it ascending so lease
// contents stay reproducible given one scheduling history.
func (st *stealRun) requeueLocked(cells []int) {
	st.queue = append(st.queue, cells...)
	sort.Ints(st.queue)
}

func (st *stealRun) fail(err error) {
	st.mu.Lock()
	st.failLocked(err)
	st.mu.Unlock()
}

// failLocked records the first terminal error, kills outstanding workers,
// and wakes every slot so the run unwinds.
func (st *stealRun) failLocked(err error) {
	if st.failure == nil {
		st.failure = err
		st.killActiveLocked()
		st.cancel()
	}
	st.cond.Broadcast()
}

func (st *stealRun) killActiveLocked() {
	for _, l := range st.active {
		if l.worker != nil {
			l.worker.Kill()
		}
	}
}

func sortedCells(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for idx := range set {
		out = append(out, idx)
	}
	sort.Ints(out)
	return out
}

// LeaseInfo is one active lease in a coordinator's state snapshot.
type LeaseInfo struct {
	// ID is the lease's grant sequence number.
	ID int `json:"id"`
	// Slot names the transport slot holding the lease (e.g. "local#0",
	// "ssh:host2").
	Slot string `json:"slot"`
	// Cells are the lease's remaining (not yet durable) cell indices.
	Cells []int `json:"cells"`
	// Done counts the lease's cells that already have durable records.
	Done int `json:"done"`
	// Granted and LastBeat bound the lease's lifetime: LastBeat older than
	// the coordinator's lease timeout means the lease is about to be
	// stolen — `shard status` shows such leases as STALE.
	Granted  time.Time `json:"granted"`
	LastBeat time.Time `json:"last_beat"`
}

// LeaseState is the coordinator's periodically persisted snapshot
// (dir/leases.json): what `shard status` shows about a live run. It is
// advisory observability only — correctness never depends on it, because
// completion is defined by the cell records alone.
type LeaseState struct {
	// Plan is the hash of the plan being executed.
	Plan string `json:"plan"`
	// Time is when the snapshot was written (a stale Time means the
	// coordinator is gone or wedged).
	Time time.Time `json:"time"`
	// Done and Total count the plan's durable and total cells as the
	// coordinator sees them.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Queued is the number of incomplete cells not currently leased.
	Queued int `json:"queued"`
	// Leases and Steals are lifetime counters for this coordinator run.
	Leases int `json:"leases"`
	Steals int `json:"steals"`
	// LeaseTimeoutMS is the coordinator's heartbeat-silence threshold in
	// milliseconds; `shard status` uses it to mark leases whose last beat
	// is older than this as STALE. Zero in snapshots from older binaries.
	LeaseTimeoutMS int64 `json:"lease_timeout_ms,omitempty"`
	// Pushed and RejectedFrames count record frames ingested over worker
	// streams and frames dropped at verification (push-sync runs only).
	Pushed         int `json:"pushed,omitempty"`
	RejectedFrames int `json:"rejected_frames,omitempty"`
	// SlotCosts maps slot names to their online mean per-cell wall-clock
	// cost in milliseconds, as reported by workers on cell heartbeats —
	// the estimate that seeds lease sizes.
	SlotCosts map[string]float64 `json:"slot_cost_ms,omitempty"`
	// Retries maps cell names to how many times a failing worker returned
	// them to the queue (steals excluded). Absent cells have zero retries.
	Retries map[string]int `json:"retries,omitempty"`
	// Health lists slots whose resilience state is not plain ok: in
	// backoff, quarantined (with a re-admission time), probing, or dead.
	Health []SlotHealthInfo `json:"health,omitempty"`
	// ChaosSeed labels the fault-injection schedule active for this run
	// (nbandit chaos); empty for normal runs.
	ChaosSeed string `json:"chaos_seed,omitempty"`
	// DegradedCells counts cells the coordinator finished in-process after
	// every slot died or was quarantined.
	DegradedCells int `json:"degraded_cells,omitempty"`
	// Active lists the outstanding leases.
	Active []LeaseInfo `json:"active,omitempty"`
}

// SlotHealthInfo is one slot's resilience state in a coordinator
// snapshot; only slots not in the ok state are listed.
type SlotHealthInfo struct {
	// Slot names the transport slot (e.g. "local#0", "ssh:host2").
	Slot string `json:"slot"`
	// State is the resilience state: "backoff", "quarantined", "probing",
	// or "dead".
	State string `json:"state"`
	// Failures is the slot's consecutive-failure count.
	Failures int `json:"failures,omitempty"`
	// Quarantines is how many quarantine cycles the slot has served since
	// its last success.
	Quarantines int `json:"quarantines,omitempty"`
	// ReadmitAt is when the current backoff or quarantine expires (the
	// re-admission ETA `shard status` shows); zero for probing/dead.
	ReadmitAt time.Time `json:"readmit_at"`
}

// LeaseStatePath returns the coordinator snapshot's location inside a
// shard directory.
func LeaseStatePath(dir string) string { return filepath.Join(dir, "leases.json") }

// persistLocked writes the lease-state snapshot atomically; failures are
// ignored (the snapshot is advisory, the records are the truth). The
// metrics gauges are refreshed here too, so the scrape view and the
// leases.json view move together.
func (st *stealRun) persistLocked() {
	st.mirrorLocked()
	ls := &LeaseState{
		Plan:           st.c.Plan.Hash,
		Time:           st.c.clock(),
		Done:           len(st.done),
		Total:          len(st.c.Plan.Cells),
		Queued:         len(st.queue),
		Leases:         st.stats.Leases,
		Steals:         st.stats.Steals,
		LeaseTimeoutMS: st.c.leaseTimeout().Milliseconds(),
		Pushed:         st.stats.Pushed,
		RejectedFrames: st.stats.RejectedFrames,
	}
	for slot, sc := range st.costs {
		if sc.meanMS <= 0 {
			continue
		}
		if ls.SlotCosts == nil {
			ls.SlotCosts = make(map[string]float64, len(st.costs))
		}
		ls.SlotCosts[st.c.Transport.SlotName(slot)] = sc.meanMS
	}
	ls.ChaosSeed = st.c.ChaosSeed
	ls.DegradedCells = st.stats.DegradedCells
	for idx, n := range st.attempts {
		if n <= 0 {
			continue
		}
		if ls.Retries == nil {
			ls.Retries = make(map[string]int)
		}
		ls.Retries[st.c.Plan.Cells[idx].Cell] = n
	}
	for slot := 0; slot < st.slots; slot++ {
		h := st.health[slot]
		if h == nil || (h.state == slotOK && h.consec == 0) {
			continue
		}
		ls.Health = append(ls.Health, SlotHealthInfo{
			Slot:        st.c.Transport.SlotName(slot),
			State:       h.state.String(),
			Failures:    h.consec,
			Quarantines: h.quarantines,
			ReadmitAt:   h.until,
		})
	}
	ids := make([]int, 0, len(st.active))
	for id := range st.active {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		l := st.active[id]
		// Done is computed against the global done set, not the lease's
		// remaining set: a stolen lease has its remaining cells cleared
		// without them being complete, and must not read as finished.
		leaseDone := 0
		for _, idx := range l.batch {
			if st.done[idx] {
				leaseDone++
			}
		}
		ls.Active = append(ls.Active, LeaseInfo{
			ID: l.id, Slot: st.c.Transport.SlotName(l.slot),
			Cells: sortedCells(l.cells), Done: leaseDone,
			Granted: l.granted, LastBeat: l.last,
		})
	}
	raw, err := json.MarshalIndent(ls, "", "  ")
	if err != nil {
		return
	}
	_ = atomicWrite(LeaseStatePath(st.c.Dir), append(raw, '\n'))
}
