// Package sched defines the scheduling interface of the K-resource model
// (Section 2 of the paper) and shared helpers. A Scheduler observes, at
// each time step, only the identities and instantaneous per-category
// desires of the active jobs — never release times, parallelism profiles,
// or remaining work — and returns integer allotments bounded by the
// per-category processor counts. That restriction is what "online
// non-clairvoyant" means; clairvoyant baselines must opt in explicitly via
// the Clairvoyant interface.
package sched

import (
	"encoding/json"
	"fmt"
	"math"
)

// JobView is the scheduler-visible snapshot of one active job at one step.
type JobView struct {
	// ID is the engine-assigned job identifier. IDs are assigned in
	// submission order, so ascending ID is ascending arrival order — the
	// queue order RAD's round-robin uses.
	ID int
	// Desire[α−1] is d(Ji, α, t): the number of ready α-tasks.
	Desire []int
	// Floor[α−1] is the job's non-preemptive allotment floor: processors
	// occupied by in-flight multi-step tasks that cannot be taken away
	// this step. Nil for unit-task jobs (every floor zero). Valid
	// allotments satisfy allot ≥ floor; use WithFloors to make any
	// scheduler floor-respecting.
	Floor []int
}

// TotalDesire returns Σα Desire[α].
func (j JobView) TotalDesire() int {
	n := 0
	for _, d := range j.Desire {
		n += d
	}
	return n
}

// Scheduler computes processor allotments each step.
type Scheduler interface {
	// Name identifies the algorithm in traces and reports.
	Name() string
	// Allot returns, for each job in jobs (same order), an allotment
	// vector indexed by α−1, such that for every category α the column
	// sum is at most caps[α−1]. jobs contains exactly the active
	// (released, uncompleted) jobs at step t, in ascending ID order.
	// Implementations must not retain jobs or the returned slices.
	Allot(t int64, jobs []JobView, caps []int) [][]int
}

// Unbounded is the StableHorizon value meaning "no scheduler-imposed leap
// limit". The engine still bounds leaps by pending releases, the caller's
// step budget, and MaxSteps.
const Unbounded int64 = math.MaxInt64

// Stable is an optional Scheduler capability powering the engine's
// event-leap.
//
// StableHorizon reports how many additional consecutive steps after the
// most recent Allot call are in a stable regime: the scheduler's
// cross-step state (marks, rotations, rng) does not change, every job's
// desire stays strictly positive, and the per-step allotments are
// computable in closed form by LeapTotals. The report assumes the
// engine's leap law over those steps: (a) the active job set does not
// change, and (b) every job's per-category desire decreases by exactly
// its allotment each step (the regime profile-backed jobs are in
// mid-phase). 0 means "do not leap this round"; Unbounded means no
// scheduler-imposed limit. The value is consumed immediately after Allot
// and invalidated by the next Allot call.
//
// LeapTotals accumulates into dst — shaped like the Allot result (one row
// per job, len(caps) columns) and zeroed by the caller — the TOTAL
// allotment each job receives over the n steps t..t+n−1, where t, jobs
// and caps are exactly the arguments of that most recent Allot call and
// 1 ≤ n ≤ StableHorizon()+1 (the call's own step plus the horizon). Each
// covered step's column sums equal the Allot result's column sums, so
// per-step aggregates (traces, utilization) reproduce exactly.
//
// Per-step bound: over the covered window, no job's allotment at any
// single step exceeds its Allot-result entry by more than one, and stays
// zero wherever that entry is zero. (DEQ's rotating remainder moves one
// bonus processor between deprived jobs; nothing moves more.) The engine
// feeds this bound to DAG-backed runtimes (sim.StableRuntime) to verify
// that no frontier level can drain mid-window; implementations whose
// per-step allotments can vary by more than one must report horizon 0 for
// the affected window instead.
//
// Law (b) is the DRAIN law — the contract unit-task runtimes satisfy. Its
// complement, the HOLD law (a job whose desire is pinned at its
// non-preemptive floor receives exactly the floor each covered step), is
// not part of this interface: WithFloors layers it on top by projecting
// held jobs out of the inner scheduler's view and re-adding their frozen
// floors, so inner implementations only ever reason about draining jobs.
type Stable interface {
	StableHorizon() int64
	LeapTotals(t int64, jobs []JobView, caps []int, n int64, dst [][]int)
}

// CategoryStable mirrors Stable for per-category schedulers, under the
// same law restricted to the category's α-active jobs.
type CategoryStable interface {
	StableHorizon() int64
	LeapTotals(t int64, jobs []CatJob, p int, n int64, dst []int)
}

// IntoAllotter is an optional Scheduler extension for allocation-free
// stepping: AllotInto behaves exactly like Allot but writes the matrix
// into caller-owned storage. dst has one row per job, each row of
// len(caps); rows are fully overwritten. Callers own dst and may reuse it
// across calls (see Matrix); implementations must not retain it.
type IntoAllotter interface {
	AllotInto(t int64, jobs []JobView, caps []int, dst [][]int)
}

// CategoryIntoAllotter mirrors IntoAllotter for per-category schedulers:
// dst has len(jobs) entries and is fully overwritten.
type CategoryIntoAllotter interface {
	AllotInto(t int64, jobs []CatJob, p int, dst []int)
}

// Matrix is a reusable allotment matrix backed by a single flat []int, for
// hot paths that call AllotWith every step without allocating.
type Matrix struct {
	rows [][]int
	back []int
}

// Shape returns an n×k matrix of zeros, reusing the backing storage when
// capacity allows. The returned rows alias the Matrix and are invalidated
// by the next Shape call.
func (m *Matrix) Shape(n, k int) [][]int {
	if cap(m.back) < n*k {
		m.back = make([]int, n*k, n*k+n*k/2+16)
	}
	m.back = m.back[:n*k]
	for i := range m.back {
		m.back[i] = 0
	}
	if cap(m.rows) < n {
		m.rows = make([][]int, n, n+n/2+8)
	}
	m.rows = m.rows[:n]
	for i := range m.rows {
		m.rows[i] = m.back[i*k : (i+1)*k : (i+1)*k]
	}
	return m.rows
}

// AllotWith invokes s.AllotInto when implemented, reusing m's storage, and
// falls back to plain Allot otherwise. The result is valid until m's next
// Shape call (into path) or owned by the caller (fallback path).
func AllotWith(s Scheduler, t int64, jobs []JobView, caps []int, m *Matrix) [][]int {
	if ia, ok := s.(IntoAllotter); ok {
		dst := m.Shape(len(jobs), len(caps))
		ia.AllotInto(t, jobs, caps, dst)
		return dst
	}
	return s.Allot(t, jobs, caps)
}

// Completer is implemented by stateful schedulers (such as RAD's
// round-robin marking) that want to drop per-job state when jobs finish.
// The engine calls JobsDone after each step with the IDs of jobs that
// completed during the step, in ascending order.
type Completer interface {
	JobsDone(ids []int)
}

// Snapshotter is implemented by schedulers whose cross-step state can be
// captured and later restored into a fresh instance. It exists for
// durability: journal compaction (internal/journal) replaces a replay
// prefix with a checkpoint, which is only sound when the scheduler's
// state at the checkpoint — round-robin rotations, marks, queue
// positions — travels with it. Schedulers that do not implement it are
// still journaled and replayed exactly; their journals are just never
// compacted. SnapshotState must return a self-contained encoding;
// RestoreState must accept exactly what SnapshotState produced and may
// assume a freshly constructed receiver.
type Snapshotter interface {
	SnapshotState() ([]byte, error)
	RestoreState([]byte) error
}

// CategorySnapshotter mirrors Snapshotter for per-category schedulers.
type CategorySnapshotter interface {
	SnapshotState() ([]byte, error)
	RestoreState([]byte) error
}

// Oracle exposes clairvoyant per-job information. Only baselines labelled
// clairvoyant receive one; the algorithms under study never see it.
type Oracle interface {
	// RemainingWork returns the unexecuted task count of the job per
	// category (indexed α−1).
	RemainingWork(jobID int) []int
	// ReleaseTime returns the job's release time.
	ReleaseTime(jobID int) int64
}

// Clairvoyant is implemented by schedulers that require an Oracle. The
// engine injects it before the run starts.
type Clairvoyant interface {
	SetOracle(Oracle)
}

// ValidateAllotments checks the Section 2 validity conditions on a
// scheduler's output: one allotment row per job, rows shaped like caps,
// non-negative entries, and per-category column sums within capacity.
// It returns a descriptive error on the first violation.
func ValidateAllotments(jobs []JobView, caps []int, allot [][]int) error {
	if len(allot) != len(jobs) {
		return fmt.Errorf("sched: %d allotment rows for %d jobs", len(allot), len(jobs))
	}
	sums := make([]int, len(caps))
	for i, row := range allot {
		if len(row) != len(caps) {
			return fmt.Errorf("sched: job %d allotment row has %d categories, want %d", jobs[i].ID, len(row), len(caps))
		}
		for a, v := range row {
			if v < 0 {
				return fmt.Errorf("sched: job %d category %d negative allotment %d", jobs[i].ID, a+1, v)
			}
			if jobs[i].Floor != nil && v < jobs[i].Floor[a] {
				return fmt.Errorf("sched: job %d category %d allotment %d below non-preemptive floor %d", jobs[i].ID, a+1, v, jobs[i].Floor[a])
			}
			sums[a] += v
		}
	}
	for a, s := range sums {
		if s > caps[a] {
			return fmt.Errorf("sched: category %d total allotment %d exceeds capacity %d", a+1, s, caps[a])
		}
	}
	return nil
}

// CatJob is the single-category projection of a JobView used by
// per-category schedulers.
type CatJob struct {
	ID     int
	Desire int
}

// CategoryScheduler allocates the processors of one resource category among
// the jobs that currently desire them. RAD is a CategoryScheduler; K-RAD is
// K of them glued together by PerCategory.
type CategoryScheduler interface {
	Name() string
	// Allot returns one allotment per job (same order). jobs contains
	// exactly the α-active jobs (desire > 0) in ascending ID order; p is
	// the category's processor count.
	Allot(t int64, jobs []CatJob, p int) []int
}

// CategoryCompleter mirrors Completer for per-category schedulers.
type CategoryCompleter interface {
	JobsDone(ids []int)
}

// PerCategory lifts K independent CategoryScheduler instances (one per
// resource category) into a full Scheduler. This is exactly the structure
// of K-RAD: "assigns one RAD scheduler to each category α of processors".
type PerCategory struct {
	name string
	cats []CategoryScheduler
	// Scratch reused across AllotInto calls (single-simulation use only,
	// like the category schedulers themselves).
	catJobs []CatJob
	idx     []int
	catOut  []int
}

// NewPerCategory builds a Scheduler from per-category schedulers. The slice
// index is α−1.
func NewPerCategory(name string, cats []CategoryScheduler) *PerCategory {
	return &PerCategory{name: name, cats: cats}
}

// Name returns the composite scheduler's name.
func (p *PerCategory) Name() string { return p.name }

// Category returns the scheduler responsible for category α (1-based),
// mainly for tests and ablations.
func (p *PerCategory) Category(alpha int) CategoryScheduler { return p.cats[alpha-1] }

// Allot projects the jobs onto each category (keeping only α-active jobs,
// preserving ID order), delegates to that category's scheduler, and
// reassembles the full allotment matrix. The result is freshly allocated
// (callers may retain it); hot paths use AllotInto via AllotWith instead.
func (p *PerCategory) Allot(t int64, jobs []JobView, caps []int) [][]int {
	allot := make([][]int, len(jobs))
	rows := make([]int, 0, len(jobs)*len(caps))
	if len(jobs)*len(caps) > 0 {
		rows = make([]int, len(jobs)*len(caps))
	}
	for i := range jobs {
		allot[i] = rows[i*len(caps) : (i+1)*len(caps) : (i+1)*len(caps)]
	}
	p.AllotInto(t, jobs, caps, allot)
	return allot
}

// AllotInto implements IntoAllotter: the same projection as Allot, writing
// into dst (one row per job, each row len(caps), fully overwritten) and
// asking each category scheduler for its CategoryIntoAllotter fast path
// before falling back to the allocating Allot.
func (p *PerCategory) AllotInto(t int64, jobs []JobView, caps []int, dst [][]int) {
	if len(caps) != len(p.cats) {
		panic(fmt.Sprintf("sched: PerCategory %q built for K=%d but given %d capacities", p.name, len(p.cats), len(caps)))
	}
	catJobs := p.catJobs[:0]
	idx := p.idx[:0]
	for a := range p.cats {
		catJobs = catJobs[:0]
		idx = idx[:0]
		for i, j := range jobs {
			dst[i][a] = 0
			if j.Desire[a] > 0 {
				catJobs = append(catJobs, CatJob{ID: j.ID, Desire: j.Desire[a]})
				idx = append(idx, i)
			}
		}
		var out []int
		if ia, ok := p.cats[a].(CategoryIntoAllotter); ok {
			if cap(p.catOut) < len(catJobs) {
				p.catOut = make([]int, len(catJobs), len(catJobs)*2+8)
			}
			out = p.catOut[:len(catJobs)]
			ia.AllotInto(t, catJobs, caps[a], out)
		} else {
			out = p.cats[a].Allot(t, catJobs, caps[a])
			if len(out) != len(catJobs) {
				panic(fmt.Sprintf("sched: category %d scheduler %q returned %d allotments for %d jobs", a+1, p.cats[a].Name(), len(out), len(catJobs)))
			}
		}
		for j, v := range out {
			dst[idx[j]][a] = v
		}
	}
	p.catJobs, p.idx = catJobs[:0], idx[:0]
}

// StableHorizon implements Stable: the composite is stable for as long as
// every category is, so the horizon is the minimum over categories. A
// category scheduler that does not report stability pins the horizon to 0.
func (p *PerCategory) StableHorizon() int64 {
	h := Unbounded
	for _, c := range p.cats {
		cs, ok := c.(CategoryStable)
		if !ok {
			return 0
		}
		if ch := cs.StableHorizon(); ch < h {
			h = ch
			if h == 0 {
				return 0
			}
		}
	}
	return h
}

// LeapTotals implements Stable by re-projecting jobs per category (the
// same projection Allot used — jobs must be the same slice contents) and
// delegating to each category's CategoryStable. Only called when
// StableHorizon reported ≥ n−1, which implies every category implements
// CategoryStable.
func (p *PerCategory) LeapTotals(t int64, jobs []JobView, caps []int, n int64, dst [][]int) {
	catJobs := p.catJobs[:0]
	idx := p.idx[:0]
	for a := range p.cats {
		catJobs = catJobs[:0]
		idx = idx[:0]
		for i, j := range jobs {
			if j.Desire[a] > 0 {
				catJobs = append(catJobs, CatJob{ID: j.ID, Desire: j.Desire[a]})
				idx = append(idx, i)
			}
		}
		if cap(p.catOut) < len(catJobs) {
			p.catOut = make([]int, len(catJobs), len(catJobs)*2+8)
		}
		out := p.catOut[:len(catJobs)]
		for i := range out {
			out[i] = 0
		}
		p.cats[a].(CategoryStable).LeapTotals(t, catJobs, caps[a], n, out)
		for j, v := range out {
			dst[idx[j]][a] = v
		}
	}
	p.catJobs, p.idx = catJobs[:0], idx[:0]
}

// JobsDone forwards completion notifications to every per-category
// scheduler that cares.
func (p *PerCategory) JobsDone(ids []int) {
	for _, c := range p.cats {
		if cc, ok := c.(CategoryCompleter); ok {
			cc.JobsDone(ids)
		}
	}
}

// SnapshotState captures every per-category scheduler's state, failing if
// any category scheduler does not implement CategorySnapshotter — partial
// checkpoints would silently desynchronize replay.
func (p *PerCategory) SnapshotState() ([]byte, error) {
	states := make([][]byte, len(p.cats))
	for i, c := range p.cats {
		cs, ok := c.(CategorySnapshotter)
		if !ok {
			return nil, fmt.Errorf("sched: category %d scheduler %q does not support state snapshots", i+1, c.Name())
		}
		st, err := cs.SnapshotState()
		if err != nil {
			return nil, fmt.Errorf("sched: category %d scheduler %q: %w", i+1, c.Name(), err)
		}
		states[i] = st
	}
	return json.Marshal(states)
}

// RestoreState distributes a SnapshotState encoding back over the
// per-category schedulers.
func (p *PerCategory) RestoreState(data []byte) error {
	var states [][]byte
	if err := json.Unmarshal(data, &states); err != nil {
		return fmt.Errorf("sched: decode per-category state: %w", err)
	}
	if len(states) != len(p.cats) {
		return fmt.Errorf("sched: state has %d categories, scheduler %q has %d", len(states), p.name, len(p.cats))
	}
	for i, c := range p.cats {
		cs, ok := c.(CategorySnapshotter)
		if !ok {
			return fmt.Errorf("sched: category %d scheduler %q does not support state snapshots", i+1, c.Name())
		}
		if err := cs.RestoreState(states[i]); err != nil {
			return fmt.Errorf("sched: category %d scheduler %q: %w", i+1, c.Name(), err)
		}
	}
	return nil
}

var (
	_ Scheduler    = (*PerCategory)(nil)
	_ Completer    = (*PerCategory)(nil)
	_ Snapshotter  = (*PerCategory)(nil)
	_ IntoAllotter = (*PerCategory)(nil)
	_ Stable       = (*PerCategory)(nil)
)
