package core

import (
	"encoding/json"
	"fmt"
	"slices"

	"krad/internal/sched"
)

// RoundRobin is the state batched round-robin cycles carry between steps:
// which jobs were already served in the current cycle (Figure 2's marks),
// and which marked jobs receive the next cycle-completing bonus. RAD,
// RandomRAD and the rr-only baseline share it.
//
// The marks are an ascending list of job IDs. Jobs enter it only when
// served and leave it when the cycle completes or when JobsDone reports
// them finished, so it never holds more than the live jobs, however high
// job IDs climb in a long-running daemon. Split, Serve and JobsDone are
// each one merge pass over the marks and their argument; completing a
// cycle truncates the list.
type RoundRobin struct {
	marked []int // ascending IDs of the jobs served in the current cycle
	// rot rotates which marked jobs receive the cycle-completing bonus
	// service (the move from Q′ to Q). Figure 2 leaves the choice
	// unspecified; rotating it keeps long-run service counts equal instead
	// of systematically favoring the lowest job IDs.
	rot int
}

// Split appends to q the indices of the jobs not yet served in the current
// cycle (Q) and to qp the indices of those already served (Q′), both in
// job order. jobs is in ascending ID order (the CategoryScheduler
// contract), so a single cursor walks the marks alongside it.
func (rr *RoundRobin) Split(jobs []sched.CatJob, q, qp []int) ([]int, []int) {
	m, c := rr.marked, 0
	for i, j := range jobs {
		for c < len(m) && m[c] < j.ID {
			c++
		}
		if c < len(m) && m[c] == j.ID {
			qp = append(qp, i)
		} else {
			q = append(q, i)
		}
	}
	return q, qp
}

// Serve marks jobs[i] served for every index i in idx, which must be
// ascending. The new IDs are merged into the marks from the back, in
// place.
func (rr *RoundRobin) Serve(jobs []sched.CatJob, idx []int) {
	n := len(rr.marked)
	m := slices.Grow(rr.marked, len(idx))[:n+len(idx)]
	k := len(m) - 1
	for j := len(idx) - 1; j >= 0; j-- {
		id := jobs[idx[j]].ID
		for n > 0 && m[n-1] > id {
			m[k] = m[n-1]
			n--
			k--
		}
		m[k] = id
		k--
	}
	rr.marked = m
}

// Complete ends the current cycle: it appends to q up to p−len(q) of the
// served jobs in qp — the bonus, rotated across cycles — so no processor
// idles, then clears every mark. It returns the extended q.
func (rr *RoundRobin) Complete(q, qp []int, p int) []int {
	if need := min(p-len(q), len(qp)); need > 0 {
		start := rr.rot % len(qp)
		for j := 0; j < need; j++ {
			q = append(q, qp[(start+j)%len(qp)])
		}
		rr.rot += need
	}
	rr.marked = rr.marked[:0]
	return q
}

// JobsDone drops the marks of finished jobs in one merge pass; ids is in
// ascending order (the sched.Completer contract).
func (rr *RoundRobin) JobsDone(ids []int) {
	if len(rr.marked) == 0 {
		return
	}
	out, c := rr.marked[:0], 0
	for _, id := range rr.marked {
		for c < len(ids) && ids[c] < id {
			c++
		}
		if c == len(ids) || ids[c] != id {
			out = append(out, id)
		}
	}
	rr.marked = out
}

// RAD is the single-category adaptive scheduler of Figure 2. When the
// number of α-active jobs is at most the processor count it behaves as DEQ
// (space sharing); when the category is overloaded it runs batched
// round-robin cycles (time sharing): each cycle gives every α-active job
// one processor for one step before any job is scheduled twice.
//
// The only state carried between steps is the RoundRobin marks and bonus
// rotation, so one Allot costs O(α-active jobs + marks) and the state is
// bounded by the live jobs. A RAD value is stateful and must not be
// shared between concurrent simulations; K-RAD builds one RAD per
// category.
type RAD struct {
	rr RoundRobin
	// horizon is the leap-safety report of the most recent Allot/AllotInto
	// call; see StableHorizon.
	horizon int64
	// Scratch reused across Allot calls; each call clobbers all of it.
	q, qp, desires, deqAllot, deqScratch []int
}

// NewRAD returns a fresh single-category RAD scheduler.
func NewRAD() *RAD { return &RAD{} }

// Name implements sched.CategoryScheduler.
func (r *RAD) Name() string { return "rad" }

// emptyAllot is the shared zero-length allotment returned for empty job
// sets so idle categories do not allocate every step.
var emptyAllot = []int{}

// growInts returns buf resliced to length n, reallocating only when the
// capacity is insufficient.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n, n+n/2+8)
	}
	return buf[:n]
}

// Allot implements the RAD procedure of Figure 2 for one category:
//
//	Q  ← unmarked α-active jobs (ascending ID = queue order)
//	Q′ ← marked α-active jobs
//	if |Q| > P  → ROUND-ROBIN: the first P jobs of Q get one processor
//	              each and are marked
//	else        → move min(|Q′|, P−|Q|) jobs from Q′ to Q, partition the
//	              processors over Q with DEQ, and unmark all jobs (the
//	              round-robin cycle, if any, is complete)
func (r *RAD) Allot(t int64, jobs []sched.CatJob, p int) []int {
	if len(jobs) == 0 {
		r.horizon = sched.Unbounded
		return emptyAllot
	}
	allot := make([]int, len(jobs))
	r.AllotInto(t, jobs, p, allot)
	return allot
}

// AllotInto is Allot writing into caller-owned storage: dst must have
// len(jobs) entries and is fully overwritten. It implements
// sched.CategoryIntoAllotter so PerCategory's hot path allocates nothing.
func (r *RAD) AllotInto(t int64, jobs []sched.CatJob, p int, dst []int) {
	for i := range dst {
		dst[i] = 0
	}
	if len(jobs) == 0 || p <= 0 {
		// No jobs (or no processors): the all-zero output repeats as long
		// as the inputs do.
		r.horizon = sched.Unbounded
		return
	}
	// Split into Q (unmarked) and Q′ (marked), preserving ID order.
	q, qp := r.rr.Split(jobs, growInts(r.q, len(jobs))[:0], growInts(r.qp, len(jobs))[:0])
	r.q, r.qp = q, qp
	if len(q) > p {
		// ROUND-ROBIN: first P jobs of Q get one processor each, marked.
		// Mid-cycle state changes every step, so never leap over it.
		r.horizon = 0
		for _, i := range q[:p] {
			dst[i] = 1
		}
		r.rr.Serve(jobs, q[:p])
		return
	}
	// Leap safety: with no marks at entry this call was pure DEQ and left
	// the marks and rotation untouched, so the horizon is DEQ's. A cycle
	// completion (marks present) mutates rot — settle one step at a time.
	if len(qp) == 0 {
		r.horizon = deqStableHorizon(jobs, p)
	} else {
		r.horizon = 0
	}
	// Cycle completes this step: fill Q from Q′ so no processor idles, and
	// unmark all jobs — a new cycle starts next step if still overloaded.
	q = r.rr.Complete(q, qp, p)
	desires := growInts(r.desires, len(q))
	for j, i := range q {
		desires[j] = jobs[i].Desire
	}
	r.desires = desires
	r.deqAllot = growInts(r.deqAllot, len(q))
	r.deqScratch = growInts(r.deqScratch, len(q))
	for j, a := range DeqInto(r.deqAllot, r.deqScratch, desires, p, int(t)) {
		dst[q[j]] = a
	}
}

// StableHorizon implements sched.CategoryStable: it reports how many
// additional consecutive steps after the most recent Allot call stay in
// closed form, assuming the engine's leap law (unchanged α-active set,
// every desire decreasing by exactly its allotment each step). Non-zero
// only in DEQ mode with no round-robin marks and every job strictly
// deprived — the regime where each step is the equal share plus a
// t-rotated remainder that deqLeapTotals accounts for exactly.
func (r *RAD) StableHorizon() int64 { return r.horizon }

// LeapTotals implements sched.CategoryStable via the closed-form
// all-deprived DEQ aggregate; see deqLeapTotals.
func (r *RAD) LeapTotals(t int64, jobs []sched.CatJob, p int, n int64, dst []int) {
	deqLeapTotals(t, jobs, p, n, dst)
}

// JobsDone drops marks of completed jobs so state cannot grow without
// bound across long online runs.
func (r *RAD) JobsDone(ids []int) { r.rr.JobsDone(ids) }

// radState is the serialized form of a RAD's cross-step state.
type radState struct {
	Marked []int `json:"marked,omitempty"`
	Rot    int   `json:"rot"`
}

// SnapshotState captures the round-robin marks and the bonus-service
// rotation, the only state RAD carries between steps. The marks are kept
// ascending, so the encoding is deterministic and costs O(marks).
func (r *RAD) SnapshotState() ([]byte, error) {
	return json.Marshal(radState{Marked: r.rr.marked, Rot: r.rr.rot})
}

// RestoreState rebuilds the marks and rotation from a SnapshotState
// encoding.
func (r *RAD) RestoreState(data []byte) error {
	var st radState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("core: decode rad state: %w", err)
	}
	for _, id := range st.Marked {
		if id < 0 {
			return fmt.Errorf("core: rad state has negative job ID %d", id)
		}
	}
	slices.Sort(st.Marked)
	r.rr = RoundRobin{marked: slices.Compact(st.Marked), rot: st.Rot}
	r.horizon = 0
	return nil
}

var (
	_ sched.CategoryScheduler    = (*RAD)(nil)
	_ sched.CategoryCompleter    = (*RAD)(nil)
	_ sched.CategorySnapshotter  = (*RAD)(nil)
	_ sched.CategoryIntoAllotter = (*RAD)(nil)
	_ sched.CategoryStable       = (*RAD)(nil)
)

// NewKRAD returns the paper's K-RAD scheduler for k resource categories:
// one independent RAD per category, assembled with sched.PerCategory.
func NewKRAD(k int) *sched.PerCategory {
	cats := make([]sched.CategoryScheduler, k)
	for i := range cats {
		cats[i] = NewRAD()
	}
	return sched.NewPerCategory("k-rad", cats)
}
