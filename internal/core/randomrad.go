package core

import (
	"math/rand"
	"sort"

	"krad/internal/sched"
)

// RandomRAD is RAD with a randomized round-robin order: each cycle serves
// the unmarked α-active jobs in a fresh seeded-random order instead of
// ascending job ID. Theorem 1's adversary is built against deterministic
// schedulers — it arranges the critical job to be the last one the fixed
// queue order reaches. Against a randomized order the (oblivious)
// adversary cannot know the position, so the critical level-1 task runs in
// expectation half a cycle earlier, and the measured adversarial ratio
// drops below the deterministic K + 1 − 1/Pmax limit (experiment E19) —
// matching the paper's remark that the randomized lower bound (Shmoys et
// al.: 2 − 1/√P at K = 1) is weaker than the deterministic one.
//
// Everything else (DEQ under light load, marking, cycle completion with
// rotation) matches RAD, so light-load behavior is identical.
type RandomRAD struct {
	rr  RoundRobin
	rng *rand.Rand
	// order is the current cycle's service order (job IDs), drawn when a
	// new cycle begins.
	order map[int]int
	// horizon is the leap-safety report of the most recent Allot call; the
	// DEQ branch draws no random numbers, so the same stability analysis
	// as deterministic RAD applies (see RAD.StableHorizon).
	horizon int64
}

// NewRandomRAD returns a randomized single-category RAD. Deterministic for
// a given seed.
func NewRandomRAD(seed int64) *RandomRAD {
	return &RandomRAD{
		rng:   rand.New(rand.NewSource(seed)),
		order: make(map[int]int),
	}
}

// Name implements sched.CategoryScheduler.
func (r *RandomRAD) Name() string { return "random-rad" }

// Allot mirrors RAD.Allot with a per-cycle random permutation of the
// unmarked queue.
func (r *RandomRAD) Allot(t int64, jobs []sched.CatJob, p int) []int {
	if len(jobs) == 0 {
		r.horizon = sched.Unbounded
		return emptyAllot
	}
	allot := make([]int, len(jobs))
	if p <= 0 {
		r.horizon = sched.Unbounded
		return allot
	}
	q, qp := r.rr.Split(jobs, make([]int, 0, len(jobs)), make([]int, 0, len(jobs)))
	if len(q) > p {
		r.horizon = 0
		// Assign cycle positions lazily: jobs without a position in the
		// current cycle draw one.
		for _, i := range q {
			if _, ok := r.order[jobs[i].ID]; !ok {
				r.order[jobs[i].ID] = r.rng.Int()
			}
		}
		// Serve the p unmarked jobs with the smallest cycle keys.
		sort.Slice(q, func(a, b int) bool { return r.order[jobs[q[a]].ID] < r.order[jobs[q[b]].ID] })
		served := q[:p]
		for _, i := range served {
			allot[i] = 1
		}
		sort.Ints(served) // back to ID order for the mark merge
		r.rr.Serve(jobs, served)
		return allot
	}
	// Same leap-safety rule as RAD: stable only when this step was pure
	// DEQ over a mark-free queue (the rng is untouched on this branch).
	if len(qp) == 0 {
		r.horizon = deqStableHorizon(jobs, p)
	} else {
		r.horizon = 0
	}
	q = r.rr.Complete(q, qp, p)
	desires := make([]int, len(q))
	for j, i := range q {
		desires[j] = jobs[i].Desire
	}
	for j, a := range Deq(desires, p, int(t)) {
		allot[q[j]] = a
	}
	clear(r.order) // next overload starts a fresh random cycle
	return allot
}

// StableHorizon implements sched.CategoryStable; see RAD.StableHorizon.
func (r *RandomRAD) StableHorizon() int64 { return r.horizon }

// LeapTotals implements sched.CategoryStable; the DEQ branch is identical
// to deterministic RAD's, so the same closed form applies.
func (r *RandomRAD) LeapTotals(t int64, jobs []sched.CatJob, p int, n int64, dst []int) {
	deqLeapTotals(t, jobs, p, n, dst)
}

// JobsDone drops per-job state.
func (r *RandomRAD) JobsDone(ids []int) {
	r.rr.JobsDone(ids)
	for _, id := range ids {
		delete(r.order, id)
	}
}

// NewRandomKRAD composes K randomized RADs.
func NewRandomKRAD(k int, seed int64) *sched.PerCategory {
	cats := make([]sched.CategoryScheduler, k)
	for i := range cats {
		cats[i] = NewRandomRAD(seed + int64(i)*7919)
	}
	return sched.NewPerCategory("k-rad-random", cats)
}

var (
	_ sched.CategoryScheduler = (*RandomRAD)(nil)
	_ sched.CategoryCompleter = (*RandomRAD)(nil)
	_ sched.CategoryStable    = (*RandomRAD)(nil)
)
