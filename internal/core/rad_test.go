package core

import (
	"slices"
	"testing"

	"krad/internal/sched"
)

func catJobs(desires ...int) []sched.CatJob {
	jobs := make([]sched.CatJob, len(desires))
	for i, d := range desires {
		jobs[i] = sched.CatJob{ID: i, Desire: d}
	}
	return jobs
}

func TestRADLightLoadIsDEQ(t *testing.T) {
	r := NewRAD()
	jobs := catJobs(1, 9, 9)
	got := r.Allot(1, jobs, 9)
	if got[0] != 1 || got[1]+got[2] != 8 {
		t.Errorf("light-load allot = %v", got)
	}
}

func TestRADEmpty(t *testing.T) {
	r := NewRAD()
	if got := r.Allot(1, nil, 4); len(got) != 0 {
		t.Errorf("empty allot = %v", got)
	}
	got := r.Allot(1, catJobs(3, 3), 0)
	if got[0] != 0 || got[1] != 0 {
		t.Errorf("p=0 allot = %v", got)
	}
}

func TestRADOverloadRunsRoundRobinCycle(t *testing.T) {
	// 5 jobs, 2 processors: the cycle needs ⌈5/2⌉ = 3 steps; every job
	// must be scheduled exactly once before any job is scheduled twice.
	r := NewRAD()
	jobs := catJobs(4, 4, 4, 4, 4)
	scheduledAt := make(map[int]int64)

	for step := int64(1); step <= 2; step++ {
		got := r.Allot(step, jobs, 2)
		count := 0
		for i, a := range got {
			if a > 0 {
				if a != 1 {
					t.Fatalf("step %d: RR gave job %d allotment %d", step, i, a)
				}
				if _, dup := scheduledAt[i]; dup {
					t.Fatalf("step %d: job %d scheduled twice within cycle", step, i)
				}
				scheduledAt[i] = step
				count++
			}
		}
		if count != 2 {
			t.Fatalf("step %d: scheduled %d jobs, want 2", step, count)
		}
	}
	// Step 3 completes the cycle: the 1 unmarked job plus 1 marked job
	// moved over, partitioned by DEQ.
	got := r.Allot(3, jobs, 2)
	total := 0
	unmarkedServed := false
	for i, a := range got {
		total += a
		if _, seen := scheduledAt[i]; !seen && a > 0 {
			unmarkedServed = true
		}
	}
	if !unmarkedServed {
		t.Error("cycle-completing step skipped the remaining unmarked job")
	}
	if total != 2 {
		t.Errorf("cycle-completing step allotted %d processors, want 2", total)
	}

	// After the cycle all marks are cleared: the next step starts a fresh
	// cycle over all 5 jobs again.
	got = r.Allot(4, jobs, 2)
	count := 0
	for i, a := range got {
		if a > 0 {
			if i >= 2 {
				t.Errorf("fresh cycle did not start from the queue head: job %d served", i)
			}
			count++
		}
	}
	if count != 2 {
		t.Errorf("fresh cycle scheduled %d jobs", count)
	}
}

func TestRADRoundRobinNoStarvation(t *testing.T) {
	// Under sustained overload, RAD's guarantee is per-cycle service:
	// every α-active job is scheduled at least once per round-robin cycle
	// and at most twice (its RR turn plus possibly one cycle-completing
	// bonus). With 7 jobs on 3 processors a cycle is 3 steps, so over
	// 63 steps (21 cycles) every job gets between 21 and 42 services —
	// and the bonus rotation keeps the jobs that are eligible for bonuses
	// within one of each other.
	r := NewRAD()
	jobs := catJobs(2, 2, 2, 2, 2, 2, 2)
	served := make([]int, len(jobs))
	const cycles = 21
	for step := int64(1); step <= 3*cycles; step++ {
		got := r.Allot(step, jobs, 3)
		total := 0
		for i, a := range got {
			served[i] += a
			total += a
		}
		if total != 3 {
			t.Fatalf("step %d: used %d of 3 processors under overload", step, total)
		}
	}
	for i, s := range served {
		if s < cycles {
			t.Errorf("job %d starved: served %d times in %d cycles", i, s, cycles)
		}
		if s > 2*cycles {
			t.Errorf("job %d over-served: %d times in %d cycles", i, s, cycles)
		}
	}
	// Jobs 0..5 share the bonus pool evenly thanks to rotation.
	min, max := served[0], served[0]
	for _, s := range served[:6] {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if max-min > 1 {
		t.Errorf("bonus rotation uneven among eligible jobs: %v", served)
	}
}

func TestRADJobsDoneClearsMarks(t *testing.T) {
	r := NewRAD()
	jobs := catJobs(1, 1, 1)
	r.Allot(1, jobs, 2) // marks jobs 0, 1
	r.JobsDone([]int{0, 1})
	for id := range jobs {
		if slices.Contains(r.rr.marked, id) {
			t.Errorf("job %d still marked after JobsDone", id)
		}
	}
}

func TestKRADComposesPerCategory(t *testing.T) {
	k := 3
	s := NewKRAD(k)
	if s.Name() != "k-rad" {
		t.Errorf("Name = %q", s.Name())
	}
	jobs := []sched.JobView{
		{ID: 0, Desire: []int{2, 0, 5}},
		{ID: 1, Desire: []int{0, 3, 5}},
		{ID: 2, Desire: []int{1, 1, 0}},
	}
	caps := []int{4, 4, 4}
	allot := s.Allot(1, jobs, caps)
	if err := sched.ValidateAllotments(jobs, caps, allot); err != nil {
		t.Fatal(err)
	}
	// Light load everywhere: category 1 and 2 fully satisfied.
	if allot[0][0] != 2 || allot[2][0] != 1 {
		t.Errorf("category 1 allot: %v", allot)
	}
	if allot[1][1] != 3 || allot[2][1] != 1 {
		t.Errorf("category 2 allot: %v", allot)
	}
	// Category 3: two jobs wanting 5 each on 4 processors → 2/2.
	if allot[0][2]+allot[1][2] != 4 {
		t.Errorf("category 3 allot: %v", allot)
	}
	if allot[2][2] != 0 {
		t.Errorf("job 2 allotted category 3 it does not desire: %v", allot)
	}
	// A job never receives processors of a category it has no desire for.
	if allot[0][1] != 0 || allot[1][0] != 0 {
		t.Errorf("allotment to zero-desire category: %v", allot)
	}
}

func TestKRADCategoriesAreIndependent(t *testing.T) {
	// Overload in category 1 must not push category 2 into round-robin.
	s := NewKRAD(2)
	jobs := make([]sched.JobView, 6)
	for i := range jobs {
		jobs[i] = sched.JobView{ID: i, Desire: []int{1, 0}}
	}
	jobs[0].Desire = []int{1, 8} // the only category-2 consumer
	caps := []int{2, 4}
	allot := s.Allot(1, jobs, caps)
	if allot[0][1] != 4 {
		t.Errorf("category 2 should DEQ-satisfy the single job with all 4: %v", allot)
	}
	sum1 := 0
	for _, row := range allot {
		sum1 += row[0]
	}
	if sum1 != 2 {
		t.Errorf("category 1 RR should use both processors, got %d", sum1)
	}
}
