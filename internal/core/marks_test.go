package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"krad/internal/sched"
)

// refRAD is a reference RAD that keeps its round-robin marks in a map: the
// Figure 2 procedure written as plainly as possible, with no claim to
// speed. The quickcheck below holds RAD to it step for step.
type refRAD struct {
	marked  map[int]bool
	rot     int
	horizon int64
}

func newRefRAD() *refRAD { return &refRAD{marked: map[int]bool{}} }

func (r *refRAD) allot(t int64, jobs []sched.CatJob, p int) []int {
	allot := make([]int, len(jobs))
	if len(jobs) == 0 || p <= 0 {
		r.horizon = sched.Unbounded
		return allot
	}
	var q, qp []int
	for i, j := range jobs {
		if r.marked[j.ID] {
			qp = append(qp, i)
		} else {
			q = append(q, i)
		}
	}
	if len(q) > p {
		r.horizon = 0
		for _, i := range q[:p] {
			allot[i] = 1
			r.marked[jobs[i].ID] = true
		}
		return allot
	}
	if need := min(p-len(q), len(qp)); need > 0 {
		start := r.rot % len(qp)
		for j := 0; j < need; j++ {
			q = append(q, qp[(start+j)%len(qp)])
		}
		r.rot += need
	}
	if len(qp) == 0 {
		r.horizon = deqStableHorizon(jobs, p)
	} else {
		r.horizon = 0
	}
	desires := make([]int, len(q))
	for j, i := range q {
		desires[j] = jobs[i].Desire
	}
	for j, a := range Deq(desires, p, int(t)) {
		allot[q[j]] = a
	}
	clear(r.marked)
	return allot
}

func (r *refRAD) jobsDone(ids []int) {
	for _, id := range ids {
		delete(r.marked, id)
	}
}

// refState is the RAD checkpoint encoding, spelled out independently of
// radState so an accidental format change shows up as a byte mismatch.
type refState struct {
	Marked []int `json:"marked,omitempty"`
	Rot    int   `json:"rot"`
}

func (r *refRAD) snapshot() []byte {
	st := refState{Rot: r.rot}
	for id := range r.marked {
		st.Marked = append(st.Marked, id)
	}
	sort.Ints(st.Marked)
	b, err := json.Marshal(st)
	if err != nil {
		panic(err)
	}
	return b
}

func (r *refRAD) restore(data []byte) error {
	var st refState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	*r = refRAD{marked: map[int]bool{}, rot: st.Rot}
	for _, id := range st.Marked {
		r.marked[id] = true
	}
	return nil
}

// TestQuickRADMatchesMapReference runs random Allot / JobsDone / Snapshot /
// Restore sequences over a rising-ID job stream against refRAD. Allotments,
// StableHorizon and SnapshotState bytes must match at every step —
// including marks of jobs that drop out of the α-active set mid-cycle and
// completions of IDs that were never marked.
func TestQuickRADMatchesMapReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, ref := NewRAD(), newRefRAD()
		var live []int // ascending
		next := 0
		admit := func(n int) {
			for i := 0; i < n; i++ {
				next += 1 + rng.Intn(3)
				if rng.Intn(8) == 0 {
					next += rng.Intn(1 << 16) // sparse ID ranges
				}
				live = append(live, next)
			}
		}
		admit(1 + rng.Intn(12))
		for step := int64(1); step <= 200; step++ {
			switch op := rng.Intn(20); {
			case op < 12:
				var jobs []sched.CatJob
				for _, id := range live {
					if rng.Intn(4) != 0 {
						jobs = append(jobs, sched.CatJob{ID: id, Desire: 1 + rng.Intn(10)})
					}
				}
				p := rng.Intn(9)
				got, want := r.Allot(step, jobs, p), ref.allot(step, jobs, p)
				if !slices.Equal(got, want) {
					t.Logf("seed %d step %d: allot %v, reference %v", seed, step, got, want)
					return false
				}
				if r.StableHorizon() != ref.horizon {
					t.Logf("seed %d step %d: horizon %d, reference %d", seed, step, r.StableHorizon(), ref.horizon)
					return false
				}
			case op < 15:
				var done []int
				keep := live[:0]
				for _, id := range live {
					if rng.Intn(3) == 0 {
						done = append(done, id)
					} else {
						keep = append(keep, id)
					}
				}
				live = keep
				if rng.Intn(4) == 0 {
					done = append(done, next+1+rng.Intn(5)) // never admitted
				}
				r.JobsDone(done)
				ref.jobsDone(done)
			case op < 17:
				admit(1 + rng.Intn(6))
			default:
				got, err := r.SnapshotState()
				if err != nil {
					t.Log(err)
					return false
				}
				if want := ref.snapshot(); !bytes.Equal(got, want) {
					t.Logf("seed %d step %d: snapshot %s, reference %s", seed, step, got, want)
					return false
				}
				if op == 19 {
					r, ref = NewRAD(), newRefRAD()
					if err := r.RestoreState(got); err != nil {
						t.Log(err)
						return false
					}
					if err := ref.restore(got); err != nil {
						t.Log(err)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// churn drives one category scheduler through a long-running daemon's
// job stream: at most `live` jobs at a time, IDs rising by `stride`, every
// job finishing after a few units of service and reported through
// JobsDone. All buffers are preallocated, so step itself allocates
// nothing.
type churn struct {
	allot     func(t int64, jobs []sched.CatJob, p int, dst []int)
	done      func(ids []int)
	p, live   int
	jobs      []sched.CatJob
	work, dst []int
	doneIDs   []int
	t         int64
	next, seq int
	stride    int
}

func newChurn(p, live, stride int) *churn {
	return &churn{
		p: p, live: live, stride: stride,
		jobs:    make([]sched.CatJob, 0, live),
		work:    make([]int, 0, live),
		dst:     make([]int, live),
		doneIDs: make([]int, 0, live),
	}
}

func (c *churn) step() {
	for len(c.jobs) < c.live {
		w := 1 + c.seq%4
		c.seq++
		c.jobs = append(c.jobs, sched.CatJob{ID: c.next, Desire: w})
		c.work = append(c.work, w)
		c.next += c.stride
	}
	c.t++
	dst := c.dst[:len(c.jobs)]
	c.allot(c.t, c.jobs, c.p, dst)
	c.doneIDs = c.doneIDs[:0]
	n := 0
	for i, j := range c.jobs {
		if w := c.work[i] - dst[i]; w > 0 {
			c.jobs[n], c.work[n] = sched.CatJob{ID: j.ID, Desire: w}, w
			n++
		} else {
			c.doneIDs = append(c.doneIDs, j.ID)
		}
	}
	c.jobs, c.work = c.jobs[:n], c.work[:n]
	if len(c.doneIDs) > 0 {
		c.done(c.doneIDs)
	}
}

// TestRADChurnMarksBounded pins the long-running-daemon case the fixed-ID
// alloc pin cannot see: job IDs climb to 10⁶ while at most 32 jobs are
// live. Steady-state AllotInto must still allocate nothing, and the mark
// storage must stay within a small multiple of the live count instead of
// growing with the highest ID ever marked.
func TestRADChurnMarksBounded(t *testing.T) {
	const live, top = 32, 1_000_000
	for _, tc := range []struct {
		name string
		p    int
	}{
		{"deq", 128},    // every live job fits: space sharing
		{"overload", 7}, // round-robin cycles carry marks across steps
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRAD()
			c := newChurn(tc.p, live, 7)
			c.allot, c.done = r.AllotInto, r.JobsDone
			maxCap := 0
			for c.next < top {
				c.step()
				maxCap = max(maxCap, cap(r.rr.marked))
			}
			// AllocsPerRun floors its average, so each run spans many steps:
			// one allocation in 64 steps still fails the pin.
			if avg := testing.AllocsPerRun(20, func() {
				for i := 0; i < 64; i++ {
					c.step()
				}
			}); avg != 0 {
				t.Fatalf("AllotInto+JobsDone at job ID %d allocate %.0f per 64 steps; want 0", c.next, avg)
			}
			if maxCap > 4*live {
				t.Fatalf("mark capacity reached %d with at most %d live jobs; want ≤ %d", maxCap, live, 4*live)
			}
		})
	}
}

// TestRandomRADChurnMarksBounded is the mark-capacity half of the churn pin
// for the randomized variant, which shares RAD's mark list.
func TestRandomRADChurnMarksBounded(t *testing.T) {
	const live = 32
	r := NewRandomRAD(3)
	c := newChurn(7, live, 7)
	c.allot = func(t int64, jobs []sched.CatJob, p int, dst []int) { copy(dst, r.Allot(t, jobs, p)) }
	c.done = r.JobsDone
	maxCap := 0
	for c.next < 200_000 {
		c.step()
		maxCap = max(maxCap, cap(r.rr.marked))
	}
	if maxCap > 4*live {
		t.Fatalf("mark capacity reached %d with at most %d live jobs; want ≤ %d", maxCap, live, 4*live)
	}
	if len(r.order) > live {
		t.Fatalf("%d cycle positions held for at most %d live jobs", len(r.order), live)
	}
}
