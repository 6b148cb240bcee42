package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"krad/internal/journal"
	"krad/internal/replicate"
	"krad/internal/sched"
)

// Spans are recorded from this package only, around calls into each
// layer's public functions: the HTTP handler, the journal.File the
// journal writes through, the replication hook, and the scheduler.
// Nothing inside the program is instrumented.

type spanKind uint8

const (
	spSubmit    spanKind = iota // POST /v1/jobs and /v1/jobs/batch
	spStatus                    // GET /v1/jobs/{id}
	spOther                     // every other request except the event stream
	spWrite                     // journal.File.Write
	spSync                      // journal.File.Sync
	spCommitted                 // Replicator.Committed
	spAllot                     // Scheduler.Allot / AllotInto
)

var spanNames = [...]string{"http.submit", "http.status", "http.other",
	"journal.write", "journal.sync", "replicate.committed", "sched.allot"}

// span is one timed call. Times are nanoseconds since the tracer's
// origin. parent is the index+1 of the request span the call ran under
// (0 = none) and req the request identifier every span of one request
// shares.
type span struct {
	kind       spanKind
	steps      bool // write of a steps record, or a sync after one
	start, end int64
	parent     int32
	req        int32
	bytes      int32
	// allot spans: categories with α-active jobs, and those of them with
	// more α-active jobs than α-processors.
	active, overloaded uint8
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// tracer keeps every span of one traced stack in memory.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	reqs  []span          // request spans; a span's parent refers into this
	kids  []span          // journal and replication spans
	open  map[int64]int32 // goroutine → request span (index+1) it is serving
	alloc []*tracedSched  // one per shard engine
}

func newTracer(t0 time.Time) *tracer {
	return &tracer{t0: t0, open: make(map[int64]int32)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// goid returns the calling goroutine's ID. net/http serves a request on
// one goroutine, and admission journals and replicates synchronously on
// it, so the ID links a journal or replication call to the request
// being served.
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, _ := strconv.ParseInt(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// handler times every request except the long-lived event stream.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var kind spanKind
		switch {
		case r.URL.Path == "/v1/events":
			h.ServeHTTP(w, r)
			return
		case r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/jobs"):
			kind = spSubmit
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
			kind = spStatus
		default:
			kind = spOther
		}
		g := goid()
		t.mu.Lock()
		t.reqs = append(t.reqs, span{kind: kind, start: t.now()})
		idx := int32(len(t.reqs))
		t.reqs[idx-1].req = idx
		t.open[g] = idx
		t.mu.Unlock()

		h.ServeHTTP(w, r)

		t.mu.Lock()
		t.reqs[idx-1].end = t.now()
		delete(t.open, g)
		t.mu.Unlock()
	})
}

// child records a journal or replication call, linked to the request
// its goroutine is serving, if any.
func (t *tracer) child(s span) {
	g := goid()
	t.mu.Lock()
	if p := t.open[g]; p != 0 {
		s.parent, s.req = p, p
	}
	t.kids = append(t.kids, s)
	t.mu.Unlock()
}

// tracedFile is the journal.File installed through
// JournalConfig.OpenAppend: it times writes and fsyncs, and classifies
// each frame by decoding its record type.
type tracedFile struct {
	f         *os.File
	t         *tracer
	lastSteps bool // the last frame written was a steps record
}

func (t *tracer) openAppend(path string) (journal.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &tracedFile{f: f, t: t}, nil
}

// stepsFrame reports whether p is one journal frame (uint32 length,
// uint32 CRC, payload) holding a steps record. Records are JSON objects
// whose first key is the type "t".
func stepsFrame(p []byte) bool {
	if len(p) < 8 || int(binary.LittleEndian.Uint32(p)) != len(p)-8 {
		return false
	}
	return bytes.HasPrefix(p[8:], []byte(`{"t":"steps"`)) || bytes.HasPrefix(p[8:], []byte(`{"t":"step"`))
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := f.t.now()
	n, err := f.f.Write(p)
	end := f.t.now()
	f.lastSteps = stepsFrame(p)
	f.t.child(span{kind: spWrite, start: start, end: end, bytes: int32(n), steps: f.lastSteps})
	return n, err
}

func (f *tracedFile) Sync() error {
	start := f.t.now()
	err := f.f.Sync()
	f.t.child(span{kind: spSync, start: start, end: f.t.now(), steps: f.lastSteps})
	return err
}

func (f *tracedFile) Close() error { return f.f.Close() }

// tracedRep wraps the replicate.Sender passed to Service.SetReplicator.
type tracedRep struct {
	s *replicate.Sender
	t *tracer
}

func (r tracedRep) Committed(shard int, seq int64, rec journal.Record) {
	start := r.t.now()
	r.s.Committed(shard, seq, rec)
	r.t.child(span{kind: spCommitted, start: start, end: r.t.now()})
}

func (r tracedRep) WriteAllowed() error { return r.s.WriteAllowed() }

// fullScheduler is every capability the engine looks for on a
// scheduler; sched.WithFloors provides them all, and the traced wrapper
// forwards each, so the engine leaps, recycles marks and checkpoints
// exactly as it does untraced.
type fullScheduler interface {
	sched.Scheduler
	sched.IntoAllotter
	sched.Stable
	sched.Completer
	sched.Snapshotter
}

// tracedSched is the scheduler installed through Config.NewScheduler.
// Each engine calls it under its shard lock, so its span slice needs no
// lock of its own; it is read after the stack has stopped.
type tracedSched struct {
	inner fullScheduler
	t     *tracer
	spans []span
}

func (t *tracer) sched(s sched.Scheduler) sched.Scheduler {
	ts := &tracedSched{inner: s.(fullScheduler), t: t}
	t.mu.Lock()
	t.alloc = append(t.alloc, ts)
	t.mu.Unlock()
	return ts
}

func (s *tracedSched) record(start int64, jobs []sched.JobView, caps []int) {
	sp := span{kind: spAllot, start: start, end: s.t.now()}
	for a, p := range caps {
		n := 0
		for _, j := range jobs {
			if j.Desire[a] > 0 {
				n++
			}
		}
		if n > 0 {
			sp.active++
		}
		if n > p {
			sp.overloaded++
		}
	}
	s.spans = append(s.spans, sp)
}

func (s *tracedSched) Name() string { return s.inner.Name() }

func (s *tracedSched) Allot(t int64, jobs []sched.JobView, caps []int) [][]int {
	start := s.t.now()
	out := s.inner.Allot(t, jobs, caps)
	s.record(start, jobs, caps)
	return out
}

func (s *tracedSched) AllotInto(t int64, jobs []sched.JobView, caps []int, dst [][]int) {
	start := s.t.now()
	s.inner.AllotInto(t, jobs, caps, dst)
	s.record(start, jobs, caps)
}

func (s *tracedSched) StableHorizon() int64 { return s.inner.StableHorizon() }

func (s *tracedSched) LeapTotals(t int64, jobs []sched.JobView, caps []int, n int64, dst [][]int) {
	s.inner.LeapTotals(t, jobs, caps, n, dst)
}

func (s *tracedSched) JobsDone(ids []int)             { s.inner.JobsDone(ids) }
func (s *tracedSched) SnapshotState() ([]byte, error) { return s.inner.SnapshotState() }
func (s *tracedSched) RestoreState(data []byte) error { return s.inner.RestoreState(data) }

// allotGrowth is, for each stack with allotment calls, the p50 of the
// last quarter of its calls in time order divided by the p50 of the first
// quarter.
func allotGrowth(trs []*tracer) samples {
	var out samples
	for _, t := range trs {
		var calls []span
		for _, s := range t.alloc {
			calls = append(calls, s.spans...)
		}
		q := len(calls) / 4
		if q == 0 {
			continue
		}
		sort.Slice(calls, func(i, j int) bool { return calls[i].start < calls[j].start })
		var first, last samples
		for i := 0; i < q; i++ {
			first.add(float64(calls[i].dur()))
			last.add(float64(calls[len(calls)-q+i].dur()))
		}
		out.add(ratio(last.median(), first.median()))
	}
	return out
}

// allSpans merges the tracers' spans, renumbering request references so
// they stay unique, with allotment spans sorted by start time.
func allSpans(trs []*tracer) (reqs, kids, allots []span) {
	for _, t := range trs {
		t.mu.Lock()
		base := int32(len(reqs))
		reqs = append(reqs, t.reqs...)
		for _, k := range t.kids {
			if k.parent != 0 {
				k.parent += base
				k.req += base
			}
			kids = append(kids, k)
		}
		for i := len(reqs) - len(t.reqs); i < len(reqs); i++ {
			reqs[i].req += base
		}
		for _, s := range t.alloc {
			allots = append(allots, s.spans...)
		}
		t.mu.Unlock()
	}
	sort.Slice(allots, func(i, j int) bool { return allots[i].start < allots[j].start })
	return reqs, kids, allots
}

// writeSpans writes every span as CSV: name, start and end in ns since
// the run began, parent (request span index+1, 0 = none), request ID,
// bytes, steps-record flag.
func writeSpans(path string, reqs, kids, allots []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,start_ns,end_ns,parent,req,bytes,steps")
	for _, set := range [][]span{reqs, kids, allots} {
		for _, s := range set {
			fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%t\n", spanNames[s.kind], s.start, s.end, s.parent, s.req, s.bytes, s.steps)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
