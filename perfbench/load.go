package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// events is the benchmark's SSE subscriber: it records when each job's
// completion event arrived.
type events struct {
	mu       sync.Mutex
	cond     *sync.Cond
	done     map[int]time.Time
	received int64
	steps    int64 // virtual steps the events cover
	err      error
	closed   bool

	cancel context.CancelFunc
	exited chan struct{}
}

// subscribe opens GET /v1/events and returns once the server has
// registered the subscription (the response headers arrived).
func subscribe(client *http.Client, base string) (*events, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/events", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: HTTP %d", resp.StatusCode)
	}
	ev := &events{done: make(map[int]time.Time), cancel: cancel, exited: make(chan struct{})}
	ev.cond = sync.NewCond(&ev.mu)
	go ev.read(resp.Body)
	return ev, nil
}

func (ev *events) read(body io.ReadCloser) {
	defer close(ev.exited)
	defer body.Close()
	br := bufio.NewReaderSize(body, 1<<16)
	var msg struct {
		Steps     int64 `json:"steps"` // omitted when 1
		Completed []int `json:"completed"`
	}
	var err error
	for {
		var line []byte
		line, err = br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			// An event longer than the buffer: gather it whole.
			rest, err2 := br.ReadBytes('\n')
			line, err = append(append([]byte(nil), line...), rest...), err2
		}
		if err != nil {
			break
		}
		data, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok {
			continue
		}
		now := time.Now()
		msg.Steps, msg.Completed = 0, msg.Completed[:0]
		if err = json.Unmarshal(data, &msg); err != nil {
			break
		}
		ev.mu.Lock()
		ev.received++
		ev.steps += max(1, msg.Steps)
		for _, id := range msg.Completed {
			ev.done[id] = now
		}
		ev.mu.Unlock()
		ev.cond.Broadcast()
	}
	ev.mu.Lock()
	ev.closed = true
	if !errors.Is(err, context.Canceled) {
		ev.err = err
	}
	ev.mu.Unlock()
	ev.cond.Broadcast()
}

// close cancels the stream and waits for the reader to exit.
func (ev *events) close() {
	ev.cancel()
	<-ev.exited
}

// waitFor blocks until pred (called with ev.mu held) holds, the stream
// ends, or the deadline passes.
func (ev *events) waitFor(deadline time.Time, pred func() bool) error {
	stop := time.AfterFunc(time.Until(deadline), ev.cond.Broadcast)
	defer stop.Stop()
	ev.mu.Lock()
	defer ev.mu.Unlock()
	for !pred() {
		if ev.closed {
			return fmt.Errorf("event stream ended: %v", ev.err)
		}
		if !time.Now().Before(deadline) {
			return errors.New("timed out waiting for completion events")
		}
		ev.cond.Wait()
	}
	return nil
}

// submitReq is one POST the generator sends.
type submitReq struct {
	due    time.Time
	jobs   []wireJob
	key    string
	tenant string
	body   []byte
}

func encodeSubmit(jobs []wireJob, batch bool) ([]byte, error) {
	if batch {
		return json.Marshal(map[string]any{"jobs": jobs})
	}
	return json.Marshal(jobs[0])
}

// submitResult is the outcome of one POST.
type submitResult struct {
	code int
	msg  string // the error body of a response other than 201
	ids  []int
	sent time.Time
	done time.Time
}

func postSubmit(client *http.Client, base string, r *submitReq, batch bool) (submitResult, error) {
	url := base + "/v1/jobs"
	if batch {
		url += "/batch"
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(r.body))
	if err != nil {
		return submitResult{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if r.key != "" {
		req.Header.Set("X-Krad-Placement-Key", r.key)
	}
	if r.tenant != "" {
		req.Header.Set("X-Krad-Tenant", r.tenant)
	}
	res := submitResult{sent: time.Now()}
	resp, err := client.Do(req)
	if err != nil {
		return res, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.done = time.Now()
	res.code = resp.StatusCode
	if err != nil {
		return res, err
	}
	if resp.StatusCode != http.StatusCreated {
		res.msg = string(bytes.TrimSpace(body))
		return res, nil
	}
	var out struct {
		ID  *int  `json:"id"`
		IDs []int `json:"ids"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return res, fmt.Errorf("submit response: %w", err)
	}
	if out.ID != nil {
		res.ids = []int{*out.ID}
	} else {
		res.ids = out.IDs
	}
	if len(res.ids) != len(r.jobs) {
		return res, fmt.Errorf("submit of %d jobs acked %d ids", len(r.jobs), len(res.ids))
	}
	return res, nil
}

// jobStatus is the part of GET /v1/jobs/{id} the checks read.
type jobStatus struct {
	ID         int    `json:"id"`
	State      string `json:"state"`
	Release    int64  `json:"release"`
	Completion int64  `json:"completion"`
}

func getStatus(client *http.Client, base string, id int) (jobStatus, time.Duration, error) {
	start := time.Now()
	code, body, err := get(client, base+"/v1/jobs/"+strconv.Itoa(id))
	took := time.Since(start)
	if err != nil {
		return jobStatus{}, took, err
	}
	if code != http.StatusOK {
		return jobStatus{}, took, fmt.Errorf("status of job %d: HTTP %d", id, code)
	}
	var st jobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return st, took, err
	}
	if st.ID != id {
		return st, took, fmt.Errorf("status of job %d answered id %d", id, st.ID)
	}
	return st, took, nil
}

// load is the shared state of one load phase against one target.
type load struct {
	w      *workload
	base   string
	client *http.Client
	ev     *events

	mu        sync.Mutex
	admit     samples // ms from due to ack, per submit request
	late      samples // ms from due to send (open loop)
	status    samples // ms per status read
	submits   int     // submit requests attempted
	sloMet    int
	jobsTried int
	accepted  int
	due       map[int]time.Time
	shed      int // 429 responses
	full      int // 503 responses for a full admission queue (open loop)
	ops       int // operations attempted (submits and status reads)
	failed    int
	errs      []string
	tenantOK  map[string]int
	recent    []int // ring of recently acked IDs for status reads
	firstSend time.Time
	lastAck   time.Time
	// sent records every submit in send order, for the traced run's
	// direct-call second pass.
	sent []*submitReq
}

func newLoad(w *workload, base string, client *http.Client, ev *events) *load {
	return &load{
		w: w, base: base, client: client, ev: ev,
		due: make(map[int]time.Time), tenantOK: make(map[string]int),
	}
}

func (l *load) fail(err error) {
	l.mu.Lock()
	l.failLocked(err.Error())
	l.mu.Unlock()
}

// failLocked counts a failed operation, keeping the first few messages.
func (l *load) failLocked(msg string) {
	l.failed++
	if len(l.errs) < 5 {
		l.errs = append(l.errs, msg)
	}
}

// submit sends one request and accounts for its outcome.
func (l *load) submit(r *submitReq) {
	batch := l.w.batch > 1 || l.w.loop == burstLoop
	res, err := postSubmit(l.client, l.base, r, batch)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops++
	l.submits++
	l.jobsTried += len(r.jobs)
	l.sent = append(l.sent, r)
	if l.firstSend.IsZero() || res.sent.Before(l.firstSend) {
		l.firstSend = res.sent
	}
	if !r.due.IsZero() && !res.sent.IsZero() {
		l.late.addDur(res.sent.Sub(r.due))
	}
	lat := res.done.Sub(r.due)
	switch {
	case err != nil:
		l.failLocked(err.Error())
		return
	case res.code == http.StatusTooManyRequests && l.w.flags.FairConfig != "":
		// Fair-share shedding is the designed answer to an over-quota
		// tenant: refused, so it misses the SLO, but not an error.
		l.shed++
		l.admit.addDur(lat)
		return
	case res.code == http.StatusServiceUnavailable && l.w.loop == openLoop && strings.Contains(res.msg, "admission queue full"):
		// Backpressure: the fair-share gate checks a tenant's share, not
		// the fleet total, and tenants can hold more than a share that a
		// newly active tenant shrank, so an under-quota submission can
		// find the admission bound full; the shard answers 503 with a
		// Retry-After. An open loop does not wait, so the request is
		// refused: it misses the SLO, but is not an error.
		l.full++
		l.admit.addDur(lat)
		return
	case res.code != http.StatusCreated:
		l.failLocked(fmt.Sprintf("submit: HTTP %d: %s", res.code, res.msg))
		return
	}
	l.admit.addDur(lat)
	if lat <= sloLimit {
		l.sloMet++
	}
	l.accepted += len(res.ids)
	l.tenantOK[r.tenant] += len(res.ids)
	if res.done.After(l.lastAck) {
		l.lastAck = res.done
	}
	for _, id := range res.ids {
		l.due[id] = r.due
	}
	l.recent = append(l.recent, res.ids...)
	if len(l.recent) > 4096 {
		l.recent = append(l.recent[:0], l.recent[len(l.recent)-2048:]...)
	}
}

// unfinishedLocked is accepted jobs not yet completed; call with
// l.ev.mu held (it reads the completion map).
func (l *load) unfinishedLocked() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.accepted - len(l.ev.done)
}

// runClosed drives the closed loop: each client sends its next
// operation when the previous one returns, for the given duration.
func (l *load) runClosed(seed int64, d time.Duration) {
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < l.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l.closedClient(rand.New(rand.NewSource(seed*1000+int64(c))), end)
		}(c)
	}
	wg.Wait()
}

func (l *load) closedClient(rng *rand.Rand, end time.Time) {
	var zipf *rand.Zipf
	if l.w.keys > 0 {
		zipf = rand.NewZipf(rng, 1.2, 1, uint64(l.w.keys-1))
	}
	n := 0
	for time.Now().Before(end) {
		if rng.Float64() < l.w.statusShare {
			if id, ok := l.pickRecent(rng); ok {
				l.readStatus(id)
				continue
			}
		}
		r := &submitReq{jobs: make([]wireJob, l.w.batch)}
		for i := range r.jobs {
			r.jobs[i] = l.w.gen(rng, n)
			n++
		}
		if zipf != nil {
			r.key = "k-" + strconv.FormatUint(zipf.Uint64(), 10)
		}
		var err error
		if r.body, err = encodeSubmit(r.jobs, l.w.batch > 1); err != nil {
			l.fail(err)
			return
		}
		if l.w.window > 0 {
			err := l.ev.waitFor(end, func() bool { return l.unfinishedLocked()+l.w.batch <= l.w.window })
			if !time.Now().Before(end) {
				return
			}
			if err != nil {
				l.fail(err)
				return
			}
		}
		r.due = time.Now()
		l.submit(r)
	}
}

// pickRecent draws a recently acked job for a status read.
func (l *load) pickRecent(rng *rand.Rand) (int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.recent) == 0 {
		return 0, false
	}
	return l.recent[rng.Intn(len(l.recent))], true
}

func (l *load) readStatus(id int) {
	_, took, err := getStatus(l.client, l.base, id)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops++
	if err != nil {
		l.failLocked(err.Error())
		return
	}
	l.status.addDur(took)
}

// spinBefore is how long before a request is due a sender stops
// sleeping and spins, so a late timer wake-up of the generator does not
// count as the daemon's latency.
const spinBefore = 300 * time.Microsecond

// runOpen drives the open loop: requests are due at a fixed rate from
// the start, whatever the server does, and each is timed from when it
// was due. Each of the clients senders claims the next request in order
// and sends it when it is due, or at once if it is overdue, so a stalled
// server shows as lateness, not as a slower rate.
func (l *load) runOpen(seed int64, d time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	n := int(l.w.rate * d.Seconds())
	reqs := make([]*submitReq, n)
	for i := range reqs {
		t := rng.Float64()
		tn := l.w.tenants[len(l.w.tenants)-1].name
		for _, c := range l.w.tenants {
			if t < c.share {
				tn = c.name
				break
			}
			t -= c.share
		}
		r := &submitReq{jobs: []wireJob{l.w.gen(rng, i)}, tenant: tn}
		var err error
		if r.body, err = encodeSubmit(r.jobs, false); err != nil {
			l.fail(err)
			return
		}
		reqs[i] = r
	}
	start := time.Now()
	gap := time.Duration(float64(time.Second) / l.w.rate)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < l.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				r := reqs[i]
				r.due = start.Add(time.Duration(i) * gap)
				if wait := time.Until(r.due) - spinBefore; wait > 0 {
					time.Sleep(wait)
				}
				for time.Now().Before(r.due) {
				}
				l.submit(r)
			}
		}()
	}
	wg.Wait()
}

// drain waits until every accepted job has completed.
func (l *load) drain(timeout time.Duration) error {
	return l.ev.waitFor(time.Now().Add(timeout), func() bool { return l.unfinishedLocked() <= 0 })
}
