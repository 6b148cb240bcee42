package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"slices"
	"time"

	"krad/internal/metrics"
	"krad/internal/server"
	"krad/internal/sim"
)

// segment is the length of one stack's share of a run's load. A run of
// d seconds drives round(d/segment) fresh stacks in turn, each for an
// equal part of d, and reports the median over them: a stall of the
// shared machine during one segment does not move the run's figure, and
// every segment starts from the same empty daemon.
const segment = 5 * time.Second

// setupBoots is how many times a run boots the stack at least; boots
// beyond the segments only measure set-up, and setup_s is the median.
const setupBoots = 15

// probeCycles is how many burst-probe cycles end every run.
const probeCycles = 3

// drainTimeout bounds the wait for the last completion event.
const drainTimeout = 60 * time.Second

// bootFunc boots a fresh stack for w in runDir and returns it with its
// set-up time in seconds.
type bootFunc func(w *workload, runDir string) (target, float64, error)

// segStats is one segment's figures. The end-to-end metrics are their
// medians over the segments the host left alone (see quiet).
type segStats struct {
	submitRate float64 // jobs acked/s: first send to last ack
	drainRate  float64 // jobs completed/s: first send to last completion
	stepRate   float64 // virtual steps/s: first send to last completion
	cpuPerJob  float64 // daemon CPU ms per acked job, load and drain
	admit      float64 // admit p50, ms
	turnaround float64 // turnaround p50, ms
	slo        float64 // share of submits acked within the SLO
	accepted   float64 // share of jobs accepted
	steal      float64 // share of the machine's CPU time the host took
}

// maxSteal is the share of the machine's CPU time the host may take from
// its virtual CPUs during a segment (steal time in /proc/stat) before
// the segment is left out of the medians: its figures measure the host's
// other tenants, not kradd. minQuiet is how many segments must remain,
// or every segment is used.
const (
	maxSteal = 0.05
	minQuiet = 3
)

// quiet returns the segments whose steal share is within maxSteal, or
// every segment when fewer than minQuiet are.
func (r *runResult) quiet() []segStats {
	var q []segStats
	for _, s := range r.segs {
		if s.steal <= maxSteal {
			q = append(q, s)
		}
	}
	if len(q) < minQuiet {
		return r.segs
	}
	return q
}

// runResult is everything one run measured, before it is reduced to
// metrics. Pooled samples cover every segment.
type runResult struct {
	setup      samples // s, per boot
	admit      samples // ms, per submit request, from due to ack
	status     samples // ms, per status read
	turnaround samples // ms, per completed job, from due to completion event
	late       samples // ms, per submit request, from due to send
	rss        samples // MB, per segment
	drainWall  samples // s, per segment: first send to last completion

	segs []segStats

	submits, sloMet, jobsTried, accepted, shed, full int
	ops, failed                                      int
	errs                                             []string
	allocBytes                                       float64 // Go heap bytes allocated by the daemon under load
	gcCPU                                            samples // Go GC CPU fraction, per segment

	steps, leapSteps int64
	// per segment (per cycle on the burst probe): virtual steps, leap
	// steps and the primary's journal bytes
	phaseSteps, phaseLeaps, phaseJournal []int64
	received, dropped                    int64
	stolen                               int64
	shardSubmitted                       []float64
	tenantOK                             map[string]int

	// loads keeps each segment's generator state for the traced run's
	// direct-call pass.
	loads []*load
	// bursts keeps the burst probe's batches, one per cycle.
	bursts [][]wireJob
	// probe is the burst probe that ended the run.
	probe *runResult

	unmatched int // stolen jobs, whose completion events carry the thief's ID

	checks     []string // failed output checks
	moreChecks int
}

// maxChecks bounds how many failed checks a run lists; the rest are
// counted in the last entry.
const maxChecks = 10

func (r *runResult) check(ok bool, format string, args ...any) {
	switch {
	case ok:
	case len(r.checks) < maxChecks:
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	default:
		r.moreChecks++
		r.checks[maxChecks-1] = fmt.Sprintf("... and %d more failed checks", r.moreChecks)
	}
}

// addGoStats adds the target's heap allocation since alloc0 and its GC
// CPU fraction, where the target reports them.
func (r *runResult) addGoStats(tgt target, alloc0 float64) error {
	alloc, gc, ok, err := tgt.goStats()
	if err != nil || !ok {
		return err
	}
	r.allocBytes += alloc - alloc0
	r.gcCPU.add(gc)
	return nil
}

// env is what every run shares: where to put run directories and how
// many connections the generator may open.
type env struct {
	root string // checkout root
	work string // directory holding this invocation's run directories
	seq  int
	api  *http.Client // submit, status and control requests
	sse  *http.Client // the event stream
}

func (e *env) runDir(name string) string {
	e.seq++
	return filepath.Join(e.work, fmt.Sprintf("%s-%03d", name, e.seq))
}

// runWorkload drives one workload against stacks booted by boot for
// about d of load, checks the outputs, and ends with the burst probe.
func runWorkload(e *env, w *workload, seed int64, d time.Duration, boot bootFunc) (*runResult, error) {
	res := &runResult{tenantOK: make(map[string]int)}
	n := max(1, int(math.Round(float64(d)/float64(segment))))
	for i := n; i < setupBoots; i++ {
		tgt, setup, err := boot(w, e.runDir(w.name))
		if err != nil {
			return nil, err
		}
		res.setup.add(setup)
		if _, err := tgt.stop(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		tgt, setup, err := boot(w, e.runDir(w.name))
		if err != nil {
			return nil, err
		}
		res.setup.add(setup)
		err = loadPhase(e, w, seed*1000+int64(i), d/time.Duration(n), tgt, res)
		info, stopErr := tgt.stop()
		if err := errors.Join(err, stopErr); err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, err)
		}
		res.phaseJournal = append(res.phaseJournal, info.journalBytes)
		if w.flags.Replicate {
			res.check(slices.Equal(info.primarySeqs, info.followerSeqs),
				"segment %d: follower sequence numbers %v differ from the primary's %v", i, info.followerSeqs, info.primarySeqs)
		}
	}
	var err error
	if res.probe, err = runProbe(e, seed, boot); err != nil {
		return nil, fmt.Errorf("burst probe: %w", err)
	}
	for _, c := range res.probe.checks {
		res.check(false, "burst probe: %s", c)
	}
	res.ops += res.probe.ops
	res.failed += res.probe.failed
	res.errs = append(res.errs, res.probe.errs...)
	return res, nil
}

// statusChecks is how many jobs of a segment are read back after its
// drain.
const statusChecks = 200

// loadPhase runs one segment's closed or open loop against a booted
// target, waits for the drain and checks the daemon's counters.
func loadPhase(e *env, w *workload, seed int64, d time.Duration, tgt target, res *runResult) error {
	ev, err := subscribe(e.sse, tgt.base())
	if err != nil {
		return err
	}
	defer ev.close()
	l := newLoad(w, tgt.base(), e.api, ev)
	alloc0, _, _, err := tgt.goStats()
	if err != nil {
		return err
	}
	cpu0, err := tgt.cpuSeconds()
	if err != nil {
		return err
	}
	steal0, total0, err := hostTimes()
	if err != nil {
		return err
	}
	if w.loop == openLoop {
		l.runOpen(seed, d)
	} else {
		l.runClosed(seed, d)
	}
	if err := l.drain(drainTimeout); err != nil {
		return err
	}
	cpu1, err := tgt.cpuSeconds()
	if err != nil {
		return err
	}
	steal1, total1, err := hostTimes()
	if err != nil {
		return err
	}
	sg := segStats{
		cpuPerJob: 1000 * (cpu1 - cpu0) / float64(max(1, l.accepted)),
		steal:     ratio(steal1-steal0, total1-total0),
	}
	if err := res.addGoStats(tgt, alloc0); err != nil {
		return err
	}
	res.loads = append(res.loads, l)
	missing, err := collect(e, tgt, l, res, &sg)
	if err != nil {
		return err
	}
	res.segs = append(res.segs, sg)
	// Every stolen job is counted in collect; up to statusChecks of
	// them, evenly spaced, are also read back.
	step := max(1, len(missing)/statusChecks)
	for i := 0; i < len(missing); i += step {
		st, _, err := getStatus(e.api, tgt.base(), missing[i])
		res.check(err == nil && st.State == sim.JobDone.String(), "stolen job %d: %s %v", missing[i], st.State, err)
	}
	// Status reads after the drain confirm each sampled job completed.
	// Workloads without reads under load time these.
	rng := rand.New(rand.NewSource(seed))
	ids := make([]int, 0, len(l.due))
	for id := range l.due {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for i := 0; i < statusChecks && len(ids) > 0; i++ {
		id := ids[rng.Intn(len(ids))]
		st, took, err := getStatus(e.api, tgt.base(), id)
		if err != nil {
			res.check(false, "%v", err)
			break
		}
		res.check(st.State == sim.JobDone.String(), "job %d is %q after the drain, want %q", id, st.State, sim.JobDone.String())
		if w.statusShare == 0 {
			res.ops++
			res.status.addDur(took)
		}
	}
	return nil
}

// collect reduces one drained load phase into res (and, when sg is not
// nil, into the segment's figures) and checks the daemon's counters
// against what the generator saw.
//
// A stolen job's completion event carries the ID the thief shard gave it,
// not the ID it was acked under, so its completion time is unknown to a
// client: collect returns those jobs (acked, no event under their ID) for
// a status check, and turnaround covers the others.
func collect(e *env, tgt target, l *load, res *runResult, sg *segStats) ([]int, error) {
	stats, m, err := daemonState(e.api, tgt.base())
	if err != nil {
		return nil, err
	}
	rss, err := tgt.rssPeakMB()
	if err != nil {
		return nil, err
	}
	l.ev.mu.Lock()
	l.mu.Lock()
	defer l.ev.mu.Unlock()
	defer l.mu.Unlock()

	var lastDone time.Time
	var missing []int
	var turnaround samples
	for id, due := range l.due {
		done, ok := l.ev.done[id]
		if !ok {
			missing = append(missing, id)
			continue
		}
		turnaround.addDur(done.Sub(due))
		if done.After(lastDone) {
			lastDone = done
		}
	}
	res.turnaround = append(res.turnaround, turnaround...)
	res.admit = append(res.admit, l.admit...)
	res.status = append(res.status, l.status...)
	res.late = append(res.late, l.late...)
	res.submits += l.submits
	res.sloMet += l.sloMet
	res.jobsTried += l.jobsTried
	res.accepted += l.accepted
	res.shed += l.shed
	res.full += l.full
	res.ops += l.ops
	res.failed += l.failed
	res.errs = append(res.errs, l.errs...)
	for t, n := range l.tenantOK {
		res.tenantOK[t] += n
	}
	res.rss.add(rss)
	if l.accepted > 0 {
		wall := lastDone.Sub(l.firstSend).Seconds()
		res.drainWall.add(wall)
		if sg != nil {
			sg.submitRate = float64(l.accepted) / l.lastAck.Sub(l.firstSend).Seconds()
			sg.drainRate = float64(l.accepted) / wall
			sg.stepRate = float64(stats.Steps) / wall
		}
	}
	if sg != nil {
		sg.admit = l.admit.median()
		sg.turnaround = turnaround.median()
		sg.slo = ratio(float64(l.sloMet), float64(l.submits))
		sg.accepted = ratio(float64(l.accepted), float64(l.jobsTried))
	}
	res.steps += stats.Steps
	res.leapSteps += int64(m["krad_engine_leap_steps_total"])
	res.phaseSteps = append(res.phaseSteps, stats.Steps)
	res.phaseLeaps = append(res.phaseLeaps, int64(m["krad_engine_leap_steps_total"]))
	res.received += l.ev.received
	res.dropped += stats.EventsDropped
	res.shardSubmitted = nil
	for i := 0; i < stats.Shards; i++ {
		res.shardSubmitted = append(res.shardSubmitted, m[fmt.Sprintf("krad_shard_jobs_submitted_total{shard=\"%d\"}", i)])
	}

	completed := int64(len(l.ev.done))
	res.check(stats.Submitted == int64(l.accepted), "daemon admitted %d jobs, generator saw %d acked", stats.Submitted, l.accepted)
	res.check(stats.Completed == int64(l.accepted) && stats.Cancelled == 0,
		"completed %d + cancelled %d != accepted %d", stats.Completed, stats.Cancelled, l.accepted)
	res.check(stats.Completed == completed, "daemon completed %d jobs, event stream showed %d", stats.Completed, completed)
	res.check(stats.EventsDropped == 0, "%d events dropped on the subscriber stream", stats.EventsDropped)
	var stolen int64
	if stats.Steal != nil {
		stolen = stats.Steal.Stolen
		res.check(stolen == stats.Steal.StolenIn, "steal: stolen %d != stolen_in %d", stolen, stats.Steal.StolenIn)
	}
	res.stolen += stolen
	foreign := 0
	for id := range l.ev.done {
		if _, ok := l.due[id]; !ok {
			foreign++
		}
	}
	res.check(len(missing) == foreign && int64(len(missing)) <= stolen,
		"%d acked jobs have no completion event, %d events name unacked jobs, %d jobs were stolen", len(missing), foreign, stolen)
	res.unmatched += len(missing)
	slices.Sort(missing)
	return missing, nil
}

// daemonState reads /healthz stats and /metrics.
func daemonState(client *http.Client, base string) (server.Stats, map[string]float64, error) {
	code, body, err := get(client, base+"/healthz")
	if err != nil {
		return server.Stats{}, nil, err
	}
	if code != http.StatusOK {
		return server.Stats{}, nil, fmt.Errorf("/healthz: HTTP %d", code)
	}
	var h struct {
		Stats server.Stats `json:"stats"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return server.Stats{}, nil, fmt.Errorf("/healthz: %w", err)
	}
	m, err := scrape(client, base)
	return h.Stats, m, err
}

// engineOnly drains a batch through a bare engine configured as kradd
// configures each shard's — NewEngine, AdmitBatch and a StepN loop, no
// server — and returns the result, the virtual step count and the wall
// time.
func engineOnly(specs []sim.JobSpec) (*sim.Result, int64, time.Duration, error) {
	start := time.Now()
	eng, err := sim.NewEngine(sim.Config{K: numCats, Caps: caps, Scheduler: newKRAD(), Seed: 1, ValidateAllotments: true})
	if err != nil {
		return nil, 0, 0, err
	}
	if _, err := eng.AdmitBatch(specs); err != nil {
		return nil, 0, 0, err
	}
	var steps int64
	for eng.Remaining() > 0 {
		info, err := eng.StepN(1 << 40)
		if err != nil {
			return nil, 0, 0, err
		}
		steps += info.Steps
	}
	took := time.Since(start)
	return eng.Result(), steps, took, nil
}

// runProbe runs the burst probe's cycles — fresh daemon, one batch
// POST, drain, check — with batches drawn from the run's seed.
func runProbe(e *env, seed int64, boot bootFunc) (*runResult, error) {
	res := &runResult{tenantOK: make(map[string]int)}
	for c := 0; c < probeCycles; c++ {
		jobs := burstProbe.burst(rand.New(rand.NewSource(seed*1000 + int64(c))))
		res.bursts = append(res.bursts, jobs)
		if err := burstCycle(e, jobs, boot, res); err != nil {
			return nil, fmt.Errorf("cycle %d: %w", c, err)
		}
	}
	return res, nil
}

func burstCycle(e *env, jobs []wireJob, boot bootFunc, res *runResult) error {
	specs, err := specsOf(jobs)
	if err != nil {
		return err
	}
	want, _, _, err := engineOnly(specs)
	if err != nil {
		return err
	}
	body, err := encodeSubmit(jobs, true)
	if err != nil {
		return err
	}
	tgt, setup, err := boot(burstProbe, e.runDir(burstProbe.name))
	if err != nil {
		return err
	}
	res.setup.add(setup)
	err = burstLoad(e, jobs, body, want, tgt, res)
	info, stopErr := tgt.stop()
	if err := errors.Join(err, stopErr); err != nil {
		return err
	}
	res.phaseJournal = append(res.phaseJournal, info.journalBytes)
	return nil
}

func burstLoad(e *env, jobs []wireJob, body []byte, want *sim.Result, tgt target, res *runResult) error {
	ev, err := subscribe(e.sse, tgt.base())
	if err != nil {
		return err
	}
	defer ev.close()
	l := newLoad(burstProbe, tgt.base(), e.api, ev)
	r := &submitReq{jobs: jobs, body: body, due: time.Now()}
	l.submit(r)
	if l.accepted != len(jobs) {
		return fmt.Errorf("burst batch not accepted: %v", l.errs)
	}
	if err := l.drain(drainTimeout); err != nil {
		return err
	}
	res.loads = append(res.loads, l)
	if _, err := collect(e, tgt, l, res, nil); err != nil {
		return err
	}

	// The batch was admitted atomically at t=0, so the schedule is
	// deterministic: every completion step must equal the bare engine's,
	// and the makespan must lie within the Section 4 lower bound and the
	// Lemma 2 upper bound.
	ids := l.recent
	var makespan int64
	for i, id := range ids {
		st, _, err := getStatus(e.api, tgt.base(), id)
		res.ops++
		if err != nil {
			return err
		}
		res.check(st.State == sim.JobDone.String() && st.Completion == want.Jobs[i].Completion,
			"job %d: %s at step %d, the bare engine completes it at %d", id, st.State, st.Completion, want.Jobs[i].Completion)
		makespan = max(makespan, st.Completion)
	}
	lb, ub := metrics.MakespanLowerBound(want), metrics.MakespanUpperBound(want)
	res.check(makespan >= lb && float64(makespan) <= ub, "makespan %d outside [%d, %.1f]", makespan, lb, ub)
	return nil
}
