package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"krad/internal/analysis"
	"krad/internal/dag"
	"krad/internal/fairshare"
	"krad/internal/journal"
	"krad/internal/replicate"
	"krad/internal/sched"
	"krad/internal/server"
	"krad/internal/sim"
)

// newKRAD is the scheduler kradd builds for every shard: K-RAD wrapped
// to respect moldable jobs' non-preemptive floors.
func newKRAD() sched.Scheduler {
	s, err := analysis.NewScheduler("k-rad", numCats)
	if err != nil {
		panic(err) // the name and K are constants
	}
	return sched.WithFloors(s)
}

// serverConfig is the server.Config cmd/kradd builds for the workload's
// flags and its defaults (-seed 1, -pick fifo, -fsync-interval 100ms,
// -snapshot-every 10000, -step-batch 0, -steal-max 64). tr, when set,
// installs the traced scheduler and journal file.
func serverConfig(w *workload, dir string, follower bool, tr *tracer) (server.Config, error) {
	f := w.flags
	policy := journal.SyncAlways
	if f.Fsync != "" {
		var err error
		if policy, err = journal.ParseSyncPolicy(f.Fsync); err != nil {
			return server.Config{}, err
		}
	}
	cfg := server.Config{
		Sim: sim.Config{
			K: numCats, Caps: caps, Scheduler: newKRAD(), Pick: dag.PickFIFO,
			Seed: 1, ValidateAllotments: true,
		},
		MaxInFlight:      f.Queue,
		StepEvery:        f.Step,
		SubscriberBuffer: f.EventBuffer,
		Shards:           max(1, f.Shards),
		Placement:        f.Placement,
		NewScheduler:     newKRAD,
		Journal: &server.JournalConfig{
			Dir: dir, Sync: policy, SyncInterval: 100 * time.Millisecond, SnapshotEvery: 10000,
		},
		Follower:   follower,
		RetireDone: f.Retire,
		Steal:      f.Steal,
		StealMax:   64,
	}
	if cfg.Placement == "" {
		cfg.Placement = server.PlaceRoundRobin
	}
	if f.FairConfig != "" {
		c, err := fairshare.ParseConfig(strings.NewReader(f.FairConfig))
		if err != nil {
			return server.Config{}, err
		}
		cfg.Fairness = &c
	}
	if tr != nil {
		cfg.NewScheduler = func() sched.Scheduler { return tr.sched(newKRAD()) }
		cfg.Journal.OpenAppend = tr.openAppend
	}
	return cfg, nil
}

// stack is the kradd stack rebuilt in this process, as cmd/kradd wires
// it, serving the traced handler on loopback.
type stack struct {
	svc      *server.Service
	srv      *http.Server
	addr     string
	served   chan struct{}
	sender   *replicate.Sender
	follower *server.Service
	receiver *replicate.Receiver
	dir      string
	follDir  string
	shards   int
	client   *http.Client

	lagStop chan struct{}
	lagDone chan struct{}
	lag     samples // sampled Sender lag, records
}

func bootStack(w *workload, runDir string, client *http.Client, tr *tracer) (*stack, float64, error) {
	start := time.Now()
	st := &stack{dir: filepath.Join(runDir, "journal"), shards: max(1, w.flags.Shards), client: client}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	st.addr = ln.Addr().String()
	fail := func(err error) (*stack, float64, error) {
		_ = ln.Close()
		_ = st.shutdown() // the boot error is the one to report
		return nil, 0, err
	}
	var repAddr string
	if w.flags.Replicate {
		st.follDir = filepath.Join(runDir, "follower")
		fcfg, err := serverConfig(w, st.follDir, true, nil)
		if err != nil {
			return fail(err)
		}
		if st.follower, err = server.New(fcfg); err != nil {
			return fail(err)
		}
		rln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		repAddr = rln.Addr().String()
		fsvc := st.follower
		st.receiver, err = replicate.NewReceiver(replicate.ReceiverConfig{
			Listener: rln, Applier: fsvc, Epoch: 1,
			OnPromote: func(int64) { fsvc.Promote() },
		})
		if err != nil {
			_ = rln.Close()
			return fail(err)
		}
		fsvc.SetPromote(st.receiver.Promote)
		fsvc.Start()
	}
	cfg, err := serverConfig(w, st.dir, false, tr)
	if err != nil {
		return fail(err)
	}
	if st.svc, err = server.New(cfg); err != nil {
		return fail(err)
	}
	if w.flags.Replicate {
		st.sender, err = replicate.NewSender(replicate.SenderConfig{
			Addr: repAddr, Epoch: 1, Shards: st.svc.Shards(),
			CatchUp: server.JournalCatchUp(st.dir), QueueLen: 1024, Heartbeat: time.Second,
		})
		if err != nil {
			return fail(err)
		}
		st.sender.Seed(st.svc.ReplicationSeqs())
		st.svc.SetReplicator(tracedRep{s: st.sender, t: tr})
		sender := st.sender
		st.svc.SetReplicationStats(func() *server.ReplicationStats {
			s := sender.Stats()
			return &server.ReplicationStats{Role: "primary", Primary: &s}
		})
		st.sender.Start()
		st.lagStop, st.lagDone = make(chan struct{}), make(chan struct{})
		go st.sampleLag()
	}
	st.svc.Start()
	st.srv = &http.Server{Handler: tr.handler(st.svc.Handler()), ReadHeaderTimeout: 10 * time.Second}
	st.served = make(chan struct{})
	go func() {
		defer close(st.served)
		_ = st.srv.Serve(ln)
	}()
	if err := waitReady(client, st.base(), w.flags.Replicate, nil); err != nil {
		_ = st.shutdown() // the readiness error is the one to report
		return nil, 0, err
	}
	return st, time.Since(start).Seconds(), nil
}

// sampleLag samples the sender's unacknowledged records every 5ms.
func (st *stack) sampleLag() {
	defer close(st.lagDone)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-st.lagStop:
			return
		case <-tick.C:
			st.lag.add(float64(st.sender.Stats().LagRecords))
		}
	}
}

func (st *stack) base() string { return "http://" + st.addr }

func (st *stack) cpuSeconds() (float64, error) { return procCPUSeconds(os.Getpid()) }

func (st *stack) rssPeakMB() (float64, error) { return procHWMMB(os.Getpid()) }

func (st *stack) goStats() (float64, float64, bool, error) { return 0, 0, false, nil }

// shutdown stops everything in cmd/kradd's order: drain the primary,
// stop the sender, stop HTTP, then the standby.
func (st *stack) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if st.svc != nil {
		errs = append(errs, st.svc.Close(ctx), st.svc.Err())
	}
	if st.lagStop != nil {
		close(st.lagStop)
		<-st.lagDone
		st.lagStop = nil
	}
	if st.sender != nil {
		st.sender.Stop()
	}
	if st.srv != nil {
		errs = append(errs, st.srv.Shutdown(ctx))
		<-st.served
	}
	if st.follower != nil {
		errs = append(errs, st.follower.Close(ctx))
	}
	if st.receiver != nil {
		st.receiver.Close()
	}
	return errors.Join(errs...)
}

func (st *stack) stop() (stopInfo, error) {
	if st.sender != nil {
		if err := waitCaughtUp(st.client, st.base()); err != nil {
			_ = st.shutdown()
			return stopInfo{}, err
		}
	}
	if err := st.shutdown(); err != nil {
		return stopInfo{}, err
	}
	return readJournals(st.dir, st.follDir, st.shards)
}

// tracedLoad caps the load of each pass of a traced run, so the three
// passes end well within the time a run may take.
const tracedLoad = 15 * time.Second

// tracedRun runs the workload twice with the same seed — against the
// real binary (with -pprof, for the Go runtime figures) and against the
// traced in-process stack — then times admission again by direct
// Service.SubmitBatchTenant calls, and reduces it all to per-layer
// metrics.
func tracedRun(e *env, bin string, w *workload, seed int64, d time.Duration) (outcome, error) {
	d = min(d, tracedLoad)
	plain, err := runWorkload(e, w, seed, d, func(w *workload, dir string) (target, float64, error) {
		return bootDaemon(bin, w, dir, e.api, true)
	})
	if err != nil {
		return outcome{}, fmt.Errorf("untraced pass: %w", err)
	}
	t0 := time.Now()
	var trs []*tracer
	var lags samples
	var drops int64
	var mu sync.Mutex
	traced, err := runWorkload(e, w, seed, d, func(bw *workload, dir string) (target, float64, error) {
		tr := newTracer(t0)
		st, setup, err := bootStack(bw, dir, e.api, tr)
		if err != nil {
			return nil, 0, err
		}
		if bw != w {
			// The burst probe runs traced, so the faithfulness check
			// covers it, but its spans stay out of the workload's.
			return st, setup, nil
		}
		mu.Lock()
		trs = append(trs, tr)
		mu.Unlock()
		return &lagCollector{stack: st, into: &lags, drops: &drops}, setup, nil
	})
	if err != nil {
		return outcome{}, fmt.Errorf("traced pass: %w", err)
	}
	for _, s := range append(plain.errs, traced.errs...) {
		fmt.Fprintln(os.Stderr, "  error:", s)
	}
	calls, err := directPass(e, w, traced, d)
	if err != nil {
		return outcome{}, fmt.Errorf("direct-call pass: %w", err)
	}
	reqs, kids, allots := allSpans(trs)
	if err := os.MkdirAll(filepath.Join(e.root, ".bench_build", "traces"), 0o755); err != nil {
		return outcome{}, err
	}
	spanFile := filepath.Join(e.root, ".bench_build", "traces", w.name+".csv")
	if err := writeSpans(spanFile, reqs, kids, allots); err != nil {
		return outcome{}, err
	}
	fmt.Printf("  spans: %s (%d request, %d journal/replication, %d allotment)\n", spanFile, len(reqs), len(kids), len(allots))

	o := outcome{
		rep:       perLayer(w, plain, traced, reqs, kids, allots, allotGrowth(trs), calls, lags, drops),
		attempted: plain.ops + traced.ops,
		failed:    plain.failed + traced.failed,
		checks:    append(append([]string(nil), plain.checks...), traced.checks...),
	}
	o.checks = append(o.checks, faithful(plain, traced)...)
	return o, nil
}

// lagCollector hands a stopped stack's replication lag samples and
// queue drops to the traced run.
type lagCollector struct {
	*stack
	into  *samples
	drops *int64
}

func (l *lagCollector) stop() (stopInfo, error) {
	if l.sender != nil {
		*l.drops += l.sender.Stats().QueueDrops
	}
	info, err := l.stack.stop()
	*l.into = append(*l.into, l.stack.lag...)
	return info, err
}

// faithful checks that tracing did not change what the engine did. On
// the burst probe the schedule is deterministic, so each cycle's virtual
// steps, leap steps and journal bytes must match exactly. Under the
// workload's load arrival timing moves the step counts, so the check is
// that leaping was not blocked: the traced leap share stays within half
// to twice the untraced one.
func faithful(plain, traced *runResult) []string {
	var bad []string
	p, t := plain.probe, traced.probe
	for i := range p.phaseSteps {
		if p.phaseSteps[i] != t.phaseSteps[i] || p.phaseLeaps[i] != t.phaseLeaps[i] ||
			p.phaseJournal[i] != t.phaseJournal[i] {
			bad = append(bad, fmt.Sprintf("burst probe cycle %d: traced steps/leap steps/journal bytes %d/%d/%d, untraced %d/%d/%d", i,
				t.phaseSteps[i], t.phaseLeaps[i], t.phaseJournal[i],
				p.phaseSteps[i], p.phaseLeaps[i], p.phaseJournal[i]))
		}
	}
	pu := ratio(float64(plain.leapSteps), float64(plain.steps))
	pt := ratio(float64(traced.leapSteps), float64(traced.steps))
	if pu > 0.05 && (pt < pu/2 || pt > 2*pu) {
		bad = append(bad, fmt.Sprintf("traced leap share %.3f, untraced %.3f", pt, pu))
	}
	return bad
}

// directPass replays the submissions of the traced run's first segment
// through Service.SubmitBatchTenant on a fresh in-process stack (no
// HTTP), with the same number of clients, and returns each call's
// duration in µs.
// A call refused for a full queue is retried after a millisecond and
// only the accepted attempt is timed.
func directPass(e *env, w *workload, traced *runResult, d time.Duration) (samples, error) {
	type call struct {
		key, tenant string
		specs       []sim.JobSpec
		at          time.Duration // open loop: due offset from the first request
	}
	var calls []call
	for _, l := range traced.loads[:1] {
		for _, r := range l.sent {
			specs, err := specsOf(r.jobs)
			if err != nil {
				return nil, err
			}
			calls = append(calls, call{r.key, r.tenant, specs, r.due.Sub(l.sent[0].due)})
		}
	}
	var out samples
	var mu sync.Mutex
	run := func(st *stack, todo []call, deadline time.Time) error {
		begin := time.Now()
		next := 0
		var firstErr error
		var wg sync.WaitGroup
		for c := 0; c < w.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					if next >= len(todo) || firstErr != nil || time.Now().After(deadline) {
						mu.Unlock()
						return
					}
					cl := todo[next]
					next++
					mu.Unlock()
					if w.loop == openLoop {
						// Keep the open loop's schedule, so admission sees
						// the same contention as over HTTP.
						time.Sleep(time.Until(begin.Add(cl.at)))
					}
					for {
						start := time.Now()
						_, err := st.svc.SubmitBatchTenant(cl.key, cl.tenant, cl.specs)
						took := time.Since(start)
						if errors.Is(err, server.ErrQueueFull) {
							time.Sleep(time.Millisecond)
							continue
						}
						mu.Lock()
						if err != nil && !errors.Is(err, server.ErrOverQuota) && firstErr == nil {
							firstErr = err
						}
						out.add(float64(took) / float64(time.Microsecond))
						mu.Unlock()
						break
					}
				}
			}()
		}
		wg.Wait()
		return firstErr
	}
	deadline := time.Now().Add(d)
	return out, directStack(e, w, func(st *stack) error { return run(st, calls, deadline) })
}

func directStack(e *env, w *workload, f func(*stack) error) error {
	st, _, err := bootStack(w, e.runDir(w.name+"-direct"), e.api, newTracer(time.Now()))
	if err != nil {
		return err
	}
	err = f(st)
	_, stopErr := st.stop()
	return errors.Join(err, stopErr)
}

// perLayer reduces the two runs to the per-layer metrics. Figures that
// need timing inside the process come from the traced run; figures a
// client can see (fair share, stealing, placement, fan-out, lateness)
// and the Go runtime figures come from the untraced run.
func perLayer(w *workload, plain, traced *runResult, reqs, kids, allots []span, growth, calls, lags samples, drops int64) report {
	var rep report
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	jobs := float64(max(1, traced.accepted))
	wall := traced.drainWall.sum()

	// internal/server: HTTP front and admission.
	childTime := make(map[int32]time.Duration)
	for _, k := range kids {
		if k.parent != 0 {
			childTime[k.parent] += k.dur()
		}
	}
	var submitSelf, submitFull, status samples
	for i, r := range reqs {
		switch r.kind {
		case spSubmit:
			submitFull.add(us(r.dur()))
			submitSelf.add(us(r.dur() - childTime[int32(i+1)]))
		case spStatus:
			status.add(us(r.dur()))
		}
	}
	rep.pct("http.submit.self_us_p50", "us", submitSelf, 0.5)
	rep.pct("http.status.us_p50", "us", status, 0.5)
	rep.pct("admit.call.us_p50", "us", calls, 0.5)
	rep.set("admit.http_share", "share", 1-ratio(calls.median(), submitFull.median()), len(submitFull))

	// internal/journal.
	var writes, syncs samples
	var bytes, stepsSyncs, syncTime float64
	for _, k := range kids {
		switch k.kind {
		case spWrite:
			writes.add(us(k.dur()))
			bytes += float64(k.bytes)
		case spSync:
			syncs.add(us(k.dur()))
			syncTime += k.dur().Seconds()
			if k.steps {
				stepsSyncs++
			}
		}
	}
	rep.set("journal.write.per_job", "count", float64(len(writes))/jobs, len(writes))
	rep.set("journal.write.bytes_per_job", "B", bytes/jobs, len(writes))
	rep.pct("journal.write.us_p50", "us", writes, 0.5)
	rep.set("journal.sync.per_job", "count", float64(len(syncs))/jobs, len(syncs))
	rep.pct("journal.sync.us_p50", "us", syncs, 0.5)
	rep.set("journal.sync.wall_share", "share", ratio(syncTime, wall), len(syncs))
	rep.set("journal.sync.steps_share", "share", ratio(stepsSyncs, float64(len(syncs))), len(syncs))

	// internal/replicate.
	if w.flags.Replicate {
		var committed samples
		for _, k := range kids {
			if k.kind == spCommitted {
				committed.add(us(k.dur()))
			}
		}
		rep.pct("replicate.committed.us_p50", "us", committed, 0.5)
		rep.pct("replicate.lag_records_p99", "count", lags, 0.99)
		rep.set("replicate.queue_drops", "count", float64(drops), len(lags))
	} else {
		const why = "no replication on this workload"
		rep.na("replicate.committed.us_p50", "us", why)
		rep.na("replicate.lag_records_p99", "count", why)
		rep.na("replicate.queue_drops", "count", why)
	}

	// internal/fairshare.
	if w.flags.FairConfig != "" {
		rep.set("fair.shed_share", "share", ratio(float64(plain.shed), float64(plain.submits)), plain.submits)
		var wsum float64
		for _, t := range w.tenants {
			wsum += t.weight
		}
		worst := 0.0
		for _, t := range w.tenants {
			got := ratio(float64(plain.tenantOK[t.name]), float64(plain.accepted))
			worst = max(worst, math.Abs(got-t.weight/wsum))
		}
		rep.set("fair.share_error", "share", worst, plain.accepted)
	} else {
		const why = "fair-share admission is off on this workload"
		rep.na("fair.shed_share", "share", why)
		rep.na("fair.share_error", "share", why)
	}

	// internal/sched and internal/core.
	var allot samples
	var allotTime, active, overloaded float64
	for _, a := range allots {
		allot.add(us(a.dur()))
		allotTime += a.dur().Seconds()
		active += float64(a.active)
		overloaded += float64(a.overloaded)
	}
	steps := float64(max(1, traced.steps))
	rep.set("sched.allot.per_kstep", "count", 1000*float64(len(allot))/steps, len(allot))
	rep.pct("sched.allot.us_p50", "us", allot, 0.5)
	rep.set("sched.allot.wall_share", "share", ratio(allotTime, wall), len(allot))
	// Growth is measured within each stack (segment), as calls slow down
	// over one daemon's lifetime.
	if len(growth) > 0 {
		rep.set("sched.allot.us_growth", "ratio", growth.median(), len(growth))
	} else {
		rep.na("sched.allot.us_growth", "ratio", "too few allotment calls")
	}
	rep.set("sched.overload_share", "share", ratio(overloaded, active), int(active))

	// internal/sim.
	rep.set("sim.steps_per_round", "ratio", ratio(float64(traced.steps), float64(len(allot))), len(allot))
	rep.set("sim.leap_share", "share", ratio(float64(traced.leapSteps), float64(traced.steps)), int(traced.steps))
	// Engine-only drain, on the burst probe's batches (untraced pass).
	var engSteps int64
	var engWall time.Duration
	var engWalls samples
	for _, jobs := range plain.probe.bursts {
		specs, err := specsOf(jobs)
		if err != nil {
			continue
		}
		_, n, took, err := engineOnly(specs)
		if err != nil {
			continue
		}
		engSteps += n
		engWall += took
		engWalls.add(took.Seconds())
	}
	rep.set("sim.engine_only.steps_per_s", "1/s", ratio(float64(engSteps), engWall.Seconds()), len(engWalls))
	rep.set("server.step_overhead_share", "share", 1-ratio(engWalls.median(), plain.probe.drainWall.median()), len(engWalls))

	// internal/server: fan-out, stealing and placement (untraced run).
	rep.set("fanout.events_per_kstep", "count", 1000*ratio(float64(plain.received), float64(plain.steps)), int(plain.received))
	rep.set("fanout.dropped_share", "share", ratio(float64(plain.dropped), float64(plain.received+plain.dropped)), int(plain.received+plain.dropped))
	if w.flags.Steal {
		rep.set("steal.moved_share", "share", ratio(float64(plain.stolen), float64(plain.accepted)), plain.accepted)
	} else {
		rep.na("steal.moved_share", "share", "stealing is off on this workload")
	}
	if len(plain.shardSubmitted) > 1 {
		var sum, top float64
		for _, v := range plain.shardSubmitted {
			sum += v
			top = max(top, v)
		}
		rep.set("place.max_over_mean", "ratio", ratio(top, sum/float64(len(plain.shardSubmitted))), len(plain.shardSubmitted))
	} else {
		rep.na("place.max_over_mean", "ratio", "one shard")
	}

	// Go runtime of the kradd process (untraced run, -pprof heap header).
	rep.set("go.alloc_bytes_per_job", "B", plain.allocBytes/float64(max(1, plain.accepted)), plain.accepted)
	rep.set("go.gc_cpu_share", "share", plain.gcCPU.median(), len(plain.gcCPU))

	// The load generator and the tracer itself.
	if w.loop == openLoop {
		rep.pct("gen.late_ms_p99", "ms", plain.late, 0.99)
	} else {
		rep.na("gen.late_ms_p99", "ms", "closed loop: requests are due when sent")
	}
	pe, te := endToEnd(w, plain), endToEnd(w, traced)
	for _, name := range []string{"submit_jobs_per_s", "admit_p50_ms", "drain_jobs_per_s"} {
		p, _ := pe.get(name)
		t, _ := te.get(name)
		rep.set("trace.overhead."+name, "ratio", ratio(t.Value, p.Value), t.N)
	}
	rep.set("trace.steps_per_job_ratio", "ratio",
		ratio(float64(traced.steps)/jobs, float64(plain.steps)/float64(max(1, plain.accepted))), int(traced.steps))
	rep.set("trace.leap_share_ratio", "ratio",
		ratio(ratio(float64(traced.leapSteps), float64(traced.steps)), ratio(float64(plain.leapSteps), float64(plain.steps))), int(traced.steps))
	return rep
}
