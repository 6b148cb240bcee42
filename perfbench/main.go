// Command perfbench is krad's end-to-end benchmark. It boots the real
// kradd binary fresh for every run, drives it from this single process
// with at most nproc connections (the SSE event stream included), checks
// the outputs, and prints every metric with its unit and sample count.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"setup_s": {"value": ..., "unit": "s"}, ...}}
//
// With -trace 1 it instead runs each workload twice with the same seed:
// once against the real binary, and once against the same stack rebuilt
// in process (stack.go), timing calls into each layer's public functions
// from this package. The JSON then carries the per-layer metrics.
//
// Build and run it through run.sh from the checkout root:
//
//	bash perfbench/run.sh --workload batch-skew --seed 3 --seconds 20 --trace 0
//
// Workloads: batch-skew, replicated-fair, or all (one after another;
// metrics are then prefixed by workload). Every run ends with the burst
// probe, a deterministic-schedule check (workload.go). A failed output
// check prints the failures, a result with "correct": false and no
// metrics, and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	name := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "load seconds per run")
	trace := flag.Int("trace", 0, "1 = traced per-layer run")
	flag.Parse()

	// run.sh starts the benchmark in the checkout root, where it built kradd.
	if err := run(".", *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// outcome is one workload's result: its metrics, op counts and failed
// checks.
type outcome struct {
	rep               report
	attempted, failed int
	checks            []string
}

func run(root, name string, seed int64, d time.Duration, traced bool) error {
	bin := filepath.Join(root, ".bench_build", "kradd")
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("kradd binary: %w (run through perfbench/run.sh)", err)
	}
	work := filepath.Join(root, ".bench_build", "runs", fmt.Sprintf("%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	list := workloads()
	if name != "all" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		list = []*workload{w}
	}

	metrics := map[string]any{}
	correct := true
	attempted, failed := 0, 0
	// One env for every workload, so run directory names never repeat.
	e := &env{root: root, work: work}
	for _, w := range list {
		e.api, e.sse = newClient(w.clients), newClient(1)
		var o outcome
		var err error
		if traced {
			o, err = tracedRun(e, bin, w, seed, d)
		} else {
			o, err = untracedRun(e, bin, w, seed, d)
		}
		e.api.CloseIdleConnections()
		e.sse.CloseIdleConnections()
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		fmt.Printf("== %s (seed %d, %v of load, trace %v): %s\n", w.name, seed, d, traced, w.describe())
		for _, m := range o.rep.metrics {
			fmt.Println("  " + m.String())
		}
		for _, c := range o.checks {
			fmt.Println("  CHECK FAILED: " + c)
		}
		correct = correct && len(o.checks) == 0
		attempted += o.attempted
		failed += o.failed
		for _, m := range o.rep.metrics {
			if m.Info {
				continue
			}
			key := m.Name
			if len(list) > 1 {
				key = w.name + "." + m.Name
			}
			v := m.Value
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			metrics[key] = map[string]any{"value": v, "unit": m.Unit}
		}
	}
	if !correct {
		metrics = map[string]any{}
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

// untracedRun measures the end-to-end metrics against the real binary.
func untracedRun(e *env, bin string, w *workload, seed int64, d time.Duration) (outcome, error) {
	res, err := runWorkload(e, w, seed, d, func(w *workload, dir string) (target, float64, error) {
		return bootDaemon(bin, w, dir, e.api, false)
	})
	if err != nil {
		return outcome{}, err
	}
	for _, s := range res.errs {
		fmt.Fprintln(os.Stderr, "  error:", s)
	}
	return outcome{rep: endToEnd(w, res), attempted: res.ops, failed: res.failed, checks: res.checks}, nil
}

// endToEnd reduces a run to the metrics a user of kradd sees. Every
// gated metric is defined on every workload, and is the median over the
// run's quiet segments of the segment's figure (see segment and quiet in
// run.go); a median percentile is printed with the pooled sample count
// and how many pooled samples lie beyond it. Tail percentiles, peak RSS,
// idle status reads and the failure share are printed but not gated:
// their run-to-run spread on a shared machine is wider than any bound a
// regression check could use.
func endToEnd(w *workload, r *runResult) report {
	segs := r.quiet()
	// seg collects one figure of every quiet segment.
	seg := func(f func(segStats) float64) samples {
		var out samples
		for _, s := range segs {
			out.add(f(s))
		}
		return out
	}
	var rep report
	rep.set("setup_s", "s", r.setup.median(), len(r.setup))
	rep.set("submit_jobs_per_s", "1/s", seg(func(s segStats) float64 { return s.submitRate }).median(), len(segs))
	rep.segPct("admit_p50_ms", "ms", seg(func(s segStats) float64 { return s.admit }), r.admit)
	rep.pct("admit_p99_ms", "ms", r.admit, 0.99)
	rep.info()
	rep.set("slo_met_share", "share", seg(func(s segStats) float64 { return s.slo }).median(), len(segs))
	rep.set("drain_jobs_per_s", "1/s", seg(func(s segStats) float64 { return s.drainRate }).median(), len(segs))
	rep.segPct("turnaround_p50_ms", "ms", seg(func(s segStats) float64 { return s.turnaround }), r.turnaround)
	rep.pct("turnaround_p99_ms", "ms", r.turnaround, 0.99)
	rep.info()
	rep.set("virtual_steps_per_s", "1/s", seg(func(s segStats) float64 { return s.stepRate }).median(), len(segs))
	// Gated nowhere: on replicated-fair the reads hit an idle daemon
	// after the drain, and their latency is the machine's wake-up time,
	// not kradd's.
	rep.pct("status_p50_ms", "ms", r.status, 0.50)
	rep.info()
	rep.set("accepted_share", "share", seg(func(s segStats) float64 { return s.accepted }).median(), len(segs))
	rep.set("failed_share", "share", ratio(float64(r.failed), float64(r.ops)), r.ops)
	rep.info()
	rep.set("cpu_ms_per_job", "ms", seg(func(s segStats) float64 { return s.cpuPerJob }).median(), len(segs))
	rep.set("rss_peak_mb", "MB", r.rss.median(), len(r.rss))
	rep.info()
	var steal samples
	for _, s := range r.segs {
		steal.add(s.steal)
	}
	rep.set("host_steal_share", "share", steal.median(), len(steal))
	rep.info()
	rep.set("quiet_segments", "count", float64(len(segs)), len(r.segs))
	rep.info()
	if w.loop == openLoop {
		rep.pct("gen.late_ms_p99", "ms", r.late, 0.99)
		rep.info()
		rep.set("queue_full_share", "share", ratio(float64(r.full), float64(r.submits)), r.submits)
		rep.info()
	}
	if r.unmatched > 0 {
		// Stolen jobs' completion events name the thief's ID, so their
		// turnaround is not observable from the event stream.
		rep.set("turnaround_unobservable_jobs", "count", float64(r.unmatched), r.accepted)
		rep.info()
	}
	return rep
}
