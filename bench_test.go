package krad_test

// The benchmark harness: one testing.B target per experiment in DESIGN.md's
// per-experiment index (E1–E10), each running the full table generation so
// `go test -bench=.` regenerates every reproduced figure/table, plus
// microbenchmarks of the scheduling primitives. Table output itself is
// produced by cmd/kradbench; here the work is measured.

import (
	"fmt"
	"testing"

	"krad"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := krad.FindExperiment(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := e.Run(krad.ExperimentOptions{Quick: true, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkE1_KDAGModel(b *testing.B)               { benchExperiment(b, "E1") }
func BenchmarkE2_RADStep(b *testing.B)                 { benchExperiment(b, "E2") }
func BenchmarkE3_AdversarialLowerBound(b *testing.B)   { benchExperiment(b, "E3") }
func BenchmarkE4_MakespanCompetitiveness(b *testing.B) { benchExperiment(b, "E4") }
func BenchmarkE5_MRTLightLoad(b *testing.B)            { benchExperiment(b, "E5") }
func BenchmarkE6_MRTHeavyLoad(b *testing.B)            { benchExperiment(b, "E6") }
func BenchmarkE7_K1MeanResponse(b *testing.B)          { benchExperiment(b, "E7") }
func BenchmarkE8_BaselineComparison(b *testing.B)      { benchExperiment(b, "E8") }
func BenchmarkE9_Ablations(b *testing.B)               { benchExperiment(b, "E9") }
func BenchmarkE10_EngineScaling(b *testing.B)          { benchExperiment(b, "E10") }
func BenchmarkE11_PerfHeterogeneity(b *testing.B)      { benchExperiment(b, "E11") }
func BenchmarkE12_ProfileRepresentation(b *testing.B)  { benchExperiment(b, "E12") }
func BenchmarkE13_QuantumSensitivity(b *testing.B)     { benchExperiment(b, "E13") }
func BenchmarkE14_InductionReplay(b *testing.B)        { benchExperiment(b, "E14") }
func BenchmarkE15_FairnessPrice(b *testing.B)          { benchExperiment(b, "E15") }
func BenchmarkE16_NonPreemptive(b *testing.B)          { benchExperiment(b, "E16") }
func BenchmarkE17_ReallocationChurn(b *testing.B)      { benchExperiment(b, "E17") }
func BenchmarkE18_SWFReplay(b *testing.B)              { benchExperiment(b, "E18") }
func BenchmarkE19_Randomization(b *testing.B)          { benchExperiment(b, "E19") }
func BenchmarkE20_ExactRatios(b *testing.B)            { benchExperiment(b, "E20") }
func BenchmarkE21_SpeedAugmentation(b *testing.B)      { benchExperiment(b, "E21") }

// BenchmarkProfileEngine measures the compact profile representation at a
// scale the per-task DAG representation cannot reach.
func BenchmarkProfileEngine(b *testing.B) {
	specs, err := krad.GenerateProfiles(krad.ProfileGenOpts{
		K: 3, Jobs: 64, MinPhases: 2, MaxPhases: 8, MaxParallelism: 100_000, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	tasks := 0
	for _, s := range specs {
		tasks += s.Source.TotalTasks()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := krad.Run(krad.Config{
			K: 3, Caps: []int{256, 256, 256}, Scheduler: krad.NewKRAD(3),
		}, specs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tasks), "tasks/op")
}

// denseLayeredSpecs builds the level-structured K-DAG workload the DAG
// event-leap targets: each job stacks dense levels — a wide level of width
// same-category tasks, then a one-task barrier join, then the next wide
// level — so per-category ready counts stay constant while a level drains.
// Categories rotate across jobs and levels so every category stays busy.
func denseLayeredSpecs(k, jobs, width, levels int) []krad.JobSpec {
	specs := make([]krad.JobSpec, jobs)
	for j := 0; j < jobs; j++ {
		layers := make([]krad.LayerSpec, 0, 2*levels-1)
		for l := 0; l < levels; l++ {
			layers = append(layers, krad.LayerSpec{Count: width, Cat: krad.Category(1 + (j+l)%k)})
			if l < levels-1 {
				layers = append(layers, krad.LayerSpec{Count: 1, Cat: krad.Category(1 + (j+l+1)%k)})
			}
		}
		specs[j] = krad.JobSpec{Graph: krad.Layered(k, layers, true)}
	}
	return specs
}

// BenchmarkDAGEngine measures a dense-layered K-DAG workload end to end —
// the shape every kradd deployment runs (the HTTP API admits graphs only),
// and the target of the DAG event-leap.
func BenchmarkDAGEngine(b *testing.B) {
	specs := denseLayeredSpecs(2, 8, 2048, 4)
	tasks := 0
	for _, s := range specs {
		tasks += s.Graph.NumTasks()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := krad.Run(krad.Config{
			K: 2, Caps: []int{8, 8}, Scheduler: krad.NewKRAD(2),
		}, specs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tasks), "tasks/op")
}

// BenchmarkMixedEngine measures a mixed population: compact profile jobs
// and dense-layered DAG jobs sharing the machine. Leap eligibility must be
// decided per round across heterogeneous runtimes.
func BenchmarkMixedEngine(b *testing.B) {
	specs := denseLayeredSpecs(2, 4, 1024, 4)
	profiles, err := krad.GenerateProfiles(krad.ProfileGenOpts{
		K: 2, Jobs: 4, MinPhases: 2, MaxPhases: 4, MaxParallelism: 50_000, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	specs = append(specs, profiles...)
	tasks := 0
	for _, s := range specs {
		if s.Graph != nil {
			tasks += s.Graph.NumTasks()
		} else {
			tasks += s.Source.TotalTasks()
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := krad.Run(krad.Config{
			K: 2, Caps: []int{48, 48}, Scheduler: krad.NewKRAD(2),
		}, specs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tasks), "tasks/op")
}

// moldableBenchSpecs draws the seeded moldable workload shared by the
// moldable and mixed-family engine benchmarks.
func moldableBenchSpecs(jobs int, seed int64) []krad.JobSpec {
	return krad.GenerateMoldable(krad.MoldableGenOpts{
		K: 2, Jobs: jobs, MinTasks: 8, MaxTasks: 24, MaxWork: 4096, MaxProcs: 6, Seed: seed,
	})
}

// BenchmarkMoldableEngine measures a pure-moldable population behind the
// floor layer: long non-preemptive leases are the hold-law event-leap's
// target, so most virtual steps should be leapt.
func BenchmarkMoldableEngine(b *testing.B) {
	specs := moldableBenchSpecs(16, 3)
	tasks := 0
	for _, s := range specs {
		tasks += s.Source.TotalTasks()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := krad.Run(krad.Config{
			K: 2, Caps: []int{12, 12}, Scheduler: krad.WithFloors(krad.NewKRAD(2)),
		}, specs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tasks), "tasks/op")
}

// BenchmarkMixedFamilyEngine measures all three runtime families — dense
// DAG, compact profile and moldable — sharing one engine step loop. Leap
// eligibility mixes the drain law (profile/DAG) with the hold law
// (moldable) each round.
func BenchmarkMixedFamilyEngine(b *testing.B) {
	specs := denseLayeredSpecs(2, 3, 1024, 4)
	profiles, err := krad.GenerateProfiles(krad.ProfileGenOpts{
		K: 2, Jobs: 3, MinPhases: 2, MaxPhases: 4, MaxParallelism: 50_000, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	specs = append(specs, profiles...)
	specs = append(specs, moldableBenchSpecs(6, 11)...)
	tasks := 0
	for _, s := range specs {
		if s.Graph != nil {
			tasks += s.Graph.NumTasks()
		} else {
			tasks += s.Source.TotalTasks()
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := krad.Run(krad.Config{
			K: 2, Caps: []int{48, 48}, Scheduler: krad.WithFloors(krad.NewKRAD(2)),
		}, specs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tasks), "tasks/op")
}

// BenchmarkDeq measures the Figure 2 DEQ primitive across regimes.
func BenchmarkDeq(b *testing.B) {
	for _, n := range []int{4, 32, 256} {
		desires := make([]int, n)
		for i := range desires {
			desires[i] = 1 + i%13
		}
		for _, p := range []int{n / 2, 2 * n} {
			b.Run(fmt.Sprintf("jobs=%d/p=%d", n, p), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					krad.Deq(desires, p, i)
				}
			})
		}
	}
}

// BenchmarkKRADAllot measures a full K-RAD allotment step.
func BenchmarkKRADAllot(b *testing.B) {
	for _, cfg := range []struct{ k, n int }{{1, 16}, {3, 64}, {3, 512}, {8, 256}} {
		b.Run(fmt.Sprintf("K=%d/jobs=%d", cfg.k, cfg.n), func(b *testing.B) {
			s := krad.NewKRAD(cfg.k)
			caps := make([]int, cfg.k)
			for i := range caps {
				caps[i] = 8
			}
			jobs := make([]krad.JobView, cfg.n)
			for i := range jobs {
				d := make([]int, cfg.k)
				for a := range d {
					d[a] = (i + a) % 7
				}
				jobs[i] = krad.JobView{ID: i, Desire: d}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Allot(int64(i), jobs, caps)
			}
		})
	}
	// Rising-ID churn, as in a long-running daemon: 64 live jobs, each
	// finishing a few steps after admission and replaced by a fresh,
	// higher ID, with completions reported through JobsDone. Job IDs climb
	// with b.N, so ns/op must stay flat as b.N grows: per-step cost may
	// depend on the live jobs, never on the highest ID seen.
	b.Run("churn/K=3/live=64", func(b *testing.B) {
		const k, live = 3, 64
		s := krad.NewKRAD(k)
		caps := []int{8, 8, 8}
		jobs := make([]krad.JobView, 0, live)
		left := make([]int, 0, live) // steps until each live job finishes
		var done []int
		next := 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for len(jobs) < live {
				d := make([]int, k)
				for a := range d {
					d[a] = (next + a) % 7
				}
				jobs = append(jobs, krad.JobView{ID: next, Desire: d})
				left = append(left, 1+next%13)
				next++
			}
			s.Allot(int64(i), jobs, caps)
			done = done[:0]
			n := 0
			for j, v := range jobs {
				if left[j]--; left[j] > 0 {
					jobs[n], left[n] = v, left[j]
					n++
				} else {
					done = append(done, v.ID)
				}
			}
			jobs, left = jobs[:n], left[:n]
			s.JobsDone(done)
		}
	})
}

// BenchmarkEngineRun measures end-to-end simulation throughput.
func BenchmarkEngineRun(b *testing.B) {
	for _, n := range []int{20, 100, 400} {
		b.Run(fmt.Sprintf("jobs=%d", n), func(b *testing.B) {
			specs, err := krad.Mix{K: 3, Jobs: n, MinSize: 10, MaxSize: 50, Seed: 1}.Generate()
			if err != nil {
				b.Fatal(err)
			}
			tasks := 0
			for _, s := range specs {
				tasks += s.Graph.NumTasks()
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := krad.Run(krad.Config{
					K: 3, Caps: []int{8, 8, 8}, Scheduler: krad.NewKRAD(3),
				}, specs)
				if err != nil {
					b.Fatal(err)
				}
				_ = res
			}
			b.ReportMetric(float64(tasks), "tasks/op")
		})
	}
}

// BenchmarkEngineParallel compares serial and goroutine-parallel execution.
func BenchmarkEngineParallel(b *testing.B) {
	specs, err := krad.Mix{K: 3, Jobs: 600, MinSize: 20, MaxSize: 80, Seed: 1}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"serial", "parallel"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := krad.Run(krad.Config{
					K: 3, Caps: []int{16, 16, 16}, Scheduler: krad.NewKRAD(3),
					Parallel: mode == "parallel", Workers: 8,
				}, specs)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAdversarialInstance measures Figure 3 construction + execution
// at the scale used by E3's largest row.
func BenchmarkAdversarialInstance(b *testing.B) {
	caps := []int{4, 4, 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		adv, err := krad.NewAdversarial(3, 8, caps)
		if err != nil {
			b.Fatal(err)
		}
		jobs := adv.JobSet(true)
		specs := make([]krad.JobSpec, len(jobs))
		for j, g := range jobs {
			specs[j] = krad.JobSpec{Graph: g}
		}
		if _, err := krad.Run(krad.Config{
			K: 3, Caps: caps, Scheduler: krad.NewKRAD(3), Pick: krad.PickCPLast,
		}, specs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSqSum measures the Definition 4 primitive.
func BenchmarkSqSum(b *testing.B) {
	works := make([]int, 1000)
	for i := range works {
		works[i] = (i * 37) % 211
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		krad.SqSum(works)
	}
}
