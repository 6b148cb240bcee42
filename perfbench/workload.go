package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"time"

	"krad/internal/dag"
	"krad/internal/moldable"
	"krad/internal/profile"
	"krad/internal/sim"
)

// Every workload runs the shipped machine shape: -k 3 -caps 4,4,4.
const (
	numCats = 3
	capsArg = "4,4,4"
)

var caps = []int{4, 4, 4}

// sloLimit is the admission latency limit behind slo_met_share: a
// submit counts as meeting the SLO when it is acked 201 within it,
// measured from when it was due.
const sloLimit = 50 * time.Millisecond

// wireJob is one job in the kradd submit wire form: exactly one of the
// three payloads is set.
type wireJob struct {
	Graph *dag.Graph         `json:"graph,omitempty"`
	Mold  *moldable.Spec     `json:"mold,omitempty"`
	Rigid *profile.RigidSpec `json:"rigid,omitempty"`
}

// spec builds the engine job spec the server would build from the wire
// form, with release "now" (0).
func (j wireJob) spec() (sim.JobSpec, error) {
	switch {
	case j.Mold != nil:
		job, err := moldable.FromSpec(*j.Mold)
		return sim.JobSpec{Source: job}, err
	case j.Rigid != nil:
		job, err := profile.FromRigidSpec(*j.Rigid)
		return sim.JobSpec{Source: job}, err
	default:
		return sim.JobSpec{Graph: j.Graph}, nil
	}
}

func specsOf(jobs []wireJob) ([]sim.JobSpec, error) {
	out := make([]sim.JobSpec, len(jobs))
	for i, j := range jobs {
		s, err := j.spec()
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}

// daemonFlags are the kradd settings a workload changes from the shipped
// defaults (1 shard, -fsync always, -queue 256, free-running clock).
// The same values build the in-process server.Config of the traced run
// (see stack.go), so the two runs cannot drift apart.
type daemonFlags struct {
	Shards      int
	Placement   string
	Fsync       string // "" = always
	Queue       int    // 0 = 256
	Step        time.Duration
	Steal       bool
	Retire      bool
	EventBuffer int    // 0 = 64
	FairConfig  string // queue-tree file contents; "" = fairness off
	Replicate   bool   // run a -follow standby and -replicate-to it
}

// args renders the non-default flags, excluding the per-run addresses
// and directories.
func (f daemonFlags) args(fairPath string) []string {
	a := []string{"-k", strconv.Itoa(numCats), "-caps", capsArg}
	if f.Shards > 1 {
		a = append(a, "-shards", strconv.Itoa(f.Shards))
	}
	if f.Placement != "" {
		a = append(a, "-placement", f.Placement)
	}
	if f.Fsync != "" {
		a = append(a, "-fsync", f.Fsync)
	}
	if f.Queue != 0 {
		a = append(a, "-queue", strconv.Itoa(f.Queue))
	}
	if f.Step != 0 {
		a = append(a, "-step", f.Step.String())
	}
	if f.Steal {
		a = append(a, "-steal")
	}
	if f.Retire {
		a = append(a, "-retire-done")
	}
	if f.EventBuffer != 0 {
		a = append(a, "-event-buffer", strconv.Itoa(f.EventBuffer))
	}
	if f.FairConfig != "" {
		a = append(a, "-fairness", "-fair-config", fairPath)
	}
	return a
}

// tenant is one X-Krad-Tenant of the open-loop workload: its queue-tree
// weight and its share of submissions, which deliberately differ.
type tenant struct {
	name   string
	weight float64
	share  float64
}

type loopKind string

const (
	closedLoop loopKind = "closed"
	openLoop   loopKind = "open"
	burstLoop  loopKind = "burst"
)

type workload struct {
	name  string
	why   string
	flags daemonFlags
	loop  loopKind
	// clients is the number of submitting connections (the SSE stream is
	// one more).
	clients int
	// batch is the number of jobs per POST (1 = POST /v1/jobs).
	batch int
	// window caps accepted-but-unfinished jobs in a closed loop: a client
	// waits for completions instead of running into the admission bound.
	window int
	// statusShare is the fraction of closed-loop operations that read a
	// recently acked job's status.
	statusShare float64
	// keys, when > 0, sends an X-Krad-Placement-Key drawn from a zipf
	// distribution over this many keys.
	keys int
	// rate is the open loop's offered submit rate (requests/s).
	rate    float64
	tenants []tenant
	// gen draws job i of a closed or open loop.
	gen func(rng *rand.Rand, i int) wireJob
	// burst draws one batch of the burst probe.
	burst func(rng *rand.Rand) []wireJob
}

// submitters is nproc−1 (at least one), so the submitters plus the SSE
// stream never exceed nproc connections.
func submitters() int { return max(1, runtime.NumCPU()-1) }

const fairConfig = `# three tenants; their submit mix (20/30/50) differs from the weights
halflife 512
queue alpha weight=5
queue beta  weight=3
queue gamma weight=2
`

func workloads() []*workload {
	return []*workload{
		{
			name: "batch-skew",
			why:  "4 hash-placed shards on zipf keys, steal, fsync interval, 32-job batches plus status reads: decode, placement, ID table, stealing and round-robin dominate",
			flags: daemonFlags{
				Shards: 4, Placement: "hash", Fsync: "interval", Queue: 8192,
				Steal: true, Retire: true, EventBuffer: 4096,
			},
			loop:        closedLoop,
			clients:     submitters(),
			batch:       32,
			window:      1024,
			statusShare: 0.10,
			keys:        64,
			gen:         skewJob,
		},
		{
			name: "replicated-fair",
			why:  "open loop at a fixed rate into a fair-share primary replicating to a warm standby: the only run of replicate and fairshare, and of queueing delay; K-RAD mostly in DEQ",
			flags: daemonFlags{
				Fsync: "interval", Step: 5 * time.Millisecond, Queue: 16, FairConfig: fairConfig, Replicate: true,
			},
			loop:    openLoop,
			clients: submitters(),
			batch:   1,
			rate:    300,
			tenants: []tenant{{"alpha", 5, 0.2}, {"beta", 3, 0.3}, {"gamma", 2, 0.5}},
			gen:     smallJob,
		},
	}
}

// burstProbe is the deterministic-schedule check every run ends with:
// one atomic batch of large DAG, moldable and rigid jobs per fresh
// single-shard daemon with the shipped defaults, drained through both
// K-RAD regimes and compared step for step with a bare engine. It is not
// timed into the end-to-end metrics.
var burstProbe = &workload{
	name:    "burst-probe",
	why:     "atomic batch at t=0 on a fresh daemon: the schedule is deterministic and checked against the engine",
	flags:   daemonFlags{EventBuffer: 4096},
	loop:    burstLoop,
	clients: 1,
	burst:   burstBatch,
}

// describe is the workload's loop and flags, as printed in the report.
func (w *workload) describe() string {
	s := fmt.Sprintf("%s loop, %d submitter(s)", w.loop, w.clients)
	switch {
	case w.loop == openLoop:
		s += fmt.Sprintf(" at %g req/s", w.rate)
	case w.window > 0:
		s += fmt.Sprintf(", %d-job batches, window %d jobs", w.batch, w.window)
	}
	s += fmt.Sprintf(", SLO %v; kradd %s -journal-dir <fresh dir>", sloLimit, strings.Join(w.flags.args("<queues.conf>"), " "))
	if w.flags.Replicate {
		s += " -replicate-to <standby> (standby: the same flags with -follow)"
	}
	return s
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// smallJob is the rigid-heavy small mix (rigid 90%, dag 5%, mold 5%).
func smallJob(rng *rand.Rand, i int) wireJob {
	cat := i%numCats + 1
	switch r := rng.Float64(); {
	case r < 0.90:
		return wireJob{Rigid: &profile.RigidSpec{K: numCats, Cat: cat, Procs: 1 + rng.Intn(4), Steps: 1 + rng.Intn(8)}}
	case r < 0.95:
		if rng.Intn(2) == 0 {
			return wireJob{Graph: dag.Singleton(numCats, dag.Category(cat))}
		}
		return wireJob{Graph: dag.RoundRobinChain(numCats, 2+rng.Intn(6))}
	default:
		return wireJob{Mold: &moldable.Spec{K: numCats, Tasks: []moldable.TaskSpec{{
			Cat: cat, Work: 4 + rng.Intn(12), Max: 4,
			Curve: moldable.CurveSpec{Type: "powerlaw", Alpha: 0.8},
		}}}}
	}
}

// skewJob is the rigid/dag/mold mix of batch-skew: jobs long enough that
// a window of them overloads every category of a shard.
func skewJob(rng *rand.Rand, i int) wireJob {
	cat := rng.Intn(numCats) + 1
	switch r := rng.Float64(); {
	case r < 0.6:
		return wireJob{Rigid: &profile.RigidSpec{K: numCats, Cat: cat, Procs: 1 + rng.Intn(2), Steps: 24 + rng.Intn(96)}}
	case r < 0.8:
		return wireJob{Graph: dag.RoundRobinChain(numCats, 12+rng.Intn(36))}
	default:
		return wireJob{Mold: moldChain(rng, 1+rng.Intn(3), 24, 96)}
	}
}

// moldChain is a chain of n moldable tasks with works in [lo, lo+span).
func moldChain(rng *rand.Rand, n, lo, span int) *moldable.Spec {
	s := &moldable.Spec{K: numCats}
	for t := 0; t < n; t++ {
		curve := moldable.CurveSpec{Type: "powerlaw", Alpha: 0.5 + 0.5*rng.Float64()}
		if rng.Intn(3) == 0 {
			curve = moldable.CurveSpec{Type: "amdahl", Serial: 0.1}
		}
		s.Tasks = append(s.Tasks, moldable.TaskSpec{
			Cat: rng.Intn(numCats) + 1, Work: lo + rng.Intn(span), Max: 1 + rng.Intn(4), Curve: curve,
		})
		if t > 0 {
			s.Edges = append(s.Edges, [2]int{t - 1, t})
		}
	}
	return s
}

// burstJobs is the size of one burst-probe batch.
const burstJobs = 48

// burstBatch draws a burst-probe batch: dense-layered K-DAGs (full
// barriers between levels), moldable chains and long rigid jobs, in
// rotation. 16 jobs per family keep every category overloaded at t=0;
// the tail of the drain runs below the processor counts.
func burstBatch(rng *rand.Rand) []wireJob {
	jobs := make([]wireJob, burstJobs)
	for i := range jobs {
		switch i % 3 {
		case 0:
			layers := make([]dag.LayerSpec, 6+rng.Intn(10))
			for l := range layers {
				layers[l] = dag.LayerSpec{Count: 2 + rng.Intn(8), Cat: dag.Category(rng.Intn(numCats) + 1)}
			}
			jobs[i] = wireJob{Graph: dag.Layered(numCats, layers, true)}
		case 1:
			jobs[i] = wireJob{Mold: moldChain(rng, 3+rng.Intn(5), 20, 180)}
		default:
			jobs[i] = wireJob{Rigid: &profile.RigidSpec{
				K: numCats, Cat: rng.Intn(numCats) + 1, Procs: 1 + rng.Intn(4), Steps: 50 + rng.Intn(350),
			}}
		}
	}
	return jobs
}
