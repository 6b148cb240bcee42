// Command kradd runs the online scheduler service: a long-lived daemon
// around internal/server that admits jobs over HTTP while the virtual
// clock runs, streams per-step events, and exposes Prometheus metrics.
//
// Endpoints (see internal/server for the wire formats):
//
//	POST   /v1/jobs       submit a dag-encoded job          → 201 {id, release, shard}
//	POST   /v1/jobs/batch submit many jobs atomically       → 201 {ids, shard}
//	GET    /v1/jobs/{id}  job lifecycle status
//	DELETE /v1/jobs/{id}  cancel a pending/active job
//	GET    /v1/events     SSE stream of step events (all shards)
//	GET    /metrics       Prometheus text exposition (fleet + per-shard)
//	GET    /healthz       liveness + aggregated service stats (always 200)
//	GET    /readyz        readiness (503 while replaying, draining or
//	                      journal-degraded)
//
// Usage:
//
//	kradd -addr :8080 -k 3 -caps 4,4,4 -sched k-rad -step 50ms -queue 256
//	kradd -addr :8080 -shards 4 -placement hash -queue 1024
//	kradd -addr :8080 -journal-dir /var/lib/kradd -fsync always
//	kradd -addr :8080 -fairness -fair-config queues.conf -fair-halflife 512
//
// With -journal-dir set, every committed mutation is write-ahead-journaled
// (one file per shard) and replayed on startup, so a crash or restart
// loses nothing that was acknowledged: job IDs, virtual time and scheduler
// state come back bit-identical. -fsync picks the durability/latency
// trade-off (always, interval, never); -snapshot-every bounds replay time
// by compacting each journal to one snapshot record at idle points. A
// journal the daemon cannot replay (corrupt interior record, version
// mismatch, wrong shard count) is a fatal startup error — kradd exits
// non-zero naming the file, offset and record rather than serving silently
// forgotten state. The listener comes up before replay, answering
// /healthz 200 and /readyz 503 so orchestrators keep the pod alive while
// long replays run.
//
// With -shards N the daemon runs N independent simulation engines behind
// one admission front-end; -placement picks how submissions are routed
// (round-robin, hash on the X-Krad-Placement-Key header, least-loaded).
// -caps and -queue keep their meaning: caps describe each shard's
// machine, and the queue bound is shared across the fleet.
//
// With -fairness (or -fair-config) submissions are gated by multi-tenant
// fair share: the X-Krad-Tenant header resolves to a queue-tree leaf, the
// admission bound is divided over the active leaves by deserved quota and
// over-quota weight, and an over-quota tenant is shed with 429 +
// Retry-After while under-quota tenants keep admitting. -fair-config
// names a queue-tree file (halflife/default/queue lines — see README);
// without one every tenant header gets a dynamically created equal-weight
// leaf. -fair-halflife sets the usage decay half-life in virtual steps
// and overrides the file's halflife line. Tenant identity and usage ride
// the journal, so a fairness-enabled daemon restarts with its ledger
// intact — and refuses to replay a fairness-tagged journal with fairness
// off (or under a different half-life) rather than silently dropping
// tenant state.
//
// With -replicate-to, every committed journal record additionally streams
// to a warm-standby kradd started with -follow (both ends need
// -journal-dir and identical engine configuration). The follower applies
// the records through the same replay path a crash-restart uses, so its
// engines track the primary bit-identically; it answers /readyz 503
// "following" until promoted by POST /v1/promote or, with -promote-after,
// by primary-silence timeout. Promotion bumps the replication epoch and
// fences the old primary: a deposed primary that reconnects (or, with
// -lease, merely loses its follower's acks) refuses admissions rather
// than diverge. See internal/replicate for the protocol and the README's
// "Replication & failover" section for the operational recipe.
//
// With -step 0 the clock free-runs: steps execute as fast as the hardware
// allows whenever work is queued, so submitted jobs drain immediately. A
// positive -step paces the virtual clock against wall time, which is what
// makes the event stream watchable.
//
// SIGINT/SIGTERM trigger a graceful drain: admission stops, in-flight
// jobs run to completion (bounded by -drain), then the process exits 0.
// The handler is installed at process start, so a signal that arrives
// during journal replay drains as soon as replay finishes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
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

// swapHandler atomically swaps the bootstrap handler for the real service
// handler once startup (journal replay included) completes.
type swapHandler struct{ h atomic.Value }

func newSwapHandler(h http.Handler) *swapHandler {
	s := &swapHandler{}
	s.h.Store(h)
	return s
}

func (s *swapHandler) swap(h http.Handler) { s.h.Store(h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.Load().(http.Handler).ServeHTTP(w, r)
}

// bootstrapHandler serves while the journal replays: alive but not ready.
func bootstrapHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"starting"}` + "\n"))
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"status":"unavailable","reason":"replaying journal"}` + "\n"))
	})
	return mux
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("kradd: ")
	// Trap SIGINT/SIGTERM before anything else: a signal that lands during
	// journal replay, or the instant /readyz turns 200, must take the drain
	// path below rather than the default handler's immediate exit.
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	var (
		addrFlag   = flag.String("addr", ":8080", "HTTP listen address")
		kFlag      = flag.Int("k", 3, "number of resource categories")
		capsFlag   = flag.String("caps", "4,4,4", "per-category processor counts, comma-separated")
		schedFlag  = flag.String("sched", "k-rad", fmt.Sprintf("scheduler: one of %v", analysis.SchedulerNames()))
		pickFlag   = flag.String("pick", "fifo", "task pick policy: fifo, lifo, random, cp-first, cp-last")
		seedFlag   = flag.Int64("seed", 1, "scheduler/pick-policy seed")
		stepFlag   = flag.Duration("step", 0, "wall-clock duration of one virtual step (0 = free-running)")
		queueFlag  = flag.Int("queue", 256, "admission bound: max in-flight (pending + active) jobs")
		retireFlag = flag.Bool("retire-done", false, "recycle engine state of terminal jobs; statuses served from the ID index (bounds memory for long-running, high-volume daemons)")
		bufFlag    = flag.Int("event-buffer", 64, "per-subscriber event channel capacity")
		drainFlag  = flag.Duration("drain", 30*time.Second, "max time to drain in-flight jobs at shutdown")
		parFlag    = flag.Bool("parallel", false, "parallelize each step's execution phase")
		shardFlag  = flag.Int("shards", 1, "number of independent engine shards")
		placeFlag  = flag.String("placement", server.PlaceRoundRobin,
			"shard placement policy: round-robin, hash, least-loaded")
		journalFlag  = flag.String("journal-dir", "", "write-ahead journal directory (empty = no durability)")
		fsyncFlag    = flag.String("fsync", "always", "journal fsync policy: always, interval, never")
		fsyncIntFlag = flag.Duration("fsync-interval", 100*time.Millisecond, "min spacing between fsyncs under -fsync=interval")
		snapFlag     = flag.Int64("snapshot-every", 10000, "compact a shard journal after this many records at an idle point (0 = never)")
		batchFlag    = flag.Int64("step-batch", 0, "max virtual steps per scheduling round under one lock and one journal append (0 = default 64, 1 = per-step events)")
		pprofFlag    = flag.Bool("pprof", false, "expose net/http/pprof profiling under /debug/pprof/")
		fairFlag     = flag.Bool("fairness", false, "gate admission by multi-tenant fair share (X-Krad-Tenant header)")
		fairHLFlag   = flag.Int64("fair-halflife", fairshare.DefaultHalfLife, "fair-share usage decay half-life in virtual steps (overrides the -fair-config halflife line)")
		fairCfgFlag  = flag.String("fair-config", "", "queue-tree config file (implies -fairness): halflife, default and queue lines")
		repToFlag    = flag.String("replicate-to", "", "primary: stream committed journal records to a follower kradd's -follow address (requires -journal-dir)")
		followFlag   = flag.String("follow", "", "follower: run as a warm standby, accepting a primary's replication stream on this address (requires -journal-dir)")
		epochFlag    = flag.Int64("epoch", 1, "replication epoch; restart a deposed primary with a value above the promoted follower's to take leadership back")
		leaseFlag    = flag.Duration("lease", 0, "primary: refuse admissions once the follower has been silent this long (0 = no lease gating); set strictly below the follower's -promote-after")
		repHBFlag    = flag.Duration("replicate-heartbeat", time.Second, "primary: idle keepalive interval on the replication stream")
		promoteFlag  = flag.Duration("promote-after", 0, "follower: self-promote after this much primary silence, once a primary has connected (0 = manual POST /v1/promote only)")
		repQueueFlag = flag.Int("replicate-queue", 1024, "primary: per-shard in-memory replication send queue length (overflow falls back to WAL catch-up)")
		stealFlag     = flag.Bool("steal", false, "cross-shard work stealing: idle shards pull pending jobs off the deepest peer (journaled; incompatible with -fairness)")
		stealMaxFlag  = flag.Int("steal-max", 64, "max jobs one steal moves (the work target is half the victim's pending work)")
		stealIdleFlag = flag.Int64("steal-idle", 0, "steal while still running once a shard's estimated remaining work drops below this many task-steps (0 = steal only when idle)")
	)
	flag.Parse()

	caps, err := parseInts(*capsFlag)
	if err != nil || len(caps) != *kFlag {
		log.Fatalf("-caps must list exactly K=%d integers: %v", *kFlag, err)
	}
	scheduler, err := analysis.NewScheduler(*schedFlag, *kFlag)
	if err != nil {
		log.Fatal(err)
	}
	// Moldable jobs pin processors non-preemptively, so every shard's
	// scheduler is floor-respecting. For unit-task workloads the wrapper is
	// the identity, and it snapshots/restores byte-identically to the
	// unwrapped scheduler, so existing journals still replay.
	scheduler = sched.WithFloors(scheduler)
	pick, err := parsePick(*pickFlag)
	if err != nil {
		log.Fatal(err)
	}
	var journalCfg *server.JournalConfig
	if *journalFlag != "" {
		policy, err := journal.ParseSyncPolicy(*fsyncFlag)
		if err != nil {
			log.Fatal(err)
		}
		journalCfg = &server.JournalConfig{
			Dir:           *journalFlag,
			Sync:          policy,
			SyncInterval:  *fsyncIntFlag,
			SnapshotEvery: *snapFlag,
		}
	}
	if *repToFlag != "" && *followFlag != "" {
		log.Fatal("-replicate-to and -follow are mutually exclusive: a daemon is the primary or the standby, not both")
	}
	if (*repToFlag != "" || *followFlag != "") && *journalFlag == "" {
		log.Fatal("replication requires -journal-dir: the journal is both the catch-up source (primary) and the durable apply log (follower)")
	}
	var fairCfg *fairshare.Config
	if *fairFlag || *fairCfgFlag != "" {
		c := fairshare.Config{HalfLife: *fairHLFlag}
		if *fairCfgFlag != "" {
			f, err := os.Open(*fairCfgFlag)
			if err != nil {
				log.Fatal(err)
			}
			c, err = fairshare.ParseConfig(f)
			_ = f.Close()
			if err != nil {
				log.Fatalf("-fair-config %s: %v", *fairCfgFlag, err)
			}
			// An explicitly passed -fair-halflife beats the file's halflife
			// line; the flag's default does not.
			flag.Visit(func(fl *flag.Flag) {
				if fl.Name == "fair-halflife" {
					c.HalfLife = *fairHLFlag
				}
			})
		}
		fairCfg = &c
		hl := c.HalfLife
		if hl == 0 {
			hl = fairshare.DefaultHalfLife
		}
		log.Printf("fair-share admission enabled (half-life=%d steps, config=%q)", hl, *fairCfgFlag)
	}

	// The listener comes up before the service: journal replay can take a
	// while, and an orchestrator probing /healthz must see the process
	// alive (200) but not ready (/readyz 503) until replay finishes. The
	// bootstrap handler is swapped for the real one once New returns.
	handler := newSwapHandler(bootstrapHandler())
	var root http.Handler = handler
	if *pprofFlag {
		// The profiling endpoints wrap the swap handler so they answer even
		// during journal replay — profiling a slow replay is exactly when
		// they are wanted. Off by default: they expose stacks and heap
		// contents, so enabling them is an explicit operator decision.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		root = mux
		log.Printf("pprof enabled at /debug/pprof/")
	}
	srv := &http.Server{
		Addr:              *addrFlag,
		Handler:           root,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	if journalCfg != nil {
		log.Printf("replaying journal from %s (fsync=%s snapshot-every=%d)", journalCfg.Dir, journalCfg.Sync, journalCfg.SnapshotEvery)
	}
	svc, err := server.New(server.Config{
		Sim: sim.Config{
			K: *kFlag, Caps: caps, Scheduler: scheduler, Pick: pick,
			Seed: *seedFlag, ValidateAllotments: true, Parallel: *parFlag,
		},
		MaxInFlight:      *queueFlag,
		StepEvery:        *stepFlag,
		StepBatch:        *batchFlag,
		SubscriberBuffer: *bufFlag,
		Shards:           *shardFlag,
		Placement:        *placeFlag,
		// Each shard needs its own scheduler instance: K-RAD and the
		// clairvoyant variants carry per-engine state. The name and K
		// were validated above, so the factory cannot fail.
		NewScheduler: func() sched.Scheduler {
			s, _ := analysis.NewScheduler(*schedFlag, *kFlag)
			return sched.WithFloors(s)
		},
		Journal:    journalCfg,
		Fairness:   fairCfg,
		Follower:   *followFlag != "",
		RetireDone: *retireFlag,
		Steal:      *stealFlag,
		StealMax:   *stealMaxFlag,
		StealIdle:  *stealIdleFlag,
	})
	if err != nil {
		// A journal that cannot be replayed (corrupt record, version
		// mismatch, shard-count mismatch) lands here: exit non-zero with
		// the located error instead of serving forgotten state.
		log.Fatal(err)
	}

	// Replication wiring: the sender attaches before Start and before the
	// handler swap, so every committed record reaches the hook; records
	// journaled before this instant (replayed history, the fairness head)
	// are covered by seeding the sender's cursors from the journal.
	var sender *replicate.Sender
	var receiver *replicate.Receiver
	if *repToFlag != "" {
		sender, err = replicate.NewSender(replicate.SenderConfig{
			Addr:      *repToFlag,
			Epoch:     *epochFlag,
			Shards:    svc.Shards(),
			CatchUp:   server.JournalCatchUp(*journalFlag),
			QueueLen:  *repQueueFlag,
			Heartbeat: *repHBFlag,
			Lease:     *leaseFlag,
			Logf:      log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		sender.Seed(svc.ReplicationSeqs())
		svc.SetReplicator(sender)
		svc.SetReplicationStats(func() *server.ReplicationStats {
			st := sender.Stats()
			return &server.ReplicationStats{Role: "primary", Primary: &st}
		})
		sender.Start()
		log.Printf("replicating to %s (epoch %d, lease %v, heartbeat %v)", *repToFlag, *epochFlag, *leaseFlag, *repHBFlag)
	}
	if *followFlag != "" {
		ln, err := net.Listen("tcp", *followFlag)
		if err != nil {
			log.Fatal(err)
		}
		receiver, err = replicate.NewReceiver(replicate.ReceiverConfig{
			Listener:     ln,
			Applier:      svc,
			Epoch:        *epochFlag,
			PromoteAfter: *promoteFlag,
			OnPromote: func(epoch int64) {
				svc.Promote()
				log.Printf("promoted to primary at epoch %d: step loops started, admissions open", epoch)
			},
			Logf: log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		svc.SetPromote(receiver.Promote)
		svc.SetReplicationStats(func() *server.ReplicationStats {
			st := receiver.Stats()
			role := "follower"
			if promoted, _ := receiver.Promoted(); promoted {
				role = "primary"
			}
			return &server.ReplicationStats{Role: role, Follower: &st}
		})
		log.Printf("following: replication listener on %s (epoch %d, promote-after %v)", ln.Addr(), *epochFlag, *promoteFlag)
	}

	svc.Start()
	handler.swap(svc.Handler())

	log.Printf("listening on %s (K=%d caps=%v sched=%s step=%v queue=%d shards=%d placement=%s)",
		*addrFlag, *kFlag, caps, *schedFlag, *stepFlag, *queueFlag, *shardFlag, *placeFlag)

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Printf("shutting down: draining in-flight jobs (up to %v)", *drainFlag)
	drainCtx, stop := context.WithTimeout(context.Background(), *drainFlag)
	defer stop()
	// Close first so the drain happens while the HTTP surface still
	// answers status queries; then shut the listener down. The sender
	// stops after the drain so the final records stream out; the receiver
	// closes without promoting — a restarting standby resumes following.
	closeErr := svc.Close(drainCtx)
	if closeErr != nil {
		log.Printf("drain: %v", closeErr)
	}
	if sender != nil {
		sender.Stop()
	}
	if receiver != nil {
		receiver.Close()
	}
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	if err := svc.Err(); err != nil {
		log.Fatalf("step loop failed: %v", err)
	}
	if closeErr != nil && !errors.Is(closeErr, context.DeadlineExceeded) {
		// A failed final journal flush means acknowledged tail records may
		// not be durable: exit non-zero so orchestrators notice.
		log.Fatalf("journal close failed — acknowledged tail records may not be durable: %v", closeErr)
	}
	log.Print("bye")
	_ = os.Stdout.Sync()
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parsePick(s string) (dag.PickPolicy, error) {
	switch s {
	case "fifo":
		return dag.PickFIFO, nil
	case "lifo":
		return dag.PickLIFO, nil
	case "random":
		return dag.PickRandom, nil
	case "cp-first":
		return dag.PickCPFirst, nil
	case "cp-last":
		return dag.PickCPLast, nil
	}
	return 0, fmt.Errorf("unknown pick policy %q", s)
}
