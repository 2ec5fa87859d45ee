// Command ksetserved is the long-running bound-query daemon: an HTTP+JSON
// service answering solvability, homology and bound queries over closed-above
// models.
//
// Usage:
//
//	ksetserved -addr :8080 -memo-snapshot /var/lib/ksettop/memo.snap
//	ksetserved -addr 127.0.0.1:0 -max-concurrent 4 -request-timeout 10s
//	ksetserved -faults 'delay:serve.request@1+7:50ms' -fault-seed 42
//
// Endpoints:
//
//	POST /v1/solve   {"model","values","k","budget?","timeout_ms?"}
//	POST /v1/betti   {"model","values","max_dim","timeout_ms?"}
//	POST /v1/bounds  {"model","rounds","timeout_ms?"}
//	POST /v1/count   {"model","timeout_ms?"}
//	GET  /healthz    liveness
//	GET  /readyz     readiness: warm boot finished, and in coordinator mode ≥1 live worker
//	GET  /statz      request/panic/shed/timeout counters (+ dist counters in coordinator mode)
//	GET  /metrics    Prometheus text exposition (engine + server + coordinator counters)
//	GET  /debug/pprof/  runtime profiles (only with -pprof)
//
// With -workers host:port,... the daemon runs in coordinator mode: heavy
// closure-count sweeps are sharded across the named ksetsweepd workers
// (consistent-hash placement, lease/heartbeat failure detection, straggler
// hedging, optional crash-recovery journal via -dist-journal), falling back
// to the local engine when the fleet is unavailable. The fleet is not
// assumed honest: -verify-fraction re-executes a sample of committed shards
// on distinct replicas and settles disagreements by quorum majority with a
// local recompute as arbiter, and workers whose divergence score crosses
// -quarantine-threshold are quarantined from placement until a half-open
// known-answer probe re-admits them; when live trusted workers run out, the
// daemon degrades to local compute rather than serve untrusted bytes.
//
// The daemon admission-controls concurrency (503 on overload), enforces
// per-request deadlines (504), returns typed budget rejections (422),
// isolates worker panics (500, never a crash), coalesces identical
// in-flight queries, warm-boots from a checksummed memo snapshot
// (tolerating corruption by starting cold), checkpoints in the background,
// and drains gracefully on SIGINT/SIGTERM with a final snapshot save.
//
// The -faults flag arms the deterministic fault-injection registry inside
// the daemon itself — the chaos schedule that the test suite runs is
// available, verbatim, against a production binary.
package main

import (
	"context"
	"flag"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ksettop/internal/cli"
	"ksettop/internal/dist"
	"ksettop/internal/faultinject"
	"ksettop/internal/model"
	"ksettop/internal/obs"
	"ksettop/internal/par"
	"ksettop/internal/serve"
)

func main() {
	if err := run(); err != nil {
		cli.Exit("ksetserved", err)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	parallelism := flag.Int("parallelism", 0, "worker-pool size (0 = KSETTOP_PARALLELISM or GOMAXPROCS)")
	memoFlag := flag.String("memo", "on", cli.MemoFlagUsage)
	maxConcurrent := flag.Int("max-concurrent", 8, "concurrent requests admitted before shedding with 503")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 2*time.Minute, "hard cap on any request deadline")
	solverBudget := flag.Int("solver-budget", 0, "per-request solver node budget cap (0 = stock 50M)")
	memoSnapshot := flag.String("memo-snapshot", "", "memo snapshot file: warm boot, background checkpoints, final save on drain (empty = off)")
	checkpointEvery := flag.Duration("checkpoint-every", time.Minute, "background checkpoint period")
	drainGrace := flag.Duration("drain-grace", 15*time.Second, "shutdown grace for in-flight requests")
	faults := flag.String("faults", "", "deterministic fault-injection rules, e.g. 'panic:serve.request@3,delay:par.task@1+100:1ms' (empty = off)")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for the fault-injection schedule")
	workers := flag.String("workers", "", "comma-separated ksetsweepd worker addresses; non-empty enables coordinator mode")
	distShards := flag.Int("dist-shards", 0, "shards per distributed sweep (0 = 8 × workers)")
	distLease := flag.Duration("dist-lease", 15*time.Second, "shard lease TTL before a grant is forfeited and re-dispatched")
	distJournal := flag.String("dist-journal", "", "shard-commit journal file for coordinator crash recovery (empty = off)")
	verifyFraction := flag.Float64("verify-fraction", 0, cli.VerifyFractionFlagUsage)
	quarantineThreshold := flag.Float64("quarantine-threshold", 0, cli.QuarantineThresholdFlagUsage)
	logLevel := flag.String("log-level", "info", cli.LogLevelFlagUsage)
	traceOut := flag.String("trace-out", "", cli.TraceOutFlagUsage)
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	obs.SetProcessName("ksetserved")
	if err := cli.ApplyLogLevelFlag(*logLevel); err != nil {
		return err
	}
	flushTrace := cli.StartTraceOut(*traceOut)
	par.SetParallelism(*parallelism)
	if err := cli.ApplyMemoFlag(*memoFlag); err != nil {
		return err
	}
	if *faults != "" {
		rules, err := faultinject.ParseRules(*faults)
		if err != nil {
			return err
		}
		faultinject.Enable(*faultSeed, rules...)
		defer faultinject.Disable()
	}

	var coord *dist.Coordinator
	if list := cli.SplitWorkers(*workers); len(list) > 0 {
		coord = dist.NewCoordinator(dist.CoordConfig{
			Workers:             list,
			Shards:              *distShards,
			LeaseTTL:            *distLease,
			JournalPath:         *distJournal,
			VerifyFraction:      *verifyFraction,
			QuarantineThreshold: *quarantineThreshold,
		})
		model.SetDistributor(coord)
	}

	s := serve.New(serve.Config{
		MaxConcurrent:   *maxConcurrent,
		DefaultTimeout:  *requestTimeout,
		MaxTimeout:      *maxTimeout,
		MaxSolverBudget: *solverBudget,
		SnapshotPath:    *memoSnapshot,
		CheckpointEvery: *checkpointEvery,
		Coordinator:     coord,
		EnablePprof:     *pprofFlag,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := s.Run(ctx, *addr, *drainGrace)
	if terr := flushTrace(); terr != nil && err == nil {
		err = terr
	}
	return err
}
