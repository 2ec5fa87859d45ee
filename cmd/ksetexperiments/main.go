// Command ksetexperiments regenerates every table and figure reproduction
// indexed in DESIGN.md (E1–E17) and prints them as plain-text tables — the
// source of record for EXPERIMENTS.md.
//
// Usage:
//
//	ksetexperiments                 # run everything
//	ksetexperiments -only E1,E8     # run a subset
//	ksetexperiments -parallelism 8  # pin the worker-pool size
//
// Experiments fan out across the worker pool and their internal subset
// sweeps shard through the same engine; tables are printed in experiment
// order and are byte-identical for every -parallelism value (also settable
// via KSETTOP_PARALLELISM).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ksettop/internal/cli"
	"ksettop/internal/dist"
	"ksettop/internal/experiments"
	"ksettop/internal/model"
	"ksettop/internal/obs"
	"ksettop/internal/par"
)

func main() {
	if err := run(); err != nil {
		cli.Exit("ksetexperiments", err)
	}
}

func run() (err error) {
	only := flag.String("only", "", "comma-separated experiment IDs (default all)")
	parallelism := flag.Int("parallelism", 0, "worker-pool size (0 = KSETTOP_PARALLELISM or GOMAXPROCS)")
	memoFlag := flag.String("memo", "on", cli.MemoFlagUsage)
	memoSnapshot := flag.String("memo-snapshot", "", cli.MemoSnapshotUsage)
	solverBudget := flag.Int("solver-budget", 0, cli.SolverBudgetFlagUsage)
	workers := flag.String("workers", "", cli.WorkersFlagUsage)
	verifyFraction := flag.Float64("verify-fraction", 0, cli.VerifyFractionFlagUsage)
	quarantineThreshold := flag.Float64("quarantine-threshold", 0, cli.QuarantineThresholdFlagUsage)
	logLevel := flag.String("log-level", "info", cli.LogLevelFlagUsage)
	traceOut := flag.String("trace-out", "", cli.TraceOutFlagUsage)
	checkpointPath := flag.String("checkpoint", "", cli.CheckpointFlagUsage)
	checkpointInterval := flag.Duration("checkpoint-interval", 30*time.Second, cli.CheckpointIntervalFlagUsage)
	resume := flag.Bool("resume", false, cli.ResumeFlagUsage)
	flag.Parse()
	obs.SetProcessName("ksetexperiments")
	if err := cli.ApplyLogLevelFlag(*logLevel); err != nil {
		return err
	}
	flushTrace := cli.StartTraceOut(*traceOut)
	defer func() {
		if err := flushTrace(); err != nil {
			fmt.Fprintln(os.Stderr, "ksetexperiments: trace-out:", err)
		}
	}()
	ctx, stopSignals := cli.SignalContext(context.Background())
	defer stopSignals()
	jobKey := cli.JobKey("ksetexperiments", *only, fmt.Sprint(*solverBudget))
	ctx, ckpt := cli.StartCheckpoint(ctx, *checkpointPath, jobKey, *checkpointInterval, *resume)
	defer func() {
		if ferr := cli.FinishDurable(ckpt, *memoSnapshot, err); err == nil {
			err = ferr
		}
	}()
	par.SetParallelism(*parallelism)
	if list := cli.SplitWorkers(*workers); len(list) > 0 {
		coord := dist.NewCoordinator(dist.CoordConfig{
			Workers:             list,
			VerifyFraction:      *verifyFraction,
			QuarantineThreshold: *quarantineThreshold,
		})
		coord.Start(ctx)
		model.SetDistributor(coord)
		defer model.SetDistributor(nil)
	}
	if err := cli.ApplyMemoFlag(*memoFlag); err != nil {
		return err
	}
	if err := cli.ApplySolverBudgetFlag(*solverBudget); err != nil {
		return err
	}
	if err := cli.LoadMemoSnapshot(*memoSnapshot); err != nil {
		return err
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	var selected []experiments.Runner
	for _, r := range experiments.All() {
		if len(want) == 0 || want[r.ID] {
			selected = append(selected, r)
		}
	}
	failures := 0
	for _, o := range experiments.RunAll(selected) {
		if o.Err != nil {
			return fmt.Errorf("%s: %w", o.ID, o.Err)
		}
		text := o.Table.Render()
		fmt.Print(text)
		fmt.Printf("(%s in %v)\n\n", o.ID, o.Elapsed.Round(time.Millisecond))
		if strings.Contains(text, "MISMATCH") || strings.Contains(text, "FAIL") {
			failures++
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) had failing rows", failures)
	}
	return cli.SaveMemoSnapshot(*memoSnapshot)
}
