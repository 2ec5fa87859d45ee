// Command ksettopo explores the §4 topology of a closed-above model: the
// uninterpreted complex (Def 4.4), the one-round protocol complex
// (Def 4.14), their homology (GF(2) and integral), and the nerve structure
// of the pseudosphere cover.
//
// Usage:
//
//	ksettopo -model star:n=3 -values 3
//	ksettopo -model simple-cycle:n=4 -values 2 -maxdim 1
//	ksettopo -model stars:n=4,s=2 -values 3 -maxdim 2
//	ksettopo -model star:n=5 -memo-snapshot memo.snap   # warm-start closures
package main

import (
	"context"
	"flag"
	"fmt"
	"time"

	"ksettop/internal/cli"
	"ksettop/internal/model"
	"ksettop/internal/obs"
	"ksettop/internal/par"
	"ksettop/internal/topology"
)

func main() {
	if err := run(); err != nil {
		cli.Exit("ksettopo", err)
	}
}

func run() (err error) {
	spec := flag.String("model", "star:n=3", "model specification (see ksetbounds)")
	values := flag.Int("values", 2, "input values for the protocol complex")
	maxDim := flag.Int("maxdim", -1, "homology dimension cap (default n−2)")
	parallelism := flag.Int("parallelism", 0, "worker-pool size (0 = KSETTOP_PARALLELISM or GOMAXPROCS)")
	memoFlag := flag.String("memo", "on", cli.MemoFlagUsage)
	memoSnapshot := flag.String("memo-snapshot", "", cli.MemoSnapshotUsage)
	solverBudget := flag.Int("solver-budget", 0, cli.SolverBudgetFlagUsage)
	logLevel := flag.String("log-level", "info", cli.LogLevelFlagUsage)
	traceOut := flag.String("trace-out", "", cli.TraceOutFlagUsage)
	checkpointPath := flag.String("checkpoint", "", cli.CheckpointFlagUsage)
	checkpointInterval := flag.Duration("checkpoint-interval", 30*time.Second, cli.CheckpointIntervalFlagUsage)
	resume := flag.Bool("resume", false, cli.ResumeFlagUsage)
	flag.Parse()
	obs.SetProcessName("ksettopo")
	if err := cli.ApplyLogLevelFlag(*logLevel); err != nil {
		return err
	}
	flushTrace := cli.StartTraceOut(*traceOut)
	ctx, stopSignals := cli.SignalContext(context.Background())
	defer stopSignals()
	jobKey := cli.JobKey("ksettopo", *spec, fmt.Sprint(*values), fmt.Sprint(*maxDim),
		fmt.Sprint(*solverBudget))
	_, ckpt := cli.StartCheckpoint(ctx, *checkpointPath, jobKey, *checkpointInterval, *resume)
	defer func() {
		if ferr := cli.FinishDurable(ckpt, *memoSnapshot, err); err == nil {
			err = ferr
		}
	}()
	par.SetParallelism(*parallelism)
	if err := cli.ApplyMemoFlag(*memoFlag); err != nil {
		return err
	}
	if err := cli.ApplySolverBudgetFlag(*solverBudget); err != nil {
		return err
	}
	if err := cli.LoadMemoSnapshot(*memoSnapshot); err != nil {
		return err
	}

	m, err := cli.ParseModel(*spec)
	if err != nil {
		return err
	}
	dim := *maxDim
	if dim < 0 {
		dim = m.N() - 2
	}
	fmt.Println(m)

	if err := reportUninterpreted(m, dim); err != nil {
		return err
	}
	if err := reportProtocol(m, *values, dim); err != nil {
		return err
	}
	if err := flushTrace(); err != nil {
		return err
	}
	return cli.SaveMemoSnapshot(*memoSnapshot)
}

func reportUninterpreted(m *model.ClosedAbove, dim int) error {
	cover, err := topology.UninterpretedCover(m.Generators())
	if err != nil {
		return err
	}
	fmt.Printf("\nuninterpreted complex C_A (Def 4.4):\n")
	totalFacets := 0
	for i, ps := range cover {
		totalFacets += ps.FacetCount()
		if i < 4 {
			fmt.Printf("  pseudosphere %d: %d facets, Lemma 4.7 bound: %d-connected\n",
				i, ps.FacetCount(), ps.ConnectivityBound())
		}
	}
	if len(cover) > 4 {
		fmt.Printf("  … %d more pseudospheres\n", len(cover)-4)
	}
	c, err := topology.UninterpretedComplex(m.Generators())
	if err != nil {
		return err
	}
	ac, _, err := c.ToAbstract()
	if err != nil {
		return err
	}
	fmt.Printf("  union: %d facets (%d before dedup), dim %d, pure=%v, χ=%d\n",
		ac.FacetCount(), totalFacets, ac.Dimension(), ac.IsPure(), ac.EulerCharacteristic())

	// One facet walk feeds the reduction; the facet-based entry would
	// re-derive the levels the report already enumerates.
	levels := ac.SimplexLevels(dim + 1)
	betti, err := topology.ReducedBettiNumbersFromLevels(ac, levels, dim)
	if err != nil {
		return err
	}
	fmt.Printf("  GF(2) reduced betti up to dim %d: %v\n", dim, betti)
	ih, err := topology.IntegerHomologyGroups(ac, dim)
	if err != nil {
		return err
	}
	fmt.Printf("  integral homology: %s\n", ih)
	ok, _, err := topology.IsIntegrallyKConnected(ac, m.N()-2)
	if err != nil {
		return err
	}
	fmt.Printf("  Thm 4.12 check ((n−2)-connected): %v\n", ok)
	return nil
}

func reportProtocol(m *model.ClosedAbove, values, dim int) error {
	inputs, err := topology.InputAssignments(m.N(), values)
	if err != nil {
		return err
	}
	pc, err := topology.ProtocolComplexOneRound(m.Generators(), inputs)
	if err != nil {
		return err
	}
	ac, verts, err := pc.ToAbstract()
	if err != nil {
		return err
	}
	fmt.Printf("\none-round protocol complex over %d values (Def 4.14):\n", values)
	fmt.Printf("  %d input facets × %d generators → %d facets, %d vertices\n",
		len(inputs), m.GeneratorCount(), ac.FacetCount(), len(verts))

	betti, err := topology.ReducedBettiNumbersFromLevels(ac, ac.SimplexLevels(dim+1), dim)
	if err != nil {
		return err
	}
	fmt.Printf("  GF(2) reduced betti up to dim %d: %v\n", dim, betti)
	for k := 0; k <= dim; k++ {
		if betti[k] != 0 {
			fmt.Printf("  verdict: NOT %d-connected → no obstruction to %d-set agreement at k=%d\n",
				k, k+1, k+1)
			return nil
		}
	}
	fmt.Printf("  verdict: %d-connected → (k ≤ %d)-set agreement impossible in one round\n",
		dim, dim+1)
	fmt.Printf("  ([HKR13] Thm 10.3.1 / paper Thm 5.4 premise)\n")
	return nil
}
