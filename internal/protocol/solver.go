package protocol

import (
	"context"
	"fmt"

	"ksettop/internal/bits"
	"ksettop/internal/graph"
	"ksettop/internal/obs"
	"ksettop/internal/par"
	"ksettop/internal/runctx"
)

var (
	obsSolves = obs.DefaultRegistry().Counter("kset_solver_solves_total",
		"SolveOneRound invocations")
	obsSolveNodes = obs.DefaultRegistry().Counter("kset_solver_nodes_total",
		"deterministic search nodes accounted across all solves")
)

// This file is the entry layer of the decision-map solver. The engine is
// layered across four files:
//
//	solver.go          input validation, table-build orchestration, engine
//	                   dispatch (SolveOneRound)
//	solver_tables.go   interning sweeps and flat search tables
//	solver_state.go    backtracking state + nogood store
//	solver_search.go   sequential oracle and learning DFS
//	solver_parallel.go probe / decompose / work-steal / reduce engine
//	                   and the DefaultNodeBudget config

// SolveResult is the outcome of an exhaustive decision-map search.
type SolveResult struct {
	// Solvable reports whether some oblivious one-round decision map solves
	// k-set agreement over the swept executions.
	Solvable bool
	// Map holds a solving decision map when Solvable. Both engines return
	// the lexicographically-first witness under the shared branch order, so
	// the map is identical across engines and parallelism settings.
	Map *DecisionMap
	// Views is the number of distinct flattened views.
	Views int
	// Executions is the number of constraint executions.
	Executions int
	// Nodes is the number of search nodes explored, under the active
	// engine's deterministic accounting (identical for every -parallelism).
	Nodes int
	// Stats details the parallel engine's per-phase accounting.
	Stats SearchStats
}

// SolveOneRound decides, by exhaustive search over all oblivious decision
// maps, whether k-set agreement is solvable in one round when the adversary
// plays graphs from roundGraphs and initial values range over
// [0, numValues).
//
// Soundness notes:
//   - If the search fails over a SUBSET of the model's graphs, it fails over
//     the model a fortiori, so passing just the generators proves
//     impossibility for the whole closed-above model. Since one-round
//     full-information protocols are oblivious (§5), the impossibility
//     applies to all algorithms.
//   - If the search succeeds, the map solves k-set agreement over exactly
//     the swept graphs; pass the full closure (model.EnumerateGraphs) to
//     certify solvability on the model.
//   - Restricting decisions to values present in the view is WLOG for
//     numValues ≥ 2: any value outside the view fails validity in some
//     execution extending the view.
//
// To verify multi-round *oblivious* impossibility (Thm 6.10/6.11), pass the
// round-r product graphs: after r rounds a flattened view is determined by
// the product graph's in-neighborhoods, so the r-round oblivious question is
// exactly this one-round question on S^r.
//
// The assignments × graphs constraint sweep is sharded across the par
// worker pool with per-shard intern tables, merged in shard order, and the
// search phase runs on the work-stealing learning engine, whose rank-ordered
// reduction keeps the whole SolveResult identical to a sequential run of the
// same engine for every parallelism setting (see solver_parallel.go).
//
// The search is exponential; nodeBudget bounds explored nodes (error when
// exhausted).
func SolveOneRound(roundGraphs []graph.Digraph, numValues, k, nodeBudget int) (SolveResult, error) {
	return SolveOneRoundEngineCtx(runctx.Base(), roundGraphs, numValues, k, nodeBudget, SearchParallel)
}

// SolveOneRoundCtx is SolveOneRound bound to a context: cancellation or
// deadline expiry aborts the search cooperatively (table build, probe, task
// sweep — all within one shard / ~128 nodes of polling granularity) and
// returns a wrapped context error. Runs that complete are byte-identical to
// uncancelled SolveOneRound calls.
func SolveOneRoundCtx(ctx context.Context, roundGraphs []graph.Digraph, numValues, k, nodeBudget int) (SolveResult, error) {
	return SolveOneRoundEngineCtx(ctx, roundGraphs, numValues, k, nodeBudget, SearchParallel)
}

// SolveOneRoundEngine is SolveOneRound pinned to an explicit search engine:
// the entry through which cross-checks and experiments reach the SearchSeq
// oracle.
func SolveOneRoundEngine(roundGraphs []graph.Digraph, numValues, k, nodeBudget int, engine SearchEngine) (SolveResult, error) {
	return SolveOneRoundEngineCtx(runctx.Base(), roundGraphs, numValues, k, nodeBudget, engine)
}

// SolveOneRoundEngineCtx is the context-aware engine-pinned entry the other
// three SolveOneRound variants delegate to.
func SolveOneRoundEngineCtx(ctx context.Context, roundGraphs []graph.Digraph, numValues, k, nodeBudget int, engine SearchEngine) (SolveResult, error) {
	if len(roundGraphs) == 0 {
		return SolveResult{}, fmt.Errorf("protocol: no graphs to solve over")
	}
	if numValues < 2 {
		return SolveResult{}, fmt.Errorf("protocol: solver needs ≥2 values, got %d", numValues)
	}
	if k < 1 {
		return SolveResult{}, fmt.Errorf("protocol: k %d must be ≥ 1", k)
	}
	n := roundGraphs[0].N()
	obsSolves.Inc()
	ctx, solveSpan := obs.StartSpan(ctx, "solver.solve")
	solveSpan.SetInt("graphs", int64(len(roundGraphs)))
	solveSpan.SetInt("values", int64(numValues))
	solveSpan.SetInt("k", int64(k))
	defer solveSpan.End()
	numAssignments := 1
	for i := 0; i < n; i++ {
		numAssignments *= numValues
		if numAssignments > 1<<20 {
			return SolveResult{}, fmt.Errorf("protocol: %d^%d assignments too many", numValues, n)
		}
	}

	// The view of process p under graph g depends only on In_g(p) and the
	// assignment, so the distinct in-neighborhoods across all graphs are
	// collected once up front: per assignment, each distinct in-set is
	// flattened and interned exactly once instead of n×|graphs| times.
	inSetID := make(map[bits.Set]int)
	var inSets []bits.Set
	graphIn := make([][]int32, len(roundGraphs))
	for gi, g := range roundGraphs {
		row := make([]int32, n)
		for p := 0; p < n; p++ {
			in := g.In(p)
			id, ok := inSetID[in]
			if !ok {
				id = len(inSets)
				inSetID[in] = id
				inSets = append(inSets, in)
			}
			row[p] = int32(id)
		}
		graphIn[gi] = row
	}

	// A graph enters a constraint only through its SET of in-neighborhoods:
	// two graphs with the same sorted-unique in-set-id list induce identical
	// constraints under every assignment. Closures are full of such
	// duplicates (e.g. the n=4 star closure has 1695 graphs but only 447
	// distinct lists), so the per-assignment sweep runs over the deduped
	// lists. Dedup preserves first-occurrence order, which keeps the
	// constraint numbering identical to a graph-by-graph sweep.
	lists := newConstraintIntern()
	idScratch := make([]int32, 0, n)
	for _, row := range graphIn {
		ids := idScratch[:0]
		for p := 0; p < n; p++ {
			ids = append(ids, row[p])
		}
		lists.insert(sortDedupInt32(ids))
	}
	execLists := make([][]int32, lists.count())
	for c := range execLists {
		execLists[c] = lists.get(int32(c))
	}

	// Build the view universe and the execution constraints over the rank
	// space assignments × lists. Distinct executions frequently induce
	// identical view SETS; since the constraint "≤ k distinct decisions"
	// depends only on the view set, constraints are deduplicated, which
	// shrinks hard instances by orders of magnitude. Both tables intern
	// through 64-bit hashes with full content comparison — no per-execution
	// key strings or view slices are allocated; memory grows only with the
	// number of DISTINCT views and constraints.
	in := solveInput{
		n:         n,
		numValues: numValues,
		inSets:    inSets,
		execLists: execLists,
	}
	total := int64(numAssignments) * int64(len(execLists))
	shards := par.NumShards(total)
	var views *viewIntern
	var constraints *constraintIntern
	tableCtx, tableSpan := obs.StartSpan(ctx, "solver.tables")
	defer tableSpan.End() // idempotent: records at the explicit End below
	tableCtl := &par.Ctl{}
	if shards <= 1 {
		if err := par.ForEachShardNCtx(tableCtx, total, 1, tableCtl, func(_ int, from, to int64, _ *par.Ctl) {
			views, constraints = buildSolveTables(in, from, to)
		}); err != nil {
			return SolveResult{}, cancelCause(tableCtl, ctx)
		}
	} else {
		localViews := make([]*viewIntern, shards)
		localCons := make([]*constraintIntern, shards)
		if err := par.ForEachShardNCtx(tableCtx, total, shards, tableCtl, func(shard int, from, to int64, _ *par.Ctl) {
			localViews[shard], localCons[shard] = buildSolveTables(in, from, to)
		}); err != nil {
			// Cancelled mid-build: some shard tables are missing, so the
			// merge (and everything after it) is off the table.
			return SolveResult{}, cancelCause(tableCtl, ctx)
		}
		if tableCtl.Stopped() {
			return SolveResult{}, cancelCause(tableCtl, ctx)
		}
		views, constraints = mergeSolveTables(n, localViews, localCons)
	}

	tableSpan.SetInt("views", int64(len(views.views)))
	tableSpan.SetInt("constraints", int64(constraints.count()))
	tableSpan.End()

	res := SolveResult{Views: len(views.views), Executions: numAssignments * len(roundGraphs)}
	if numValues > 16 {
		return res, fmt.Errorf("protocol: solver supports ≤16 values, got %d", numValues)
	}

	t := assembleTables(k, numValues, views, constraints)
	switch engine {
	case SearchSeq:
		s := newCSPState(t, nil, nil)
		var stop func() bool
		if ctx != nil && ctx.Done() != nil {
			seqCtl := &par.Ctl{}
			release := seqCtl.Bind(ctx)
			defer release()
			stop = seqCtl.Stopped
		}
		solved, err := s.searchSeq(&res.Nodes, nodeBudget, stop)
		if err != nil {
			if err == errSolveCancelled {
				return res, cancelCause(nil, ctx)
			}
			return res, err
		}
		if solved {
			res.Solvable = true
			res.Map = t.decisionMap(s.decided)
		}
	default:
		out, err := solveParallel(ctx, t, nodeBudget)
		res.Nodes = out.nodes
		res.Stats = out.stats
		if err != nil {
			return res, err
		}
		if out.solved {
			res.Solvable = true
			res.Map = t.decisionMap(out.decided)
		}
	}
	obsSolveNodes.Add(uint64(res.Nodes))
	solveSpan.SetInt("nodes", int64(res.Nodes))
	solveSpan.SetInt("solvable", boolInt(res.Solvable))
	return res, nil
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
