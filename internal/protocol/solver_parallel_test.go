package protocol

import (
	"strings"
	"testing"

	"ksettop/internal/graph"
	"ksettop/internal/model"
	"ksettop/internal/par"
)

// corpusInstances builds a battery of small instances the sequential oracle
// can finish, spanning SAT and UNSAT, closures and generator subsets.
func corpusInstances(t *testing.T) []struct {
	name   string
	graphs []graph.Digraph
	vals   int
	k      int
} {
	t.Helper()
	var out []struct {
		name   string
		graphs []graph.Digraph
		vals   int
		k      int
	}
	add := func(name string, graphs []graph.Digraph, vals, k int) {
		out = append(out, struct {
			name   string
			graphs []graph.Digraph
			vals   int
			k      int
		}{name, graphs, vals, k})
	}

	clique, _ := graph.Complete(3)
	add("clique3-consensus", []graph.Digraph{clique}, 2, 1)

	star3, err := model.NonEmptyKernelModel(3)
	if err != nil {
		t.Fatal(err)
	}
	star3All, err := star3.AllGraphs()
	if err != nil {
		t.Fatal(err)
	}
	add("star3-closure-k2", star3All, 3, 2)        // UNSAT (Thm 6.13)
	add("star3-closure-k3", star3All, 2, 3)        // SAT (trivial k=n)
	add("star3-gens-k2", star3.Generators(), 3, 2) // SAT (weak adversary)

	cyc3, _ := graph.Cycle(3)
	cyc3m, _ := model.Simple(cyc3)
	cycAll, err := cyc3m.AllGraphs()
	if err != nil {
		t.Fatal(err)
	}
	add("cycle3-closure-k1", cycAll, 2, 1) // UNSAT (γ = 2)
	add("cycle3-closure-k2", cycAll, 3, 2) // SAT

	tour, err := model.TournamentModel(3)
	if err != nil {
		t.Fatal(err)
	}
	tourAll, err := tour.AllGraphs()
	if err != nil {
		t.Fatal(err)
	}
	add("tournament3-k2", tourAll, 3, 2) // UNSAT (wait-free)
	add("tournament3-k3", tourAll, 2, 3) // SAT

	cyc4, _ := graph.Cycle(4)
	sq, err := graph.Power(cyc4, 2)
	if err != nil {
		t.Fatal(err)
	}
	add("cycle4-squared-k1", []graph.Digraph{sq}, 2, 1) // UNSAT (γ(C₄²) = 2)
	return out
}

// sameMap compares witness maps for byte-identical content.
func sameMap(a, b *DecisionMap) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.R != b.R || len(a.Table) != len(b.Table) {
		return false
	}
	for k, v := range a.Table {
		if bv, ok := b.Table[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// TestEnginesAgreeOnCorpus is the engine cross-check: on every corpus
// instance the work-stealing learning engine must agree with the sequential
// oracle on Solvable AND return the byte-identical witness map — both
// engines share the branch order, and learned-clause pruning only removes
// solution-free subtrees, so the lexicographically-first witness is the
// same. Checked at several parallelism settings, with the probe limit
// lowered so the decomposition and work-stealing layers actually engage on
// these small instances.
func TestEnginesAgreeOnCorpus(t *testing.T) {
	defer par.SetParallelism(0)
	defer SetSearchProbeLimit(0)
	for _, inst := range corpusInstances(t) {
		par.SetParallelism(1)
		want, err := SolveOneRoundEngine(inst.graphs, inst.vals, inst.k, 50_000_000, SearchSeq)
		if err != nil {
			t.Fatalf("%s: seq oracle: %v", inst.name, err)
		}
		for _, probeLim := range []int{0, 4} { // stock, and forced-parallel-phase
			SetSearchProbeLimit(probeLim)
			for _, workers := range []int{1, 2, 8} {
				par.SetParallelism(workers)
				got, err := SolveOneRoundEngine(inst.graphs, inst.vals, inst.k, 50_000_000, SearchParallel)
				if err != nil {
					t.Fatalf("%s probe=%d workers=%d: %v", inst.name, probeLim, workers, err)
				}
				if got.Solvable != want.Solvable {
					t.Errorf("%s probe=%d workers=%d: Solvable=%v, oracle says %v",
						inst.name, probeLim, workers, got.Solvable, want.Solvable)
				}
				if !sameMap(got.Map, want.Map) {
					t.Errorf("%s probe=%d workers=%d: witness map differs from oracle's",
						inst.name, probeLim, workers)
				}
			}
		}
		SetSearchProbeLimit(0)
	}
}

// TestParallelPhaseDeterministicAcrossParallelism forces the full
// probe → decompose → work-steal → reduce pipeline on the n=4 star-closure
// impossibility and requires the ENTIRE SolveResult (including Nodes and
// the per-phase Stats) to be identical at every worker count.
func TestParallelPhaseDeterministicAcrossParallelism(t *testing.T) {
	m, err := model.NonEmptyKernelModel(4)
	if err != nil {
		t.Fatal(err)
	}
	all, err := m.AllGraphs()
	if err != nil {
		t.Fatal(err)
	}
	SetSearchProbeLimit(16) // force decomposition + task sweep
	defer SetSearchProbeLimit(0)
	defer par.SetParallelism(0)
	par.SetParallelism(1)
	want, err := SolveOneRound(all, 4, 3, 50_000_000)
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	if want.Solvable {
		t.Fatal("3-set agreement on Sym(star), n=4, must be impossible")
	}
	if want.Stats.Tasks == 0 || want.Stats.PrefixNodes == 0 {
		t.Fatalf("parallel phase did not engage: stats %+v", want.Stats)
	}
	for _, workers := range []int{2, 5, 8} {
		par.SetParallelism(workers)
		got, err := SolveOneRound(all, 4, 3, 50_000_000)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != want {
			t.Errorf("workers=%d: SolveResult %+v differs from single-worker %+v", workers, got, want)
		}
	}
}

// TestBudgetErrorsAgreeAcrossEnginesAndParallelism pins the node-budget
// error behavior: a tiny budget must fail identically on both engines and
// at every parallelism setting, and the error must name the budget.
func TestBudgetErrorsAgreeAcrossEnginesAndParallelism(t *testing.T) {
	// A SAT instance both engines need several decisions for: the 3 bare
	// stars (the weak-adversary instance). Budget 1 must trip identically.
	// (UNSAT closures are no use here — the learning engine legitimately
	// refutes the n=3 closure within a single branch point.)
	m, err := model.NonEmptyKernelModel(3)
	if err != nil {
		t.Fatal(err)
	}
	gens := m.Generators()
	defer par.SetParallelism(0)
	defer SetSearchProbeLimit(0)
	for _, engine := range []SearchEngine{SearchSeq, SearchParallel} {
		for _, workers := range []int{1, 8} {
			par.SetParallelism(workers)
			_, err := SolveOneRoundEngine(gens, 3, 2, 1, engine)
			if err == nil || !strings.Contains(err.Error(), "node budget 1 exhausted") {
				t.Errorf("engine=%v workers=%d: want budget error, got %v", engine, workers, err)
			}
		}
	}
	// A budget that lands inside the task sweep must also fail identically
	// at every worker count (the rank-ordered reduction makes the trip
	// deterministic).
	SetSearchProbeLimit(4)
	m4, err := model.NonEmptyKernelModel(4)
	if err != nil {
		t.Fatal(err)
	}
	all4, err := m4.AllGraphs()
	if err != nil {
		t.Fatal(err)
	}
	var firstErr string
	var firstNodes int
	for _, workers := range []int{1, 2, 8} {
		par.SetParallelism(workers)
		res, err := SolveOneRound(all4, 4, 3, 60)
		if err == nil {
			t.Fatalf("workers=%d: want a mid-sweep budget error, got %+v", workers, res)
		}
		if workers == 1 {
			firstErr, firstNodes = err.Error(), res.Nodes
			continue
		}
		if err.Error() != firstErr || res.Nodes != firstNodes {
			t.Errorf("workers=%d: budget trip (%q, %d nodes) differs from single-worker (%q, %d nodes)",
				workers, err.Error(), res.Nodes, firstErr, firstNodes)
		}
	}
}

// TestLearningEngineMatchesOracleNodesOnSATPath sanity-checks that the
// parallel engine's witness, run through the exhaustive checker, actually
// solves the instance (guards against unsound pruning in conflict
// analysis).
func TestLearningEngineWitnessSolvesInstance(t *testing.T) {
	for _, inst := range corpusInstances(t) {
		res, err := SolveOneRound(inst.graphs, inst.vals, inst.k, 50_000_000)
		if err != nil {
			t.Fatalf("%s: %v", inst.name, err)
		}
		if !res.Solvable {
			continue
		}
		check, err := WorstCase(inst.graphs, inst.vals, 1, *res.Map, 2_000_000)
		if err != nil {
			t.Fatalf("%s: WorstCase: %v", inst.name, err)
		}
		if check.WorstDistinct > inst.k {
			t.Errorf("%s: witness decides %d values, want ≤ %d", inst.name, check.WorstDistinct, inst.k)
		}
	}
}

// TestPooledStateCleanAfterWitnessTask is the regression test for a pooled
// cspState recycled after a SAT task: the witness path used to leave the
// CBJ frames open, so the released state carried stale frameOf entries
// into the next task and corrupted closeLevel's backjump target. runTask
// must release states with every frameOf cleared and the trail back at the
// facts mark.
func TestPooledStateCleanAfterWitnessTask(t *testing.T) {
	// A tiny hand-built SAT instance: three views sharing one execution,
	// two values, k=1 (consensus on the shared execution — satisfiable by
	// deciding one value everywhere).
	tables := &solveTables{
		k:         1,
		numValues: 2,
		views:     []View{{0}, {0, 1}, {1}},
		execViews: [][]int32{{0, 1, 2}},
		veStarts:  []int32{0, 1, 2, 3},
		veData:    []int32{0, 0, 0},
		initDomains: []uint16{
			0b11, 0b11, 0b11,
		},
		valueOrder: []Value{0, 1},
	}
	pr := &parallelRun{
		tables:   tables,
		shared:   newNogoodStore(len(tables.views), tables.numValues, maxSharedNogoods, maxNogoodLen),
		taskCap:  1000,
		budget:   1000,
		ctl:      &par.Ctl{},
		frontier: make(map[string]searchTask),
	}
	pr.addFrontier(searchTask{})
	pr.runTask(searchTask{}, nil)
	if len(pr.records) != 1 || pr.records[0].status != taskWitness {
		t.Fatalf("expected a witness record, got %+v", pr.records)
	}
	s := pr.statePool.Get().(*cspState)
	for v, f := range s.frameOf {
		if f != -1 {
			t.Errorf("released state has stale frameOf[%d] = %d", v, f)
		}
	}
	if len(s.trail) != s.factsMark {
		t.Errorf("released state trail length %d, want facts mark %d", len(s.trail), s.factsMark)
	}
	for v, d := range s.decided {
		if d != NoValue && onesCount16(tables.initDomains[v]) != 1 {
			t.Errorf("released state still has non-fact view %d decided", v)
		}
	}
}
