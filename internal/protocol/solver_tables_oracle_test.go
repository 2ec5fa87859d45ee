package protocol

import (
	"context"
	"errors"
	"fmt"
	mathbits "math/bits"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"ksettop/internal/bits"
	"ksettop/internal/faultinject"
	"ksettop/internal/graph"
	"ksettop/internal/model"
	"ksettop/internal/par"
)

// This file holds the reference implementations the production table build
// and view selector replaced, and the tests that pin production to them:
//
//   - the hash-interned table build: views and constraints interned through
//     per-shard open-addressed hash tables (viewIntern, constraintIntern),
//     merged in shard order (oracleMergeSolveTables);
//   - the linear-scan fail-first selector (linearSelectView).

// oracleInput is the read-only context of one hash-interned sweep.
type oracleInput struct {
	n         int
	numValues int
	inSets    []bits.Set
	execLists [][]int32
}

// oracleTables builds the search tables of roundGraphs the hash-interned
// way, with the shard split par.NumShards gives at the current parallelism
// (shards scanned in turn, then merged in shard order).
func oracleTables(roundGraphs []graph.Digraph, numValues, k int) *solveTables {
	n := roundGraphs[0].N()
	numAssignments := 1
	for i := 0; i < n; i++ {
		numAssignments *= numValues
	}
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
	lists := newConstraintIntern()
	for _, row := range graphIn {
		lists.insert(sortDedupInt32(append([]int32(nil), row...)))
	}
	execLists := make([][]int32, lists.count())
	for c := range execLists {
		execLists[c] = lists.get(int32(c))
	}
	in := oracleInput{n: n, numValues: numValues, inSets: inSets, execLists: execLists}
	total := int64(numAssignments) * int64(len(execLists))
	shards := par.NumShards(total)
	var views *viewIntern
	var constraints *constraintIntern
	if shards <= 1 {
		views, constraints = oracleBuildSolveTables(in, 0, total)
	} else {
		localViews := make([]*viewIntern, shards)
		localCons := make([]*constraintIntern, shards)
		for s := range localViews {
			from, to := par.ShardBounds(total, shards, s)
			localViews[s], localCons[s] = oracleBuildSolveTables(in, from, to)
		}
		views, constraints = oracleMergeSolveTables(n, localViews, localCons)
	}
	return oracleAssembleTables(k, numValues, views, constraints)
}

// oracleAssembleTables builds the flat search tables from the interned
// views and constraints.
func oracleAssembleTables(k, numValues int, views *viewIntern, constraints *constraintIntern) *solveTables {
	execStarts, execData := constraints.offs, constraints.arena
	veStarts := make([]int32, len(views.views)+1)
	for _, id := range execData {
		veStarts[id+1]++
	}
	for i := 1; i < len(veStarts); i++ {
		veStarts[i] += veStarts[i-1]
	}
	veData := make([]int32, veStarts[len(veStarts)-1])
	fill := make([]int32, len(views.views))
	for c := 0; c < constraints.count(); c++ {
		for _, id := range constraints.get(int32(c)) {
			veData[veStarts[id]+fill[id]] = int32(c)
			fill[id]++
		}
	}

	initDomains := make([]uint16, len(views.views))
	support := make([]int, numValues)
	for i, v := range views.views {
		var dom uint16
		for _, val := range v {
			if val != NoValue {
				dom |= 1 << uint(val)
			}
		}
		initDomains[i] = dom
		for t := dom; t != 0; t &= t - 1 {
			support[mathbits.TrailingZeros16(t)]++
		}
	}
	valueOrder := make([]Value, numValues)
	for i := range valueOrder {
		valueOrder[i] = i
	}
	sort.SliceStable(valueOrder, func(a, b int) bool {
		return support[valueOrder[a]] > support[valueOrder[b]]
	})
	return &solveTables{
		k:           k,
		numValues:   numValues,
		views:       views.views,
		execStarts:  execStarts,
		execData:    execData,
		veStarts:    veStarts,
		veData:      veData,
		initDomains: initDomains,
		valueOrder:  valueOrder,
	}
}

// linearSelectView is the O(#views) fail-first scan: the unassigned view
// with the smallest domain, lowest id on ties, stopping at the first view
// with at most one value left; -1 when every view is decided.
func linearSelectView(s *cspState) int {
	best, bestSize := -1, 17
	for v, d := range s.decided {
		if d != NoValue {
			continue
		}
		size := onesCount16(s.domains[v])
		if size < bestSize {
			best, bestSize = v, size
			if size <= 1 {
				break
			}
		}
	}
	return best
}

// productionTables runs the production table build on roundGraphs.
func productionTables(t *testing.T, roundGraphs []graph.Digraph, numValues, k int) *solveTables {
	t.Helper()
	n := roundGraphs[0].N()
	numAssignments := 1
	for i := 0; i < n; i++ {
		numAssignments *= numValues
	}
	views, execStarts, execData, err := buildTables(context.Background(), newSolveInput(roundGraphs, n, numValues, numAssignments))
	if err != nil {
		t.Fatal(err)
	}
	return assembleTables(k, numValues, views, execStarts, execData)
}

// assertSameTables fails unless got and want agree field by field.
func assertSameTables(t *testing.T, name string, got, want *solveTables) {
	t.Helper()
	switch {
	case got.k != want.k || got.numValues != want.numValues:
		t.Fatalf("%s: k/values %d/%d, want %d/%d", name, got.k, got.numValues, want.k, want.numValues)
	case !slices.EqualFunc(got.views, want.views, func(a, b View) bool { return slices.Equal(a, b) }):
		t.Fatalf("%s: views differ (%d vs %d)", name, len(got.views), len(want.views))
	case !slices.Equal(got.execStarts, want.execStarts) || !slices.Equal(got.execData, want.execData):
		t.Fatalf("%s: constraint CSR differs (%d vs %d constraints)", name, len(got.execStarts)-1, len(want.execStarts)-1)
	case !slices.Equal(got.veStarts, want.veStarts) || !slices.Equal(got.veData, want.veData):
		t.Fatalf("%s: view→constraint CSR differs", name)
	case !slices.Equal(got.initDomains, want.initDomains):
		t.Fatalf("%s: initDomains differ", name)
	case !slices.Equal(got.valueOrder, want.valueOrder):
		t.Fatalf("%s: valueOrder %v, want %v", name, got.valueOrder, want.valueOrder)
	}
}

// tableInstance is one table-build corpus entry.
type tableInstance struct {
	name   string
	graphs []graph.Digraph
	values int
}

// Corpus size caps: closures up to maxTableClosure graphs (generators
// beyond), and value counts up to the largest whose rank space
// (assignments × distinct in-set lists) stays within maxTableRanks, so the
// hash-interned oracle stays fast.
const (
	maxTableClosure = 1 << 16
	maxTableRanks   = 1 << 19
)

// tableCorpus covers the n = 3..5 family closures, E15-style seeded random
// models (closures where small, generators otherwise) and the mid-sweep
// refutation instance, each at every value count from 2 to maxValues whose
// rank space fits.
func tableCorpus(t *testing.T) []tableInstance {
	t.Helper()
	var out []tableInstance
	add := func(name string, graphs []graph.Digraph, minValues, maxValues int) {
		n := graphs[0].N()
		lists := len(newSolveInput(graphs, n, 2, 1).execLists)
		for v := minValues; v <= maxValues; v++ {
			ranks := lists
			for i := 0; i < n; i++ {
				ranks *= v
			}
			if ranks > maxTableRanks {
				break
			}
			out = append(out, tableInstance{name: name, graphs: graphs, values: v})
		}
	}
	closure := func(name string, m *model.ClosedAbove, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if size, err := m.EnumerationSize(); err != nil || size > maxTableClosure {
			add(name+"/gens", m.Generators(), 2, 4)
			return
		}
		all, err := m.AllGraphs()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		add(name, all, 2, 4)
	}
	simple := func(g graph.Digraph, err error) (*model.ClosedAbove, error) {
		if err != nil {
			return nil, err
		}
		return model.Simple(g)
	}
	for n := 3; n <= 5; n++ {
		m, err := simple(graph.Complete(n))
		closure(fmt.Sprintf("clique:n=%d", n), m, err)
		m, err = simple(graph.Star(n, 0))
		closure(fmt.Sprintf("simple-star:n=%d", n), m, err)
		m, err = simple(graph.Cycle(n))
		closure(fmt.Sprintf("simple-cycle:n=%d", n), m, err)
		if n != 4 { // star:n=4 is the mid-sweep instance, added below
			m, err = model.NonEmptyKernelModel(n)
			closure(fmt.Sprintf("star:n=%d", n), m, err)
		}
		m, err = model.UnionOfStarsModel(n, 2)
		closure(fmt.Sprintf("stars:n=%d,s=2", n), m, err)
		m, err = model.CycleModel(n)
		closure(fmt.Sprintf("cycle:n=%d", n), m, err)
		if n <= 4 {
			m, err = model.NonSplitModel(n)
			closure(fmt.Sprintf("nonsplit:n=%d", n), m, err)
		}
	}
	for _, row := range []struct {
		n    int
		seed int64
		p    float64
		sym  bool
	}{{4, 1, 0.50, true}, {4, 2, 0.30, false}, {5, 3, 0.80, true}, {5, 4, 0.40, false}} {
		rng := rand.New(rand.NewSource(row.seed))
		gens := make([]graph.Digraph, 2)
		for i := range gens {
			g, err := graph.Random(row.n, row.p, rng)
			if err != nil {
				t.Fatal(err)
			}
			gens[i] = g
		}
		build := model.New
		if row.sym {
			build = model.NewSymmetric
		}
		m, err := build(gens)
		closure(fmt.Sprintf("random:n=%d,seed=%d", row.n, row.seed), m, err)
	}
	add("mid-sweep", midSweepInstance(t), 2, 5)
	return out
}

// TestSolveTablesMatchHashInternedOracle pins the rank-addressed table
// build to the hash-interned one it replaced: views, constraints, the CSR
// transpose, initial domains and the value order are identical, at
// parallelism 1, 2 and 5, over the table corpus.
func TestSolveTablesMatchHashInternedOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every corpus instance three times with both builds")
	}
	defer par.SetParallelism(0)
	for _, inst := range tableCorpus(t) {
		name := fmt.Sprintf("%s/v=%d", inst.name, inst.values)
		par.SetParallelism(1)
		want := oracleTables(inst.graphs, inst.values, 2)
		// Injectivity: every rank is its own constraint.
		n := inst.graphs[0].N()
		ranks := len(newSolveInput(inst.graphs, n, inst.values, 1).execLists)
		for i := 0; i < n; i++ {
			ranks *= inst.values
		}
		if len(want.execStarts)-1 != ranks {
			t.Fatalf("%s: oracle found %d constraints over %d ranks", name, len(want.execStarts)-1, ranks)
		}
		for _, p := range []int{1, 2, 5} {
			par.SetParallelism(p)
			if p > 1 {
				assertSameTables(t, fmt.Sprintf("%s/p=%d/oracle", name, p), oracleTables(inst.graphs, inst.values, 2), want)
			}
			assertSameTables(t, fmt.Sprintf("%s/p=%d", name, p), productionTables(t, inst.graphs, inst.values, 2), want)
		}
	}
}

// TestSelectViewMatchesLinearScan checks the size-bucket selector against
// the linear scan at every call of full searches: the SearchSeq oracle and
// the parallel engine — probe, decomposition and task sweep, the latter
// forced on by a low probe limit — at parallelism 1 and 2.
func TestSelectViewMatchesLinearScan(t *testing.T) {
	var calls, mismatches atomic.Int64
	selectViewCheck = func(s *cspState, v int) {
		calls.Add(1)
		if want := linearSelectView(s); want != v && mismatches.Add(1) == 1 {
			t.Errorf("selectView = %d, linear scan = %d", v, want)
		}
	}
	defer func() { selectViewCheck = nil }()
	defer par.SetParallelism(0)
	defer SetSearchProbeLimit(0)

	type instance struct {
		name      string
		graphs    []graph.Digraph
		values, k int
	}
	var corpus []instance
	for _, c := range corpusInstances(t) {
		corpus = append(corpus, instance{c.name, c.graphs, c.vals, c.k})
	}
	corpus = append(corpus, instance{"mid-sweep", midSweepInstance(t), 4, 3})
	for _, c := range corpus {
		// The oracle cannot finish the mid-sweep refutation; a budget trip
		// still checks every selection up to it.
		if _, err := SolveOneRoundEngine(c.graphs, c.values, c.k, 20_000, SearchSeq); err != nil && !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("%s/seq: %v", c.name, err)
		}
		for _, limit := range []int{0, 16} {
			SetSearchProbeLimit(limit)
			for _, p := range []int{1, 2} {
				par.SetParallelism(p)
				if _, err := SolveOneRound(c.graphs, c.values, c.k, 50_000_000); err != nil {
					t.Fatalf("%s/probe=%d/p=%d: %v", c.name, limit, p, err)
				}
			}
		}
	}
	if calls.Load() == 0 {
		t.Fatal("selectView was never called")
	}
	if n := mismatches.Load(); n > 0 {
		t.Fatalf("%d of %d selections differ from the linear scan", n, calls.Load())
	}
}

// TestSolveCancelledInTableBuild lands a deadline inside the table build of
// the 279,375-rank star:n=4 closure at 5 values: the first constraint shard
// is held past the deadline, so the build must notice through its own
// polling. The cancelled run returns a DeadlineExceeded chain and no
// partial result, and a rerun is identical to an uncancelled run, at every
// parallelism. The sequential view pass must stop on a cancelled Ctl too.
func TestSolveCancelledInTableBuild(t *testing.T) {
	all := midSweepInstance(t)
	defer par.SetParallelism(0)
	defer faultinject.Disable()
	par.SetParallelism(1)
	want, err := SolveOneRound(all, 5, 4, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b SolveResult) bool {
		return a.Solvable == b.Solvable && a.Views == b.Views && a.Executions == b.Executions &&
			a.Nodes == b.Nodes && a.Stats == b.Stats && sameMap(a.Map, b.Map)
	}
	for _, workers := range []int{1, 2, 5} {
		par.SetParallelism(workers)
		faultinject.Enable(1, faultinject.Rule{Point: faultinject.PointParShard, Nth: 1, Action: faultinject.ActionDelay, Delay: 50 * time.Millisecond})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		res, err := SolveOneRoundCtx(ctx, all, 5, 4, 50_000_000)
		cancel()
		faultinject.Disable()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d: err = %v, want a DeadlineExceeded chain", workers, err)
		}
		if !same(res, SolveResult{}) {
			t.Fatalf("workers=%d: cancelled table build returned %+v", workers, res)
		}
		got, err := SolveOneRound(all, 5, 4, 50_000_000)
		if err != nil {
			t.Fatalf("workers=%d: rerun: %v", workers, err)
		}
		if !same(got, want) {
			t.Errorf("workers=%d: rerun after cancellation differs: %+v vs %+v", workers, got, want)
		}
	}

	ctl := &par.Ctl{}
	ctl.Stop()
	if _, _, ok := buildViews(newSolveInput(all, 4, 5, 625), ctl); ok {
		t.Fatal("view pass ignored a stopped Ctl")
	}
}

// oracleBuildSolveTables interns the views and execution constraints of the ranks
// in [from, to), where rank r denotes assignment r/len(execLists) applied to
// list r%len(execLists), scanning in ascending rank order. Each worker shard
// gets its own intern tables; oracleMergeSolveTables stitches them together.
func oracleBuildSolveTables(in oracleInput, from, to int64) (*viewIntern, *constraintIntern) {
	views := newViewIntern(in.n)
	constraints := newConstraintIntern()
	if from >= to {
		return views, constraints
	}
	L := int64(len(in.execLists))
	assignment := make([]Value, in.n)
	assignmentFromRank(from/L, in.numValues, assignment)
	viewOfInSet := make([]int32, len(in.inSets))
	refresh := func() {
		for s, inSet := range in.inSets {
			viewOfInSet[s] = views.intern(inSet, assignment)
		}
	}
	refresh()
	scratch := make([]int32, 0, in.n)
	li := from % L
	for r := from; r < to; r++ {
		ids := scratch[:0]
		for _, s := range in.execLists[li] {
			ids = append(ids, viewOfInSet[s])
		}
		constraints.insert(sortDedupInt32(ids))
		li++
		if li == L {
			li = 0
			if r+1 < to {
				incCounter(assignment, in.numValues)
				refresh()
			}
		}
	}
	return views, constraints
}

// oracleMergeSolveTables folds the per-shard intern tables into one global pair,
// in shard order. Shards cover contiguous ascending rank ranges, so
// first-encounter order across the merged shards equals the first-encounter
// order of a sequential sweep — view ids, constraint ids, and therefore the
// whole search are byte-identical to the single-shard path.
func oracleMergeSolveTables(n int, localViews []*viewIntern, localCons []*constraintIntern) (*viewIntern, *constraintIntern) {
	views := newViewIntern(n)
	constraints := newConstraintIntern()
	scratch := make([]int32, 0, n)
	for s := range localViews {
		lv, lc := localViews[s], localCons[s]
		remap := make([]int32, len(lv.views))
		for id, v := range lv.views {
			remap[id] = views.internView(v, lv.hashes[id])
		}
		for c := 0; c < lc.count(); c++ {
			ids := lc.get(int32(c))
			mapped := scratch[:0]
			for _, id := range ids {
				mapped = append(mapped, remap[id])
			}
			// Remapping is injective, so only the order needs restoring.
			constraints.insert(sortDedupInt32(mapped))
		}
	}
	return views, constraints
}

// viewIntern deduplicates flattened views through an open-addressed hash
// table. Probing compares full view contents, so hash collisions are
// harmless; a View is allocated only for each DISTINCT view.
type viewIntern struct {
	n       int
	mask    uint64  // table length − 1 (power of two)
	slots   []int32 // view id + 1, 0 = empty
	views   []View
	hashes  []uint64
	scratch View
}

func newViewIntern(n int) *viewIntern {
	const initial = 256
	return &viewIntern{
		n:       n,
		mask:    initial - 1,
		slots:   make([]int32, initial),
		scratch: make(View, n),
	}
}

// intern flattens (in, assignment) into the scratch view and returns the id
// of the equal interned view, inserting it first if new.
func (vi *viewIntern) intern(in bits.Set, assignment []Value) int32 {
	v := vi.scratch
	for i := range v {
		v[i] = NoValue
	}
	for t := uint64(in); t != 0; t &= t - 1 {
		q := mathbits.TrailingZeros64(t)
		v[q] = assignment[q]
	}
	h := bits.Hash64Seed()
	for _, val := range v {
		h = bits.Hash64Mix(h, uint64(val+1))
	}
	idx := h & vi.mask
	for {
		slot := vi.slots[idx]
		if slot == 0 {
			break
		}
		id := slot - 1
		if vi.hashes[id] == h && viewsEqual(vi.views[id], v) {
			return id
		}
		idx = (idx + 1) & vi.mask
	}
	return vi.insertAt(idx, v.Clone(), h)
}

// internView interns an already-flattened view with a precomputed hash,
// taking ownership of v (the merge path hands over shard-local views whose
// tables are then discarded).
func (vi *viewIntern) internView(v View, h uint64) int32 {
	idx := h & vi.mask
	for {
		slot := vi.slots[idx]
		if slot == 0 {
			break
		}
		id := slot - 1
		if vi.hashes[id] == h && viewsEqual(vi.views[id], v) {
			return id
		}
		idx = (idx + 1) & vi.mask
	}
	return vi.insertAt(idx, v, h)
}

func (vi *viewIntern) insertAt(idx uint64, v View, h uint64) int32 {
	id := int32(len(vi.views))
	vi.views = append(vi.views, v)
	vi.hashes = append(vi.hashes, h)
	vi.slots[idx] = id + 1
	if uint64(len(vi.views))*4 > (vi.mask+1)*3 {
		vi.grow()
	}
	return id
}

func (vi *viewIntern) grow() {
	vi.mask = (vi.mask+1)*2 - 1
	vi.slots = make([]int32, vi.mask+1)
	for id, h := range vi.hashes {
		idx := h & vi.mask
		for vi.slots[idx] != 0 {
			idx = (idx + 1) & vi.mask
		}
		vi.slots[idx] = int32(id) + 1
	}
}

// constraintIntern is a hash SET of sorted view-id lists, open-addressed
// like viewIntern, with contents stored in one flat arena.
type constraintIntern struct {
	mask   uint64
	slots  []int32 // constraint index + 1, 0 = empty
	hashes []uint64
	arena  []int32
	offs   []int32 // constraint c = arena[offs[c]:offs[c+1]]
}

func newConstraintIntern() *constraintIntern {
	const initial = 256
	return &constraintIntern{
		mask:  initial - 1,
		slots: make([]int32, initial),
		offs:  []int32{0},
	}
}

func (ci *constraintIntern) get(c int32) []int32 {
	return ci.arena[ci.offs[c]:ci.offs[c+1]]
}

// count returns the number of interned lists.
func (ci *constraintIntern) count() int { return len(ci.offs) - 1 }

// insert reports whether ids (sorted, unique) was absent, adding it if so.
func (ci *constraintIntern) insert(ids []int32) bool {
	h := bits.Hash64Seed()
	for _, id := range ids {
		h = bits.Hash64Mix(h, uint64(id))
	}
	idx := h & ci.mask
	for {
		slot := ci.slots[idx]
		if slot == 0 {
			break
		}
		c := slot - 1
		if ci.hashes[c] == h && slices.Equal(ci.get(c), ids) {
			return false
		}
		idx = (idx + 1) & ci.mask
	}
	c := int32(len(ci.offs) - 1)
	ci.arena = append(ci.arena, ids...)
	ci.offs = append(ci.offs, int32(len(ci.arena)))
	ci.hashes = append(ci.hashes, h)
	ci.slots[idx] = c + 1
	if uint64(len(ci.hashes))*4 > (ci.mask+1)*3 {
		ci.grow()
	}
	return true
}

func (ci *constraintIntern) grow() {
	ci.mask = (ci.mask+1)*2 - 1
	ci.slots = make([]int32, ci.mask+1)
	for c, h := range ci.hashes {
		idx := h & ci.mask
		for ci.slots[idx] != 0 {
			idx = (idx + 1) & ci.mask
		}
		ci.slots[idx] = int32(c) + 1
	}
}
