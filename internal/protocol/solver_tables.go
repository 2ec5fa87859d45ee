package protocol

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	mathbits "math/bits"
	"sort"

	"ksettop/internal/bits"
	"ksettop/internal/graph"
	"ksettop/internal/obs"
	"ksettop/internal/par"
)

// This file is the table-build layer of the decision-map solver: it turns
// the assignments × in-set-list rank space into the flat, read-only search
// tables (numbered views, one execution constraint per rank, CSR adjacency,
// initial domains, static value order) that both search engines consume.
// Everything here is deterministic in rank order, so the tables — and
// therefore the search — are identical for every parallelism setting.
//
// No table is hash-interned. Views and constraints are both addressed by
// arithmetic:
//
//   - A view is an in-set plus the assignment restricted to it, so the
//     views of in-set s are numbered by the mixed-radix code of a|I_s in
//     one dense table per in-set, viewID[s][code]. Distinct in-sets give
//     distinct views (a view's non-NoValue positions ARE its in-set), so
//     these tables hold exactly the distinct views, Σ_s values^|I_s| of
//     them.
//   - A constraint is the view set of one rank (assignment a, in-set list
//     L). That map is injective: each view recovers its in-set, so the set
//     recovers L, and the union of the views recovers a, because
//     graph.Digraph carries every self-loop — process p is in In_g(p), so
//     L's in-sets cover every position. Distinct ranks therefore never
//     share a constraint, and constraint id = rank.

// solveTables is the immutable context of one solve: shared read-only by
// the sequential oracle, the probe phase and every parallel subtree task.
type solveTables struct {
	k         int
	numValues int
	// views are the flattened views, in first-encounter rank order.
	views []View
	// execStarts/execData lists, per execution constraint, the distinct
	// view ids it touches in CSR form: constraint c touches views
	// execData[execStarts[c]:execStarts[c+1]], ascending.
	execStarts []int32
	execData   []int32
	// veStarts/veData is the transpose in CSR form: view v touches
	// constraints veData[veStarts[v]:veStarts[v+1]], ascending.
	veStarts []int32
	veData   []int32
	// initDomains holds, per view, the bitmask of values present in it —
	// the WLOG candidate decisions.
	initDomains []uint16
	// valueOrder is the static branch order of values: descending number of
	// supporting views, ties broken by ascending value. Both engines branch
	// in this order, which is what makes the "lexicographically-first
	// witness" well-defined and engine-independent.
	valueOrder []Value
}

// assembleTables builds the flat search tables from the views and the
// constraints' view lists (CSR execStarts/execData).
func assembleTables(k, numValues int, views []View, execStarts, execData []int32) *solveTables {
	veStarts := make([]int32, len(views)+1)
	for _, id := range execData {
		veStarts[id+1]++
	}
	for i := 1; i < len(veStarts); i++ {
		veStarts[i] += veStarts[i-1]
	}
	veData := make([]int32, len(execData))
	fill := make([]int32, len(views))
	for c := 0; c+1 < len(execStarts); c++ {
		for _, id := range execData[execStarts[c]:execStarts[c+1]] {
			veData[veStarts[id]+fill[id]] = int32(c)
			fill[id]++
		}
	}

	initDomains := make([]uint16, len(views))
	support := make([]int, numValues)
	for i, v := range views {
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
		views:       views,
		execStarts:  execStarts,
		execData:    execData,
		veStarts:    veStarts,
		veData:      veData,
		initDomains: initDomains,
		valueOrder:  valueOrder,
	}
}

// decisionMap materializes the solver's witness: the views mapped to their
// decided values.
func (t *solveTables) decisionMap(decided []Value) *DecisionMap {
	table := make(map[string]Value, len(t.views))
	for id, v := range t.views {
		table[ViewKey(v)] = decided[id]
	}
	return &DecisionMap{R: 1, Table: table}
}

// litKey packs the decision literal "view decides val" into one int32; the
// same key indexes the nogood occurrence lists.
func litKey(view int, val Value, numValues int) int32 {
	return int32(view*numValues + int(val))
}

// solveInput is the read-only context of one table build: the rank space
// numAssignments × len(execLists), where rank r denotes assignment
// r/len(execLists) (in incCounter order) applied to list r%len(execLists).
type solveInput struct {
	n              int
	numValues      int
	numAssignments int
	inSets         []bits.Set
	// execLists are the distinct sorted in-set-id lists of the graphs, in
	// first-occurrence order.
	execLists [][]int32
}

// newSolveInput collects the distinct in-neighborhoods and the distinct
// in-set lists of roundGraphs (all on n processes).
//
// The view of process p under graph g depends only on In_g(p) and the
// assignment, so the distinct in-neighborhoods across all graphs are
// collected once up front. A graph enters a constraint only through its SET
// of in-neighborhoods: two graphs with the same sorted-unique in-set-id list
// induce identical constraints under every assignment. Closures are full of
// such duplicates (e.g. the n=4 star closure has 1695 graphs but only 447
// distinct lists), so the rank space runs over the deduped lists. Dedup
// keeps first-occurrence order, which keeps the constraint numbering
// identical to a graph-by-graph sweep.
func newSolveInput(roundGraphs []graph.Digraph, n, numValues, numAssignments int) solveInput {
	in := solveInput{n: n, numValues: numValues, numAssignments: numAssignments}
	inSetID := make(map[bits.Set]int32)
	listID := make(map[string]struct{})
	ids := make([]int32, 0, n)
	key := make([]byte, 0, 4*n)
	for _, g := range roundGraphs {
		ids = ids[:0]
		for p := 0; p < n; p++ {
			set := g.In(p)
			id, ok := inSetID[set]
			if !ok {
				id = int32(len(in.inSets))
				inSetID[set] = id
				in.inSets = append(in.inSets, set)
			}
			ids = append(ids, id)
		}
		ids = sortDedupInt32(ids)
		key = key[:0]
		for _, id := range ids {
			key = binary.LittleEndian.AppendUint32(key, uint32(id))
		}
		if _, dup := listID[string(key)]; dup {
			continue
		}
		listID[string(key)] = struct{}{}
		in.execLists = append(in.execLists, append([]int32(nil), ids...))
	}
	return in
}

// buildTables numbers the views and writes the constraints of in under the
// "solver.tables" span. Views are numbered in one sequential pass and
// constraints are written by rank over par shards; neither is
// hash-interned, so memory grows only with the number of distinct views
// and constraints. Both passes poll ctx; a cancelled build returns the
// wrapped cause.
func buildTables(ctx context.Context, in solveInput) (views []View, execStarts, execData []int32, err error) {
	ctx, span := obs.StartSpan(ctx, "solver.tables")
	defer span.End()
	if ctx != nil && ctx.Err() != nil {
		return nil, nil, nil, cancelCause(nil, ctx)
	}
	ctl := &par.Ctl{}
	release := ctl.Bind(ctx)
	views, idx, ok := buildViews(in, ctl)
	release()
	if !ok {
		return nil, nil, nil, cancelCause(ctl, ctx)
	}
	execStarts, execData, err = buildConstraints(ctx, in, idx, ctl)
	if err != nil {
		return nil, nil, nil, err
	}
	span.SetInt("views", int64(len(views)))
	span.SetInt("constraints", int64(len(execStarts)-1))
	return views, execStarts, execData, nil
}

// viewIndex numbers the views of one table build: view id
// ids[s][code] is in-set s under any assignment whose restriction to
// inSets[s] has mixed-radix code `code` (see viewCode).
type viewIndex struct {
	pos [][]int   // pos[s]: the positions of inSets[s], ascending
	ids [][]int32 // ids[s][code]: view id
}

// viewCode is the mixed-radix code of assignment restricted to pos.
func viewCode(assignment []Value, pos []int, numValues int) int {
	code := 0
	for _, q := range pos {
		code = code*numValues + assignment[q]
	}
	return code
}

// viewPollMask sets how often the sequential view pass polls for
// cancellation: every viewPollMask+1 assignments.
const viewPollMask = 63

// buildViews numbers every distinct view in first-encounter rank order —
// the order in which a sequential rank sweep, refreshing all in-sets at
// each new assignment, first meets them. It is one sequential pass over
// the assignments, polling ctl between them; a stop returns false.
func buildViews(in solveInput, ctl *par.Ctl) ([]View, *viewIndex, bool) {
	idx := &viewIndex{pos: make([][]int, len(in.inSets)), ids: make([][]int32, len(in.inSets))}
	numViews := 0
	for s, set := range in.inSets {
		set.ForEach(func(q int) { idx.pos[s] = append(idx.pos[s], q) })
		size := 1
		for range idx.pos[s] {
			size *= in.numValues
		}
		idx.ids[s] = make([]int32, size)
		for c := range idx.ids[s] {
			idx.ids[s][c] = -1
		}
		numViews += size
	}
	arena := make([]Value, numViews*in.n)
	views := make([]View, 0, numViews)
	assignment := make([]Value, in.n)
	for a := 0; a < in.numAssignments; a++ {
		if a&viewPollMask == 0 && ctl.Stopped() {
			return nil, nil, false
		}
		for s, pos := range idx.pos {
			c := viewCode(assignment, pos, in.numValues)
			if idx.ids[s][c] >= 0 {
				continue
			}
			idx.ids[s][c] = int32(len(views))
			v := View(arena[len(views)*in.n : (len(views)+1)*in.n : (len(views)+1)*in.n])
			for i := range v {
				v[i] = NoValue
			}
			for _, q := range pos {
				v[q] = assignment[q]
			}
			views = append(views, v)
		}
		incCounter(assignment, in.numValues)
	}
	return views, idx, true
}

// buildConstraints writes the view list of every rank — constraint id =
// rank — in CSR form, over par shards. Constraint lengths depend only on
// the list, so every rank's slot in the data array is known up front and
// each shard fills its own contiguous window of it: no merge, no hashing.
// Shards poll ctl once per assignment; a stop returns the wrapped cause.
func buildConstraints(ctx context.Context, in solveInput, idx *viewIndex, ctl *par.Ctl) (starts, data []int32, err error) {
	L := int64(len(in.execLists))
	listOff := make([]int64, L+1)
	for li, list := range in.execLists {
		listOff[li+1] = listOff[li] + int64(len(list))
	}
	perAssignment := listOff[L]
	total := int64(in.numAssignments) * L
	entries := int64(in.numAssignments) * perAssignment
	if entries > math.MaxInt32 {
		return nil, nil, fmt.Errorf("protocol: %d constraint entries overflow the solver's int32 tables", entries)
	}
	data = make([]int32, entries)
	starts = make([]int32, total+1)
	starts[total] = int32(len(data))
	err = par.ForEachShardNCtx(ctx, total, par.NumShards(total), ctl, func(_ int, from, to int64, ctl *par.Ctl) {
		assignment := make([]Value, in.n)
		a := from / L
		assignmentFromRank(a, in.numValues, assignment)
		viewOfInSet := make([]int32, len(in.inSets))
		refresh := func() {
			for s, pos := range idx.pos {
				viewOfInSet[s] = idx.ids[s][viewCode(assignment, pos, in.numValues)]
			}
		}
		refresh()
		li := from % L
		for r := from; r < to; r++ {
			off := a*perAssignment + listOff[li]
			starts[r] = int32(off)
			ids := data[off : off+int64(len(in.execLists[li]))]
			for i, s := range in.execLists[li] {
				ids[i] = viewOfInSet[s]
			}
			// Distinct in-sets have distinct views, so sorting is all the
			// normalisation a list needs.
			sortDedupInt32(ids)
			li++
			if li == L && r+1 < to {
				if ctl.Stopped() {
					return
				}
				li = 0
				a++
				incCounter(assignment, in.numValues)
				refresh()
			}
		}
	})
	if err != nil || ctl.Stopped() {
		return nil, nil, cancelCause(ctl, ctx)
	}
	return starts, data, nil
}

// assignmentFromRank writes the rank-th assignment in incCounter order
// (last index least significant) into assignment.
func assignmentFromRank(rank int64, numValues int, assignment []Value) {
	for i := len(assignment) - 1; i >= 0; i-- {
		assignment[i] = Value(rank % int64(numValues))
		rank /= int64(numValues)
	}
}

// sortDedupInt32 sorts ids in place (insertion sort; callers pass at most
// one entry per process) and drops adjacent duplicates.
func sortDedupInt32(ids []int32) []int32 {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
}
