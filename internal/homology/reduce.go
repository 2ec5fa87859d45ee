package homology

import (
	"errors"

	"ksettop/internal/obs"
	"ksettop/internal/par"
)

var (
	obsApparentPairs = obs.DefaultRegistry().Counter("kset_homology_apparent_pairs_total",
		"columns retired by the apparent-pairs preprocessing pass")
	obsColumnsReduced = obs.DefaultRegistry().Counter("kset_homology_columns_reduced_total",
		"columns that survived the apparent pass into block reduction")
	obsPromotions = obs.DefaultRegistry().Counter("kset_homology_promotions_total",
		"sparse columns promoted to dense bit-packed form")
)

// This file is the reduction layer: the implicit CSC boundary matrix, the
// apparent-pairs (discrete-Morse-flavored) preprocessing pass, the
// block-sharded hybrid reduction, and the PR-3 pure-sparse reduction kept
// as the ReducedBettiSparse cross-check.

// Boundary is the GF(2) boundary matrix ∂_q in implicit CSC form: columns
// are the q-simplexes, rows the (q−1)-simplexes, and a column's sorted row
// indices are materialized on demand by binary-searching each face into the
// row level. Nothing is stored per column — the apparent-pairs pass needs
// only one face lookup per column, and for structured complexes most
// columns never materialize at all.
type Boundary struct {
	cols    *Level
	rows    *Level
	numRows int
	numCols int
	stride  int
}

// Boundary builds ∂_q. q must be ≥ 1 and within the table.
func (cc *ChainComplex) Boundary(q int) *Boundary {
	cols, rows := cc.levels[q], cc.levels[q-1]
	return &Boundary{
		cols:    cols,
		rows:    rows,
		numRows: rows.Count(),
		numCols: cols.Count(),
		stride:  cols.size,
	}
}

// NumRows returns the row count ((q−1)-simplexes).
func (m *Boundary) NumRows() int { return m.numRows }

// NumCols returns the column count (q-simplexes).
func (m *Boundary) NumCols() int { return m.numCols }

// Rank computes the GF(2) rank on the hybrid engine.
func (m *Boundary) Rank() int {
	rank, _, err := m.reduceHybrid(&par.Ctl{}, nil)
	repanicReduce(err)
	return rank
}

// repanicReduce mirrors the legacy par entry points for ctx-less reduction
// callers: a recovered worker panic is re-raised on the caller's goroutine;
// any other cause on a private Ctl is impossible outside fault injection and
// is surfaced the same way rather than silently returning a partial rank.
func repanicReduce(err error) {
	if err == nil {
		return
	}
	var pe *par.PanicError
	if errors.As(err, &pe) {
		panic(pe)
	}
	panic(err)
}

// pollStride is how many sequential columns the apparent scan and the
// reconciliation fold process between cancellation polls.
const pollStride = 4096

// errReduceCancelled marks a reduction stopped without a recorded cause; the
// entry layer replaces it with the binding context's cause.
var errReduceCancelled = errors.New("homology: reduction cancelled")

// reduceCancelled resolves the error of a stopped reduction: the recorded
// cause if any, else the cause-less marker.
func reduceCancelled(ctl *par.Ctl) error {
	if cause := ctl.Cause(); cause != nil {
		return cause
	}
	return errReduceCancelled
}

// columnInto writes the sorted row indices of column j into dst (length
// stride). face is stride-1 scratch (unused on packed levels, whose face
// keys come from bit surgery). The closure property guarantees every face
// is present; a miss would mean the level table is inconsistent.
func (m *Boundary) columnInto(j int, dst, face []uint32) {
	if w := m.cols.width; w > 0 {
		// Face keys strictly decrease as the omitted position grows (the
		// first differing field holds a larger vertex), so filling dst back
		// to front yields ascending row indices with no sort.
		key := m.cols.keys[j]
		for omit := 0; omit < m.stride; omit++ {
			dst[m.stride-1-omit] = uint32(m.rows.indexKey(faceKey(key, w, omit)))
		}
		return
	}
	s := m.cols.simplex(j)
	for omit := 0; omit < m.stride; omit++ {
		copy(face, s[:omit])
		copy(face[omit:], s[omit+1:])
		dst[omit] = uint32(m.rows.index(face))
	}
	sortColumn(dst)
}

// lowRow returns the unreduced pivot row of column j — the index of the
// face omitting the leading vertex. That face is the lexicographically
// largest facet (removing an earlier vertex promotes a larger one into its
// place), so the pivot costs one binary search, not stride of them.
func (m *Boundary) lowRow(j int, face []uint32) uint32 {
	if w := m.cols.width; w > 0 {
		return uint32(m.rows.indexKey(m.cols.keys[j] << uint(w)))
	}
	copy(face, m.cols.simplex(j)[1:])
	return uint32(m.rows.index(face))
}

// sortColumn sorts a short row-index slice ascending (insertion sort: the
// column length is the simplex size, typically < 16).
func sortColumn(a []uint32) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// reduceHybrid runs the hybrid-column reduction. cleared[j], when non-nil,
// marks columns known to vanish (the clearing twist); they are skipped. It
// returns the rank and the pivot-row marks of the reduced matrix, which
// feed the next (lower) dimension's clearing.
//
// The pipeline composes three rank-preserving passes:
//
//  1. Apparent pairs: every live column's unreduced low is one face lookup
//     (lowRow), sharded across the pool. A sequential scan in column order
//     then pairs each row with the first column pivoting there. Columns
//     with pairwise-distinct unreduced lows are linearly independent, so
//     the paired columns are installed as pivots with zero reduction work —
//     they never enter the queue, and most never materialize (their faces
//     are recomputed only if a queued column reduces onto them).
//  2. Block phase: the surviving queue is split into contiguous blocks;
//     each block reduces locally (against the frozen apparent table plus a
//     private pivot table) in parallel.
//  3. Reconciliation: block survivors are folded sequentially in block
//     order into a global pivot table seeded with the apparent pairs.
//
// GF(2) rank is unique, so the result is independent of the block count,
// scheduling, and column representation — the same determinism contract as
// the sparse path.
//
// ctl carries the sweep's cancellation state (typically bound to a context
// by the caller): the parallel passes observe it at shard boundaries and
// every pollStride columns, the sequential scans poll it at the same stride,
// and a stopped sweep returns the recorded cause — or errReduceCancelled
// when the stop carried none — with all pooled reducers returned.
func (m *Boundary) reduceHybrid(ctl *par.Ctl, cleared []bool) (int, []bool, error) {
	if m.numCols == 0 || m.numRows == 0 {
		return 0, nil, nil
	}
	promote := promotionThreshold(m.numRows)

	lows := make([]uint32, m.numCols)
	shards := par.NumShards(int64(m.numCols))
	if err := par.ForEachShardNCtx(nil, int64(m.numCols), shards, ctl, func(_ int, from, to int64, c *par.Ctl) {
		face := make([]uint32, m.stride-1)
		for j := from; j < to; j++ {
			if j&(pollStride-1) == 0 && c.Stopped() {
				return
			}
			if cleared != nil && cleared[j] {
				continue
			}
			lows[j] = m.lowRow(int(j), face)
		}
	}); err != nil {
		return 0, nil, err
	}
	if ctl.Stopped() {
		return 0, nil, reduceCancelled(ctl)
	}

	appar := make([]int32, m.numRows)
	for i := range appar {
		appar[i] = -1
	}
	rank := 0
	var queue []int32
	for j := 0; j < m.numCols; j++ {
		if j&(pollStride-1) == 0 && ctl.Stopped() {
			return 0, nil, reduceCancelled(ctl)
		}
		if cleared != nil && cleared[j] {
			continue
		}
		if r := lows[j]; appar[r] < 0 {
			appar[r] = int32(j)
			rank++
		} else {
			queue = append(queue, int32(j))
		}
	}

	obsApparentPairs.Add(uint64(rank))
	obsColumnsReduced.Add(uint64(len(queue)))

	var reducers []*hybridReducer
	if len(queue) > 0 {
		blocks := par.NumShards(int64(len(queue)))
		reducers = make([]*hybridReducer, blocks)
		err := par.ForEachShardNCtx(nil, int64(len(queue)), blocks, ctl, func(shard int, from, to int64, c *par.Ctl) {
			r := getReducer(m, appar, promote)
			reducers[shard] = r
			// One backing arena per block, carved from the reducer's own
			// slab: retired slots get swap-recycled into the spare, which is
			// dropped before any slab rewinds, so the storage is never
			// scribbled over through a stale alias.
			arena := r.u32buf(int(to-from) * m.stride)
			for qi := from; qi < to; qi++ {
				if qi&(pollStride-1) == 0 && c.Stopped() {
					return
				}
				j := int(queue[qi])
				store := arena[:m.stride:m.stride]
				arena = arena[m.stride:]
				m.columnInto(j, store, r.face)
				r.add(column{sparse: store, low: int32(store[m.stride-1])})
			}
		})
		if err == nil && ctl.Stopped() {
			err = reduceCancelled(ctl)
		}
		if err != nil {
			for _, block := range reducers {
				if block != nil {
					putReducer(block)
				}
			}
			return 0, nil, err
		}
	}

	global := getReducer(m, appar, promote)
	polled := 0
	for _, block := range reducers {
		for i := range block.cols {
			if polled++; polled&(pollStride-1) == 0 && ctl.Stopped() {
				break
			}
			global.add(block.cols[i])
		}
	}
	if ctl.Stopped() {
		for _, block := range reducers {
			putReducer(block)
		}
		putReducer(global)
		return 0, nil, reduceCancelled(ctl)
	}
	rank += global.rank

	pivotRows := make([]bool, m.numRows)
	for row, aj := range appar {
		if aj >= 0 {
			pivotRows[row] = true
		}
	}
	for row, p := range global.pivot {
		if p >= 0 {
			pivotRows[row] = true
		}
	}
	for _, block := range reducers {
		putReducer(block)
	}
	putReducer(global)
	return rank, pivotRows, nil
}

// reduceSparse is the PR-3 pure-sparse reduction, kept bit-for-bit in
// spirit as the ReducedBettiSparse cross-check: merge-based column XOR, no
// apparent pass, no dense promotion. Phase 1 reduces contiguous column
// blocks locally in parallel; phase 2 folds the survivors sequentially in
// block order into the global pivot table. Rank over a field is unique, so
// the result matches reduceHybrid on every input.
func (m *Boundary) reduceSparse(ctl *par.Ctl, cleared []bool) (int, []bool, error) {
	if m.numCols == 0 || m.numRows == 0 {
		return 0, nil, nil
	}
	shards := par.NumShards(int64(m.numCols))
	locals := make([][][]uint32, shards)
	if err := par.ForEachShardNCtx(nil, int64(m.numCols), shards, ctl, func(shard int, from, to int64, c *par.Ctl) {
		r := newSparseReducer(m.numRows)
		// One backing arena for the block's unreduced columns; columns that
		// survive untouched keep pointing into it.
		arena := make([]uint32, int(to-from)*m.stride)
		face := make([]uint32, m.stride-1)
		for j := from; j < to; j++ {
			if j&(pollStride-1) == 0 && c.Stopped() {
				return
			}
			if cleared != nil && cleared[j] {
				continue
			}
			col := arena[:m.stride:m.stride]
			arena = arena[m.stride:]
			m.columnInto(int(j), col, face)
			r.add(col)
		}
		locals[shard] = r.cols
	}); err != nil {
		return 0, nil, err
	}
	if ctl.Stopped() {
		return 0, nil, reduceCancelled(ctl)
	}

	global := newSparseReducer(m.numRows)
	polled := 0
	for _, block := range locals {
		for _, col := range block {
			if polled++; polled&(pollStride-1) == 0 && ctl.Stopped() {
				return 0, nil, reduceCancelled(ctl)
			}
			global.add(col)
		}
	}
	pivotRows := make([]bool, m.numRows)
	for row, p := range global.pivot {
		if p >= 0 {
			pivotRows[row] = true
		}
	}
	return global.rank, pivotRows, nil
}

// sparseReducer is one pure-sparse pivot-table column reduction: pivot[r]
// indexes the stored reduced column whose largest row (its "low") is r, or
// -1.
type sparseReducer struct {
	pivot []int32
	cols  [][]uint32
	spare []uint32
	rank  int
}

func newSparseReducer(numRows int) *sparseReducer {
	pivot := make([]int32, numRows)
	for i := range pivot {
		pivot[i] = -1
	}
	return &sparseReducer{pivot: pivot}
}

// add reduces col (taking ownership of its storage) against the pivot table
// and installs it as a new pivot when it does not vanish, reporting whether
// the rank grew.
func (r *sparseReducer) add(col []uint32) bool {
	for len(col) > 0 {
		low := col[len(col)-1]
		p := r.pivot[low]
		if p < 0 {
			r.pivot[low] = int32(len(r.cols))
			r.cols = append(r.cols, col)
			r.rank++
			return true
		}
		col = r.symdiff(col, r.cols[p])
	}
	return false
}

// symdiff returns the GF(2) sum (symmetric difference) of the sorted columns
// a and b, writing into the spare buffer and recycling a's storage as the
// next spare — steady-state reduction allocates only when a column outgrows
// every previous one.
func (r *sparseReducer) symdiff(a, b []uint32) []uint32 {
	out := r.spare[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	r.spare = a[:0]
	return out
}
