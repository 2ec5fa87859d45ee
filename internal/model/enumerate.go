package model

import (
	"context"
	"fmt"
	mathbits "math/bits"
	"slices"
	"sync/atomic"

	"ksettop/internal/bits"
	"ksettop/internal/graph"
	"ksettop/internal/par"
	"ksettop/internal/runctx"
)

// DefaultEnumerationBudget bounds the closure rank space swept by
// EnumerateGraphs and the exhaustive checkers built on it, unless raised
// with SetEnumerationBudget.
const DefaultEnumerationBudget = 1 << 22

var enumBudget atomic.Int64

func init() { enumBudget.Store(DefaultEnumerationBudget) }

// EnumerationBudget returns the current closure-enumeration budget: the
// largest rank space (Σ_G 2^{missing edges of G} over the generators) a
// model may span before enumeration is rejected.
func EnumerationBudget() int64 { return enumBudget.Load() }

// SetEnumerationBudget changes the enumeration budget process-wide; v ≤ 0
// restores the default. The budget replaces the old hard-coded ≤ 8-process /
// 2^22-graph caps: any model whose rank space fits the budget is enumerable,
// regardless of process count.
func SetEnumerationBudget(v int64) {
	if v <= 0 {
		v = DefaultEnumerationBudget
	}
	enumBudget.Store(v)
}

// Enumeration is a streaming rank/unrank view of a model's closure
// ⋃_i ↑G_i over the edge-subset lattice.
//
// The rank space is the disjoint union of per-generator segments: generator
// i with f_i missing (non-loop, absent) edges owns ranks
// [offsets[i], offsets[i]+2^f_i), and rank r in that segment denotes the
// edge mask base_i ∪ spread(r − offsets[i]) where spread places the k-th bit
// of the local rank on the k-th lowest free edge slot. Each model element is
// YIELDED exactly once — by the lowest-indexed generator contained in it —
// so the union over any partition of [0, Size()) into rank ranges visits
// every closure element exactly once, with no shared seen-set. That makes
// the enumeration shardable: workers scan disjoint rank ranges and never
// coordinate.
//
// Edge masks are bits.Words (bit u·n+v = edge u→v), so the enumeration is
// not limited to the 8 processes a single machine word supports; the only
// limit is the configurable rank-space budget.
//
// RangeMasks never unranks a rank from scratch or tests a lower generator
// directly: it steps each segment by submask increment and decides
// ownership against guards computed once per segment (see RangeMasks).
type Enumeration struct {
	n       int
	bases   []bits.Words // per generator: non-loop edge mask
	free    []bits.Words // per generator: absent non-loop edge mask
	offsets []int64      // segment starts; offsets[len(bases)] = Size()
}

// Enumeration builds the streaming enumerator for the model's closure. It
// fails when the rank space Σ 2^(missing edges) exceeds the budget — the
// closure itself can never be larger than the rank space.
func (m *ClosedAbove) Enumeration() (*Enumeration, error) {
	budget := EnumerationBudget()
	e := &Enumeration{n: m.n, offsets: make([]int64, 1, len(m.gens)+1)}
	var total int64
	for _, g := range m.gens {
		base := edgeWords(g)
		free := freeEdges(m.n, base)
		f := free.OnesCount()
		if f > 62 {
			return nil, fmt.Errorf("model: generator with %d missing edges: segment ranks exceed int64, unenumerable at any budget", f)
		}
		if int64(1)<<uint(f) > budget-total {
			return nil, &EnumerationBudgetError{Budget: budget, Required: total + int64(1)<<uint(f)}
		}
		total += int64(1) << uint(f)
		e.bases = append(e.bases, base)
		e.free = append(e.free, free)
		e.offsets = append(e.offsets, total)
	}
	return e, nil
}

// Size returns the rank-space size Σ 2^(missing edges): an upper bound on
// the closure size, attained exactly when the model is simple.
func (e *Enumeration) Size() int64 { return e.offsets[len(e.offsets)-1] }

// N returns the number of processes.
func (e *Enumeration) N() int { return e.n }

// RangeMasks calls yield(rank, mask) on every closure element whose rank
// lies in [lo, hi) (nothing when lo ≥ hi), in ascending rank order, with the element as a non-loop
// edge mask (bit u·n+v). The mask buffer is reused between calls and is the
// scan's own state: yield must neither modify nor retain it (copy it to
// keep it). Enumeration stops early if yield returns false; RangeMasks
// reports whether it ran to completion. No allocation per element.
//
// Within segment i the scan steps sub = mask \ base_i, a submask of the
// free edges F_i, by the ascending submask increment
// sub ← ((sub | ¬F_i) + 1) & F_i, carried across the mask's words. The
// increment visits submasks in the order of their local ranks, so elements
// still come out in ascending rank order, at a few word operations per rank.
//
// Ownership is tested against guards computed once per segment entry:
// base_i ∪ sub contains a lower generator base_j exactly when
// sub ⊇ base_j \ base_i, so a rank is owned iff sub contains none of the
// minimal such differences (see guardSet.enter). A segment where some
// difference is empty (base_j ⊆ base_i) owns no rank and is skipped whole.
func (e *Enumeration) RangeMasks(lo, hi int64, yield func(rank int64, mask bits.Words) bool) bool {
	if lo < 0 {
		lo = 0
	}
	if hi > e.Size() {
		hi = e.Size()
	}
	if lo >= hi {
		// Empty or reversed window. The scan below yields before it
		// tests r against the segment end, so it needs from < to.
		return true
	}
	mask := bits.NewWords(e.n * e.n)
	nw := len(mask)
	var gs guardSet
	for i := range e.bases {
		segLo, segHi := e.offsets[i], e.offsets[i+1]
		if hi <= segLo || lo >= segHi {
			continue
		}
		if !gs.enter(e, i) {
			continue
		}
		from, to := max(lo, segLo), min(hi, segHi)
		base, free, guards := e.bases[i], e.free[i], gs.guards
		spreadRank(mask, base, free, uint64(from-segLo))
		for r := from; ; {
			owned := true
			for g := 0; g < len(guards); g += nw {
				contained := true
				for w := 0; w < nw; w++ {
					if guards[g+w]&^mask[w] != 0 {
						contained = false
						break
					}
				}
				if contained {
					owned = false
					break
				}
			}
			if owned && !yield(r, mask) {
				return false
			}
			if r++; r == to {
				break
			}
			// Submask increment: bits outside F_i are forced to 1 so the
			// +1 carries through them; base_i is restored after masking.
			carry := uint64(1)
			for w := 0; w < nw && carry != 0; w++ {
				var sum uint64
				sum, carry = mathbits.Add64(mask[w]|^free[w], carry, 0)
				mask[w] = sum&free[w] | base[w]
			}
		}
	}
	return true
}

// guardSet is the reusable per-scan state of RangeMasks' ownership tests.
type guardSet struct {
	guards []uint64 // kept guards, stride = words per mask, smallest first
	sizes  []int    // popcount of each kept guard
	diff   bits.Words
}

// enter computes segment i's ownership guards: the differences
// d_j = base_j \ base_i over j < i, minus every d_j that contains another
// one, smallest first, so the scan tests the guards most likely to disown a
// rank before the rest. The kept guards are an antichain of subsets of the
// segment's f free edges, maintained as the d_j arrive, so entering costs
// O(i · kept) word operations with kept ≤ C(f, ⌊f/2⌋), which stays small
// on small segments. It reports false when some d_j is empty —
// base_j ⊆ base_i, every rank of the segment contains a lower generator,
// and the segment owns nothing.
func (s *guardSet) enter(e *Enumeration, i int) bool {
	base := e.bases[i]
	nw := len(base)
	s.guards, s.sizes = s.guards[:0], s.sizes[:0]
	if len(s.diff) != nw {
		s.diff = make(bits.Words, nw)
	}
	d := s.diff
next:
	for j := 0; j < i; j++ {
		size := 0
		for w, b := range e.bases[j] {
			d[w] = b &^ base[w]
			size += mathbits.OnesCount64(d[w])
		}
		if size == 0 {
			return false
		}
		// A kept guard inside d makes d redundant. Otherwise d evicts the
		// kept guards containing it (all strictly larger) and is inserted
		// after the guards of its size or smaller.
		at := 0
		for k, sz := range s.sizes {
			if sz > size {
				break
			}
			if d.ContainsAll(s.guards[k*nw : (k+1)*nw]) {
				continue next
			}
			at = k + 1
		}
		kept := at
		for k := at; k < len(s.sizes); k++ {
			g := bits.Words(s.guards[k*nw : (k+1)*nw])
			if !g.ContainsAll(d) {
				copy(s.guards[kept*nw:], g)
				s.sizes[kept] = s.sizes[k]
				kept++
			}
		}
		s.guards = slices.Insert(s.guards[:kept*nw], at*nw, d...)
		s.sizes = slices.Insert(s.sizes[:kept], at, size)
	}
	return true
}

// spreadRank sets mask to base ∪ spread(r): the k-th bit of the local rank r
// placed on the k-th lowest bit of free.
func spreadRank(mask, base, free bits.Words, r uint64) {
	mask.CopyFrom(base)
	for w, f := range free {
		for ; f != 0 && r != 0; f &= f - 1 {
			if r&1 != 0 {
				mask[w] |= f & -f
			}
			r >>= 1
		}
	}
}

// RangeGraphs is RangeMasks materialized: yield receives each closure
// element in [lo, hi) as a freshly built graph.Digraph.
func (e *Enumeration) RangeGraphs(lo, hi int64, yield func(graph.Digraph) bool) (bool, error) {
	rows := make([]bits.Set, e.n)
	var buildErr error
	done := e.RangeMasks(lo, hi, func(_ int64, mask bits.Words) bool {
		e.maskRows(mask, rows)
		g, err := graph.FromRows(e.n, rows)
		if err != nil {
			buildErr = err
			return false
		}
		return yield(g)
	})
	return done, buildErr
}

// maskRows unpacks an edge mask into per-process adjacency rows (self-loops
// excluded; FromRows adds them).
func (e *Enumeration) maskRows(mask bits.Words, rows []bits.Set) {
	n := e.n
	for u := 0; u < n; u++ {
		rows[u] = 0
	}
	mask.ForEachBit(func(bit int) {
		rows[bit/n] = rows[bit/n].With(bit % n)
	})
}

// edgeWords packs the non-loop edges of g into a Words mask (bit u·n+v).
func edgeWords(g graph.Digraph) bits.Words {
	n := g.N()
	mask := bits.NewWords(n * n)
	for u := 0; u < n; u++ {
		g.Out(u).ForEach(func(v int) {
			if v != u {
				mask.SetBit(u*n + v)
			}
		})
	}
	return mask
}

// freeEdges returns the non-loop edge bits absent from base.
func freeEdges(n int, base bits.Words) bits.Words {
	free := bits.NewWords(n * n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && !base.Has(u*n+v) {
				free.SetBit(u*n + v)
			}
		}
	}
	return free
}

// EnumerateGraphs calls yield on every graph of the model exactly once (the
// union of the upward closures of the generators), in ascending enumeration
// rank, stopping early if yield returns false. Models whose rank space
// exceeds the enumeration budget are rejected.
func (m *ClosedAbove) EnumerateGraphs(yield func(graph.Digraph) bool) error {
	e, err := m.Enumeration()
	if err != nil {
		return err
	}
	_, err = e.RangeGraphs(0, e.Size(), yield)
	return err
}

// EnumerateRange calls yield on the closure elements with enumeration ranks
// in [lo, hi) — the shard API: the union of EnumerateRange over any
// partition of [0, EnumerationSize()) equals EnumerateGraphs, with each
// graph yielded exactly once by exactly one shard.
func (m *ClosedAbove) EnumerateRange(lo, hi int64, yield func(graph.Digraph) bool) error {
	e, err := m.Enumeration()
	if err != nil {
		return err
	}
	_, err = e.RangeGraphs(lo, hi, yield)
	return err
}

// enumPollMask: ctx-aware enumeration loops poll cancellation every
// enumPollMask+1 ranks — frequent enough that a cancelled sweep stops well
// within one shard, rare enough that the atomic load never shows up in
// profiles.
const enumPollMask = 1023

// EnumerateRangeCtx is EnumerateRange bound to a context: cancellation or
// deadline expiry stops the scan within ~1k ranks and returns the context's
// cause. A completed scan is identical to EnumerateRange.
func (m *ClosedAbove) EnumerateRangeCtx(ctx context.Context, lo, hi int64, yield func(graph.Digraph) bool) error {
	e, err := m.Enumeration()
	if err != nil {
		return err
	}
	if ctx == nil || ctx.Done() == nil {
		_, err = e.RangeGraphs(lo, hi, yield)
		return err
	}
	if ctx.Err() != nil {
		// Already expired: the async Bind watcher could lose the race
		// against a fast scan, so reject synchronously.
		return fmt.Errorf("model: enumeration aborted: %w", context.Cause(ctx))
	}
	ctl := &par.Ctl{}
	release := ctl.Bind(ctx)
	defer release()
	seen := int64(0)
	cancelled := false
	_, err = e.RangeGraphs(lo, hi, func(g graph.Digraph) bool {
		if seen&enumPollMask == 0 && ctl.Stopped() {
			cancelled = true
			return false
		}
		seen++
		return yield(g)
	})
	if err != nil {
		return err
	}
	if cancelled || ctl.Stopped() {
		return fmt.Errorf("model: enumeration aborted: %w", context.Cause(ctx))
	}
	return nil
}

// EnumerationSize returns the model's rank-space size (see Enumeration).
func (m *ClosedAbove) EnumerationSize() (int64, error) {
	e, err := m.Enumeration()
	if err != nil {
		return 0, err
	}
	return e.Size(), nil
}

// AllGraphs materializes the full closure, fanning the enumeration out
// across the par worker pool. Shard results are concatenated in shard order,
// so the slice is in ascending enumeration rank — identical to a sequential
// EnumerateGraphs collect, regardless of parallelism.
func (m *ClosedAbove) AllGraphs() ([]graph.Digraph, error) {
	return m.AllGraphsCtx(runctx.Base())
}

// AllGraphsCtx is AllGraphs bound to a context: cancellation stops every
// shard scanner within ~1k ranks (in-flight shards) or at the next shard
// boundary (queued shards) and returns the cause instead of a partial
// closure. Completed runs are byte-identical to AllGraphs at every
// parallelism.
func (m *ClosedAbove) AllGraphsCtx(ctx context.Context) ([]graph.Digraph, error) {
	e, err := m.Enumeration()
	if err != nil {
		return nil, err
	}
	total := e.Size()
	shards := par.NumShards(total)
	if shards <= 1 {
		var all []graph.Digraph
		if err := m.EnumerateRangeCtx(ctx, 0, total, func(g graph.Digraph) bool {
			all = append(all, g)
			return true
		}); err != nil {
			return nil, err
		}
		return all, nil
	}
	locals := make([][]graph.Digraph, shards)
	errs := make([]error, shards)
	ctl := &par.Ctl{}
	if err := par.ForEachShardNCtx(ctx, total, shards, ctl, func(shard int, from, to int64, c *par.Ctl) {
		var out []graph.Digraph
		seen := int64(0)
		_, errs[shard] = e.RangeGraphs(from, to, func(g graph.Digraph) bool {
			if seen&enumPollMask == 0 && c.Stopped() {
				return false
			}
			seen++
			out = append(out, g)
			return true
		})
		locals[shard] = out
	}); err != nil {
		return nil, fmt.Errorf("model: enumeration aborted: %w", err)
	}
	if ctl.Stopped() {
		return nil, fmt.Errorf("model: enumeration aborted: %w", context.Cause(ctx))
	}
	n := 0
	for shard, local := range locals {
		if errs[shard] != nil {
			return nil, errs[shard]
		}
		n += len(local)
	}
	all := make([]graph.Digraph, 0, n)
	for _, local := range locals {
		all = append(all, local...)
	}
	return all, nil
}

// GraphCount returns the number of graphs in the model (size of the union
// of the closures). The count runs on the mask-level fast path, sharded
// across the worker pool, and is memoized per generator set.
func (m *ClosedAbove) GraphCount() (int, error) {
	return m.GraphCountCtx(runctx.Base())
}

// GraphCountCtx is GraphCount bound to a context; a cancelled count returns
// the cause (and is not cached — a later uncancelled call recomputes).
// When a Distributor is installed (see SetDistributor) the count is offered
// to it first; a declined sweep falls back to the in-process pool, and the
// distributor's determinism contract keeps the cached value identical
// either way.
func (m *ClosedAbove) GraphCountCtx(ctx context.Context) (int, error) {
	v, err := countCache.Do(setKey("count", m.gens), func() (int, error) {
		if d := CurrentDistributor(); d != nil {
			if count, handled, err := d.CountClosure(ctx, m); handled {
				return int(count), err
			}
		}
		e, err := m.Enumeration()
		if err != nil {
			return 0, err
		}
		total := e.Size()
		shards := par.NumShards(total)
		ctl := &par.Ctl{}
		var count atomic.Int64
		if shards < 1 {
			shards = 1
		}
		if err := par.ForEachShardNCtx(ctx, total, shards, ctl, func(_ int, from, to int64, c *par.Ctl) {
			local := 0
			seen := int64(0)
			e.RangeMasks(from, to, func(int64, bits.Words) bool {
				if seen&enumPollMask == 0 && c.Stopped() {
					return false
				}
				seen++
				local++
				return true
			})
			count.Add(int64(local))
		}); err != nil {
			return 0, fmt.Errorf("model: enumeration aborted: %w", err)
		}
		if ctl.Stopped() {
			return 0, fmt.Errorf("model: enumeration aborted: %w", context.Cause(ctx))
		}
		return int(count.Load()), nil
	})
	return v, err
}

// GraphCountClosedForm returns |⋃_i ↑G_i| by inclusion–exclusion over the
// generator bases: Σ_{∅≠T⊆S} (−1)^{|T|+1} 2^{missing(⋃T)}. It needs no
// enumeration at all (and so no budget), which makes it the independent
// cross-check for the streaming engine; it is exponential in the number of
// generators instead, so |S| ≤ 22 and ≤ 40 missing edges per term.
func (m *ClosedAbove) GraphCountClosedForm() (int64, error) {
	k := len(m.gens)
	if k > 22 {
		return 0, fmt.Errorf("model: closed-form count supports ≤22 generators, got %d", k)
	}
	bases := make([]bits.Words, k)
	for i, g := range m.gens {
		bases[i] = edgeWords(g)
	}
	clique := m.n * (m.n - 1)
	union := bits.NewWords(m.n * m.n)
	var count int64
	for t := uint64(1); t < uint64(1)<<uint(k); t++ {
		union.Clear()
		for s := t; s != 0; s &= s - 1 {
			union.OrInto(bases[mathbits.TrailingZeros64(s)])
		}
		missing := clique - union.OnesCount()
		if missing > 40 {
			return 0, fmt.Errorf("model: closed-form term with %d missing edges overflows", missing)
		}
		term := int64(1) << uint(missing)
		if mathbits.OnesCount64(t)%2 == 1 {
			count += term
		} else {
			count -= term
		}
	}
	return count, nil
}
