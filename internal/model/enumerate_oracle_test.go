package model

import (
	"fmt"
	mathbits "math/bits"
	"math/rand"
	"slices"
	"testing"

	"ksettop/internal/bits"
	"ksettop/internal/graph"
	"ksettop/internal/model/modeltest"
)

// This file keeps the closure enumeration's reference kernel: the direct
// rank → mask unranking and the scan over every lower generator that
// RangeMasks' submask stepping and per-segment guards replace. The oracle
// tests require both kernels to yield the same (rank, mask) sequence.

// oracleRangeMasks is the reference RangeMasks: every rank is unranked from
// scratch (base ∪ one bit per set bit of the local rank, placed on the free
// edge slots in ascending order) and kept iff oracleOwnedBySegment.
func oracleRangeMasks(e *Enumeration, lo, hi int64, yield func(rank int64, mask bits.Words) bool) bool {
	if lo < 0 {
		lo = 0
	}
	if hi > e.Size() {
		hi = e.Size()
	}
	mask := bits.NewWords(e.n * e.n)
	for i := range e.bases {
		segLo, segHi := e.offsets[i], e.offsets[i+1]
		if hi <= segLo || lo >= segHi {
			continue
		}
		from, to := max(lo, segLo), min(hi, segHi)
		var free []int
		e.free[i].ForEachBit(func(p int) { free = append(free, p) })
		for r := from - segLo; r < to-segLo; r++ {
			mask.CopyFrom(e.bases[i])
			for t := uint64(r); t != 0; t &= t - 1 {
				mask.SetBit(free[mathbits.TrailingZeros64(t)])
			}
			if !oracleOwnedBySegment(e, i, mask) {
				continue
			}
			if !yield(segLo+r, mask) {
				return false
			}
		}
	}
	return true
}

// oracleOwnedBySegment reports whether segment i is the canonical owner of
// mask: no lower-indexed generator is contained in it.
func oracleOwnedBySegment(e *Enumeration, i int, mask bits.Words) bool {
	for j := 0; j < i; j++ {
		if mask.ContainsAll(e.bases[j]) {
			return false
		}
	}
	return true
}

// scanTrace flattens a kernel's yields over [lo, hi) into rank, mask words,
// rank, mask words, …
func scanTrace(e *Enumeration, lo, hi int64, kernel func(*Enumeration, int64, int64, func(int64, bits.Words) bool) bool) []uint64 {
	var out []uint64
	kernel(e, lo, hi, func(rank int64, mask bits.Words) bool {
		out = append(out, uint64(rank))
		out = append(out, mask...)
		return true
	})
	return out
}

func productionRangeMasks(e *Enumeration, lo, hi int64, yield func(int64, bits.Words) bool) bool {
	return e.RangeMasks(lo, hi, yield)
}

// oracleCuts returns interior cut points of e's rank space that split
// segments: one past the start, one before the end and an odd point inside
// the first, second, middle and last segments.
func oracleCuts(e *Enumeration) []int64 {
	segs := len(e.bases)
	cuts := []int64{0, e.Size()}
	for _, i := range []int{0, 1, segs / 2, segs - 1} {
		if i >= segs {
			continue
		}
		lo, hi := e.offsets[i], e.offsets[i+1]
		cuts = append(cuts, lo+1, hi-1, lo+(hi-lo)/3|1)
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	return slices.DeleteFunc(cuts, func(c int64) bool { return c < 0 || c > e.Size() })
}

// checkAgainstOracle requires RangeMasks and the reference kernel to yield
// the same (rank, mask) sequence over the full rank space and over windows
// between interior cuts.
func checkAgainstOracle(t *testing.T, name string, m *ClosedAbove) {
	t.Helper()
	e, err := m.Enumeration()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	cuts := oracleCuts(e)
	windows := [][2]int64{{0, e.Size()}}
	var empty [][2]int64
	for k := 0; k+1 < len(cuts); k++ {
		windows = append(windows, [2]int64{cuts[k], cuts[k+1]})
		if k+2 < len(cuts) {
			windows = append(windows, [2]int64{cuts[k], cuts[k+2]})
		}
		// Empty (lo == hi, mostly inside a live segment) and reversed
		// windows yield nothing.
		empty = append(empty, [2]int64{cuts[k], cuts[k]}, [2]int64{cuts[k+1], cuts[k]})
	}
	for _, w := range windows {
		got := scanTrace(e, w[0], w[1], productionRangeMasks)
		want := scanTrace(e, w[0], w[1], oracleRangeMasks)
		if !slices.Equal(got, want) {
			t.Fatalf("%s [%d, %d): RangeMasks yields %d words, oracle %d; sequences differ",
				name, w[0], w[1], len(got), len(want))
		}
	}
	for _, w := range empty {
		yielded := 0
		done := e.RangeMasks(w[0], w[1], func(int64, bits.Words) bool {
			yielded++
			return yielded < 2 // a broken kernel must not run on forever
		})
		if !done || yielded != 0 || len(scanTrace(e, w[0], w[1], oracleRangeMasks)) != 0 {
			t.Fatalf("%s [%d, %d): empty window yielded %d elements (done=%v)", name, w[0], w[1], yielded, done)
		}
	}
}

func oracleRandomGraph(rng *rand.Rand, n, edges int) graph.Digraph {
	adj := make([][]int, n)
	for _, e := range rng.Perm(n * (n - 1))[:edges] {
		u, v := e/(n-1), e%(n-1)
		if v >= u {
			v++
		}
		adj[u] = append(adj[u], v)
	}
	g, err := graph.FromAdjacency(adj)
	if err != nil {
		panic(err)
	}
	return g
}

// TestRangeMasksMatchesOracleFamilies covers the n = 3..5 model families.
func TestRangeMasksMatchesOracleFamilies(t *testing.T) {
	for n := 3; n <= 5; n++ {
		star, _ := graph.Star(n, 0)
		cyc, _ := graph.Cycle(n)
		clique, _ := graph.Complete(n)
		builds := map[string]func() (*ClosedAbove, error){
			"simple-star":  func() (*ClosedAbove, error) { return Simple(star) },
			"simple-cycle": func() (*ClosedAbove, error) { return Simple(cyc) },
			"clique":       func() (*ClosedAbove, error) { return Simple(clique) },
			"star":         func() (*ClosedAbove, error) { return NonEmptyKernelModel(n) },
			"stars-2":      func() (*ClosedAbove, error) { return UnionOfStarsModel(n, 2) },
			"cycle":        func() (*ClosedAbove, error) { return CycleModel(n) },
		}
		if n <= 4 {
			builds["nonsplit"] = func() (*ClosedAbove, error) { return NonSplitModel(n) }
		}
		for name, build := range builds {
			m, err := build()
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			checkAgainstOracle(t, fmt.Sprintf("%s n=%d", name, n), m)
		}
	}
}

// TestRangeMasksMatchesOracleRandom covers seeded random models from New and
// NewSymmetric: two generators each, n = 4 and 5, up to ~240 generators
// after the permutation closure. The dense ones (all but three edges) have
// segments of 8 ranks whose many small, overlapping differences exercise
// the guard antichain's evictions.
func TestRangeMasksMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for k := 0; k < 12; k++ {
		n := 4 + k%2
		edges := n * (n - 1) / 2
		if k >= 8 {
			edges = n*(n-1) - 3
		}
		gens := []graph.Digraph{oracleRandomGraph(rng, n, edges), oracleRandomGraph(rng, n, edges)}
		build, kind := New, "new"
		if k%4 >= 2 {
			build, kind = NewSymmetric, "symmetric"
		}
		m, err := build(gens)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, fmt.Sprintf("%s #%d n=%d (%d generators)", kind, k, n, m.GeneratorCount()), m)
	}
}

// TestRangeMasksMatchesOracleAcrossWords covers a 9-process model (81 edge
// bits, two words) whose free edges straddle bit 64, so the submask
// increment must carry from word 0 into word 1.
func TestRangeMasksMatchesOracleAcrossWords(t *testing.T) {
	m, err := New(modeltest.WordStraddlingGenerators())
	if err != nil {
		t.Fatal(err)
	}
	if m.GeneratorCount() != 3 {
		t.Fatalf("want 3 incomparable generators, got %d", m.GeneratorCount())
	}
	checkAgainstOracle(t, "n=9 word-straddling", m)
}

// TestRangeMasksSkipsDeadSegments covers generator lists that are not
// antichains (New prunes them, so the model is assembled directly): a
// repeated generator and a superset of a lower one leave segments whose
// guards include an empty difference. Those segments own no rank.
func TestRangeMasksSkipsDeadSegments(t *testing.T) {
	star, _ := graph.Star(4, 0)
	cyc, _ := graph.Cycle(4)
	super := star.Clone()
	if err := super.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	m := &ClosedAbove{n: 4, gens: []graph.Digraph{star, cyc, star, super}}
	e, err := m.Enumeration()
	if err != nil {
		t.Fatal(err)
	}
	var gs guardSet
	for i, wantLive := range []bool{true, true, false, false} {
		if live := gs.enter(e, i); live != wantLive {
			t.Fatalf("segment %d: live=%v, want %v", i, live, wantLive)
		}
	}
	checkAgainstOracle(t, "dead segments", m)
	// The dead segments' ranks yield nothing, from any cut inside them.
	if trace := scanTrace(e, e.offsets[2]+3, e.Size(), productionRangeMasks); len(trace) != 0 {
		t.Fatalf("dead segments yielded %d words", len(trace))
	}
	minimal, err := New(m.gens)
	if err != nil {
		t.Fatal(err)
	}
	want, err := minimal.GraphCount()
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	e.RangeMasks(0, e.Size(), func(int64, bits.Words) bool { got++; return true })
	if got != want {
		t.Fatalf("count with dead segments %d, pruned model %d", got, want)
	}
}

// TestRangeMasksEarlyStop: a false yield stops both kernels at the same
// element and both report an incomplete scan.
func TestRangeMasksEarlyStop(t *testing.T) {
	m, err := CycleModel(4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := m.Enumeration()
	if err != nil {
		t.Fatal(err)
	}
	stopAt := func(kernel func(*Enumeration, int64, int64, func(int64, bits.Words) bool) bool) (int64, bool) {
		var last int64
		seen := 0
		done := kernel(e, 5, e.Size(), func(rank int64, _ bits.Words) bool {
			last = rank
			seen++
			return seen < 100
		})
		return last, done
	}
	gotRank, gotDone := stopAt(productionRangeMasks)
	wantRank, wantDone := stopAt(oracleRangeMasks)
	if gotDone || wantDone || gotRank != wantRank {
		t.Fatalf("early stop: RangeMasks at %d (done=%v), oracle at %d (done=%v)", gotRank, gotDone, wantRank, wantDone)
	}
}
