package topology

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ksettop/internal/homology"
)

func bettisOf(t *testing.T, n int, gens [][]int, maxDim int) []int {
	t.Helper()
	c := mustAbstract(t, n, gens)
	b, err := ReducedBettiNumbers(c, maxDim)
	if err != nil {
		t.Fatalf("ReducedBettiNumbers: %v", err)
	}
	return b
}

func TestBettiClassicSpaces(t *testing.T) {
	tests := []struct {
		name string
		n    int
		gens [][]int
		want []int
	}{
		{"point", 1, [][]int{{0}}, []int{0, 0}},
		{"two points", 2, [][]int{{0}, {1}}, []int{1, 0}},
		{"segment", 2, [][]int{{0, 1}}, []int{0, 0}},
		{"circle", 3, [][]int{{0, 1}, {1, 2}, {0, 2}}, []int{0, 1}},
		{"disk", 3, [][]int{{0, 1, 2}}, []int{0, 0}},
		{"two triangles sharing an edge", 4, [][]int{{0, 1, 2}, {1, 2, 3}}, []int{0, 0}},
		{"two triangles sharing a vertex", 5, [][]int{{0, 1, 2}, {2, 3, 4}}, []int{0, 0}},
		{"wedge of two circles", 5, [][]int{
			{0, 1}, {1, 2}, {0, 2},
			{2, 3}, {3, 4}, {2, 4},
		}, []int{0, 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := bettisOf(t, tt.n, tt.gens, len(tt.want)-1)
			for q := range tt.want {
				if got[q] != tt.want[q] {
					t.Errorf("β̃_%d = %d, want %d (all: %v)", q, got[q], tt.want[q], got)
				}
			}
		})
	}
}

func TestBettiSphere(t *testing.T) {
	got := bettisOf(t, 4, [][]int{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}}, 2)
	want := []int{0, 0, 1}
	for q := range want {
		if got[q] != want[q] {
			t.Errorf("S²: β̃_%d = %d, want %d", q, got[q], want[q])
		}
	}
}

func TestBettiThreeSphere(t *testing.T) {
	// ∂Δ⁴: all 3-faces of the 4-simplex. β̃_3 = 1, lower ones vanish.
	gens := [][]int{
		{0, 1, 2, 3}, {0, 1, 2, 4}, {0, 1, 3, 4}, {0, 2, 3, 4}, {1, 2, 3, 4},
	}
	got := bettisOf(t, 5, gens, 3)
	want := []int{0, 0, 0, 1}
	for q := range want {
		if got[q] != want[q] {
			t.Errorf("S³: β̃_%d = %d, want %d", q, got[q], want[q])
		}
	}
}

func TestBettiProjectivePlaneGF2(t *testing.T) {
	// Minimal 6-vertex triangulation of RP². Over GF(2): β̃_1 = β̃_2 = 1,
	// which distinguishes field-of-two homology from rational homology and
	// exercises the torsion-sensitive path.
	gens := [][]int{
		{0, 1, 4}, {0, 1, 5}, {0, 2, 3}, {0, 2, 5}, {0, 3, 4},
		{1, 2, 3}, {1, 2, 4}, {1, 3, 5}, {2, 4, 5}, {3, 4, 5},
	}
	c := mustAbstract(t, 6, gens)
	if chi := c.EulerCharacteristic(); chi != 1 {
		t.Fatalf("RP² should have χ = 1, got %d (bad triangulation?)", chi)
	}
	got := bettisOf(t, 6, gens, 2)
	want := []int{0, 1, 1}
	for q := range want {
		if got[q] != want[q] {
			t.Errorf("RP²: β̃_%d = %d, want %d", q, got[q], want[q])
		}
	}
}

func TestIsHomologicallyKConnected(t *testing.T) {
	circle := mustAbstract(t, 3, [][]int{{0, 1}, {1, 2}, {0, 2}})
	ok, _, err := IsHomologicallyKConnected(circle, 0)
	if err != nil || !ok {
		t.Errorf("circle is 0-connected (path connected): ok=%v err=%v", ok, err)
	}
	ok, betti, _ := IsHomologicallyKConnected(circle, 1)
	if ok {
		t.Errorf("circle is not 1-connected; betti=%v", betti)
	}

	empty := mustAbstract(t, 3, nil)
	if ok, _, _ := IsHomologicallyKConnected(empty, -1); ok {
		t.Errorf("empty complex is not (-1)-connected")
	}
	if ok, _, _ := IsHomologicallyKConnected(empty, -2); !ok {
		t.Errorf("every complex is (-2)-connected by convention")
	}
	if ok, _, _ := IsHomologicallyKConnected(empty, 0); ok {
		t.Errorf("empty complex is not 0-connected")
	}
	point := mustAbstract(t, 1, [][]int{{0}})
	if ok, _, _ := IsHomologicallyKConnected(point, -1); !ok {
		t.Errorf("nonempty complex is (-1)-connected")
	}
}

func TestReducedBettiErrors(t *testing.T) {
	empty := mustAbstract(t, 2, nil)
	if _, err := ReducedBettiNumbers(empty, 0); err == nil {
		t.Errorf("empty complex should be rejected")
	}
	pt := mustAbstract(t, 1, [][]int{{0}})
	if _, err := ReducedBettiNumbers(pt, -1); err == nil {
		t.Errorf("negative dimension should be rejected")
	}
}

func TestQuickEulerPoincare(t *testing.T) {
	// Over a field, χ = Σ (-1)^q dim H_q = 1 + Σ (-1)^q β̃_q for nonempty
	// complexes. This ties the rank computations to the simplex counts.
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(9))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var gens [][]int
		for i := 0; i < 5; i++ {
			size := 1 + r.Intn(4)
			s := make([]int, size)
			for j := range s {
				s[j] = r.Intn(7)
			}
			gens = append(gens, s)
		}
		c, err := NewAbstract(7, gens)
		if err != nil || c.IsEmpty() {
			return true
		}
		d := c.Dimension()
		betti, err := ReducedBettiNumbers(c, d)
		if err != nil {
			return false
		}
		alt := 1
		for q := 0; q <= d; q++ {
			if q%2 == 0 {
				alt += betti[q]
			} else {
				alt -= betti[q]
			}
		}
		return alt == c.EulerCharacteristic()
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("Euler–Poincaré check failed: %v", err)
	}
}

func TestQuickConeIsAcyclic(t *testing.T) {
	// Coning every facet to a fresh apex yields a contractible complex:
	// all reduced Betti numbers must vanish.
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(10))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		apex := 6
		var gens [][]int
		for i := 0; i < 4; i++ {
			size := 1 + r.Intn(3)
			s := map[int]bool{}
			for j := 0; j < size; j++ {
				s[r.Intn(6)] = true
			}
			gen := []int{apex}
			for v := range s {
				gen = append(gen, v)
			}
			gens = append(gens, gen)
		}
		c, err := NewAbstract(7, gens)
		if err != nil || c.IsEmpty() {
			return true
		}
		betti, err := ReducedBettiNumbers(c, c.Dimension())
		if err != nil {
			return false
		}
		for _, b := range betti {
			if b != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("cone acyclicity failed: %v", err)
	}
}

// genericBetti drives the oracle's generic [][]int machinery directly
// (ReducedBettiNumbersOracle would itself pick the packed path on small
// complexes).
func genericBetti(c *AbstractComplex, maxDim int) []int {
	simplexes := c.SimplexLevels(maxDim + 1)
	rank := make([]int, maxDim+2)
	rank[0] = 1
	for q := 1; q <= maxDim+1; q++ {
		rank[q] = boundaryRank(simplexes[q], simplexes[q-1])
	}
	betti := make([]int, maxDim+1)
	for q := 0; q <= maxDim; q++ {
		betti[q] = len(simplexes[q]) - rank[q] - rank[q+1]
	}
	return betti
}

// TestHybridSparsePackedGenericCrossCheck fuzzes deterministically-seeded
// random complexes on ≤ 6 vertices and requires the hybrid engine, the
// pure-sparse engine, the bit-packed fast path and the generic fallback to
// produce identical Betti vectors in every dimension — the implementations
// share no reduction code. The whole corpus runs twice: once at the stock
// sparse→dense promotion threshold (columns this small never promote) and
// once with the threshold forced to 2 entries, so reduced columns straddle
// the promotion boundary and the dense word-XOR, the dense-vs-sparse mixes
// and the sparse merges are all exercised on the same instances.
func TestHybridSparsePackedGenericCrossCheck(t *testing.T) {
	defer homology.SetPromotionThreshold(0)
	for _, promote := range []int{0, 2} {
		homology.SetPromotionThreshold(promote)
		rng := rand.New(rand.NewSource(20200613))
		for trial := 0; trial < 200; trial++ {
			numVerts := 2 + rng.Intn(5) // 2..6
			numGens := 1 + rng.Intn(6)
			var gens [][]int
			for i := 0; i < numGens; i++ {
				size := 1 + rng.Intn(numVerts)
				s := make([]int, size)
				for j := range s {
					s[j] = rng.Intn(numVerts)
				}
				gens = append(gens, s)
			}
			c, err := NewAbstract(numVerts, gens)
			if err != nil || c.IsEmpty() {
				continue
			}
			maxDim := c.Dimension()
			hybrid, err := homology.ReducedBetti(c, maxDim)
			if err != nil {
				t.Fatalf("promote=%d trial %d: hybrid: %v", promote, trial, err)
			}
			sparse, err := homology.ReducedBettiSparse(c, maxDim)
			if err != nil {
				t.Fatalf("promote=%d trial %d: sparse: %v", promote, trial, err)
			}
			packed, ok := reducedBettiPacked(c, maxDim)
			if !ok {
				t.Fatalf("trial %d: packed path rejected a %d-vertex complex", trial, numVerts)
			}
			generic := genericBetti(c, maxDim)
			for q := 0; q <= maxDim; q++ {
				if hybrid[q] != packed[q] || hybrid[q] != generic[q] || hybrid[q] != sparse[q] {
					t.Errorf("promote=%d trial %d (gens %v): dim %d: hybrid %d, sparse %d, packed %d, generic %d",
						promote, trial, gens, q, hybrid[q], sparse[q], packed[q], generic[q])
				}
			}
		}
	}
}

// bettiEngines runs every GF(2) reduction on c: the production hybrid
// engine through ReducedBettiNumbers, the pure-sparse reference through
// ChainComplex.ReducedBettiSparse and the seed packed reference through
// ReducedBettiNumbersOracle.
var bettiEngines = []struct {
	name  string
	betti func(c *AbstractComplex, maxDim int) ([]int, error)
}{
	{"hybrid", ReducedBettiNumbers},
	{"sparse", func(c *AbstractComplex, maxDim int) ([]int, error) {
		cc, err := homology.NewChainComplexFromLevels(c.SimplexLevels(maxDim + 1))
		if err != nil {
			return nil, err
		}
		return cc.ReducedBettiSparse(maxDim)
	}},
	{"packed", ReducedBettiNumbersOracle},
}

// TestEngineSwitch pins that the production engine and both references
// answer the circle's Betti numbers and agree.
func TestEngineSwitch(t *testing.T) {
	circle := mustAbstract(t, 3, [][]int{{0, 1}, {1, 2}, {0, 2}})
	want := []int{0, 1}
	for _, e := range bettiEngines {
		betti, err := e.betti(circle, 1)
		if err != nil {
			t.Fatal(err)
		}
		for q := range want {
			if betti[q] != want[q] {
				t.Errorf("engine %s: β̃_%d = %d, want %d", e.name, q, betti[q], want[q])
			}
		}
	}
}

// TestReducedBettiNumbersFromLevels pins the levels-accepting entry point
// against the facet-based one and both references: a caller holding
// SimplexLevels output must get identical Betti vectors without the engine
// re-walking the facets.
func TestReducedBettiNumbersFromLevels(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		gens   [][]int
		maxDim int
	}{
		{"circle", 3, [][]int{{0, 1}, {1, 2}, {0, 2}}, 1},
		{"RP²", 6, [][]int{
			{0, 1, 4}, {0, 1, 5}, {0, 2, 3}, {0, 2, 5}, {0, 3, 4},
			{1, 2, 3}, {1, 2, 4}, {1, 3, 5}, {2, 4, 5}, {3, 4, 5},
		}, 2},
	}
	for _, tc := range cases {
		c := mustAbstract(t, tc.n, tc.gens)
		levels := c.SimplexLevels(tc.maxDim + 1)
		got, err := ReducedBettiNumbersFromLevels(c, levels, tc.maxDim)
		if err != nil {
			t.Fatalf("%s: FromLevels: %v", tc.name, err)
		}
		for _, e := range bettiEngines {
			want, err := e.betti(c, tc.maxDim)
			if err != nil {
				t.Fatalf("%s engine %s: %v", tc.name, e.name, err)
			}
			for q := range want {
				if got[q] != want[q] {
					t.Errorf("%s engine %s: FromLevels β̃_%d = %d, want %d", tc.name, e.name, q, got[q], want[q])
				}
			}
		}
		// A level table that stops short of maxDim+1 must be rejected, not
		// silently treated as a smaller complex.
		if _, err := ReducedBettiNumbersFromLevels(c, c.SimplexLevels(tc.maxDim), tc.maxDim); err == nil {
			t.Errorf("%s: undersized level table should be rejected", tc.name)
		}
	}
}

// TestPackedHomologyCapable pins the cap the sparse engine removes.
func TestPackedHomologyCapable(t *testing.T) {
	small := mustAbstract(t, 4, [][]int{{0, 1, 2, 3}})
	if !PackedHomologyCapable(small, 2) {
		t.Error("4-vertex complex should be packable at maxDim 2")
	}
	var wide []int
	for v := 0; v < 10; v++ {
		wide = append(wide, v)
	}
	c := mustAbstract(t, 10, [][]int{wide})
	if PackedHomologyCapable(c, 8) {
		t.Error("10-vertex simplex at maxDim 8 needs 10-vertex levels; packed path should reject")
	}
}

// TestPackedAndGenericRanksAgree cross-checks the bit-packed fast path
// against the generic [][]int path on complexes both can handle, and pins
// the generic path on a complex too wide to pack (9-sphere boundary needs
// 10-vertex facets).
func TestPackedAndGenericRanksAgree(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		gens   [][]int
		maxDim int
	}{
		{"2-sphere", 4, [][]int{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}}, 2},
		{"two triangles sharing an edge", 4, [][]int{{0, 1, 2}, {1, 2, 3}}, 2},
		{"circle", 3, [][]int{{0, 1}, {1, 2}, {0, 2}}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := mustAbstract(t, tc.n, tc.gens)
			packed, ok := reducedBettiPacked(c, tc.maxDim)
			if !ok {
				t.Fatalf("packed path rejected a small complex")
			}
			// Drive the generic machinery directly (ReducedBettiNumbers
			// would itself pick the packed path on complexes this small).
			simplexes := make([][][]int, tc.maxDim+2)
			for q := 0; q <= tc.maxDim+1; q++ {
				simplexes[q] = c.Simplexes(q)
			}
			rank := make([]int, tc.maxDim+2)
			rank[0] = 1
			for q := 1; q <= tc.maxDim+1; q++ {
				rank[q] = boundaryRank(simplexes[q], simplexes[q-1])
			}
			generic := make([]int, tc.maxDim+1)
			for q := 0; q <= tc.maxDim; q++ {
				generic[q] = len(simplexes[q]) - rank[q] - rank[q+1]
			}
			for q := range packed {
				if packed[q] != generic[q] {
					t.Errorf("dim %d: packed %d != generic %d", q, packed[q], generic[q])
				}
			}
		})
	}

	// Boundary of the 9-simplex: packWidth(10, 10) = 0, so this exercises
	// the generic path; β̃_8 = 1 and everything below vanishes.
	var facets [][]int
	for omit := 0; omit < 10; omit++ {
		f := make([]int, 0, 9)
		for v := 0; v < 10; v++ {
			if v != omit {
				f = append(f, v)
			}
		}
		facets = append(facets, f)
	}
	c := mustAbstract(t, 10, facets)
	if w := packWidth(c.NumVertices(), 10); w != 0 {
		t.Fatalf("packWidth(10,10) = %d, want 0 (test must hit the generic path)", w)
	}
	betti, err := ReducedBettiNumbers(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 8; q++ {
		if betti[q] != 0 {
			t.Errorf("9-sphere boundary: β̃_%d = %d, want 0", q, betti[q])
		}
	}
	if betti[8] != 1 {
		t.Errorf("9-sphere boundary: β̃_8 = %d, want 1", betti[8])
	}
}
