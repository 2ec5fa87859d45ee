package topology

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ksettop/internal/bits"
	"ksettop/internal/cli"
	"ksettop/internal/graph"
	"ksettop/internal/model"
)

// The string-keyed complex pipeline this package ran before vertices were
// interned: facets keyed by Simplex.Key, vertices indexed through their
// "%d:%v" renderings, and abstract generators deduplicated and ordered by
// simplexKey on every comparison. It is kept here as the oracle the
// interned implementation must match exactly.

// oracleComplex is a colored complex as a Key-indexed facet map.
type oracleComplex[V comparable] struct {
	m              map[string]Simplex[V]
	minDim, maxDim int
}

func newOracleComplex[V comparable]() *oracleComplex[V] {
	return &oracleComplex[V]{m: make(map[string]Simplex[V]), minDim: -1, maxDim: -1}
}

func (o *oracleComplex[V]) add(s Simplex[V]) {
	if len(s) == 0 {
		return
	}
	key := s.Key()
	if _, ok := o.m[key]; ok {
		return
	}
	d := s.Dimension()
	if len(o.m) == 0 || (d == o.minDim && d == o.maxDim) {
		o.m[key] = s
		if len(o.m) == 1 {
			o.minDim, o.maxDim = d, d
		}
		return
	}
	for k, f := range o.m {
		if s.IsFaceOf(f) {
			return
		}
		if f.IsFaceOf(s) {
			delete(o.m, k)
		}
	}
	o.m[key] = s
	if d < o.minDim {
		o.minDim = d
	}
	if d > o.maxDim {
		o.maxDim = d
	}
}

// facets returns the facets in Key order.
func (o *oracleComplex[V]) facets() []Simplex[V] {
	keys := make([]string, 0, len(o.m))
	for k := range o.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Simplex[V], len(keys))
	for i, k := range keys {
		out[i] = o.m[k]
	}
	return out
}

func (o *oracleComplex[V]) vertices() []Vertex[V] {
	seen := make(map[string]Vertex[V])
	for _, f := range o.m {
		for _, v := range f {
			seen[fmt.Sprintf("%d:%v", v.Color, v.View)] = v
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Vertex[V], len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out
}

func (o *oracleComplex[V]) toAbstract() (*AbstractComplex, []Vertex[V], error) {
	verts := o.vertices()
	index := make(map[string]int, len(verts))
	for i, v := range verts {
		index[fmt.Sprintf("%d:%v", v.Color, v.View)] = i
	}
	gens := make([][]int, 0, len(o.m))
	for _, f := range o.m {
		gen := make([]int, len(f))
		for i, v := range f {
			gen[i] = index[fmt.Sprintf("%d:%v", v.Color, v.View)]
		}
		gens = append(gens, gen)
	}
	ac, err := oracleNewAbstract(len(verts), gens)
	if err != nil {
		return nil, nil, err
	}
	return ac, verts, nil
}

func oracleNewAbstract(numVertices int, generators [][]int) (*AbstractComplex, error) {
	if numVertices < 0 {
		return nil, fmt.Errorf("topology: negative vertex count %d", numVertices)
	}
	norm := make([][]int, 0, len(generators))
	for _, gen := range generators {
		s := make([]int, 0, len(gen))
		seenV := make(map[int]bool, len(gen))
		for _, v := range gen {
			if v < 0 || v >= numVertices {
				return nil, fmt.Errorf("topology: vertex %d outside [0,%d)", v, numVertices)
			}
			if !seenV[v] {
				seenV[v] = true
				s = append(s, v)
			}
		}
		sort.Ints(s)
		if len(s) > 0 {
			norm = append(norm, s)
		}
	}
	return &AbstractComplex{numVertices: numVertices, facets: oracleMaximalSimplexes(norm)}, nil
}

func oracleMaximalSimplexes(simplexes [][]int) [][]int {
	seen := make(map[string]bool, len(simplexes))
	var uniq [][]int
	for _, s := range simplexes {
		key := oracleSimplexKey(s)
		if !seen[key] {
			seen[key] = true
			uniq = append(uniq, s)
		}
	}
	sort.Slice(uniq, func(i, j int) bool { return len(uniq[i]) > len(uniq[j]) })
	var out [][]int
	for _, s := range uniq {
		dominated := false
		for _, big := range out {
			if len(big) <= len(s) {
				break
			}
			if isSubset(s, big) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return oracleSimplexKey(out[i]) < oracleSimplexKey(out[j]) })
	return out
}

func oracleSimplexKey(s []int) string {
	var b strings.Builder
	for i, v := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// assertMatchesOracle checks that c and the oracle agree on the facet order,
// the vertex table and the abstract complex.
func assertMatchesOracle[V comparable](t *testing.T, name string, c *Complex[V], o *oracleComplex[V]) {
	t.Helper()
	if got, want := c.Facets(), o.facets(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Facets() differ from the oracle (%d vs %d facets)", name, len(got), len(want))
	}
	if got, want := c.Vertices(), o.vertices(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Vertices() differ from the oracle (%d vs %d vertices)", name, len(got), len(want))
	}
	ac, verts, err := c.ToAbstract()
	if err != nil {
		t.Fatalf("%s: ToAbstract: %v", name, err)
	}
	wantAC, wantVerts, err := o.toAbstract()
	if err != nil {
		t.Fatalf("%s: oracle ToAbstract: %v", name, err)
	}
	if !reflect.DeepEqual(verts, wantVerts) {
		t.Fatalf("%s: ToAbstract vertex table differs from the oracle", name)
	}
	if ac.NumVertices() != wantAC.NumVertices() || !reflect.DeepEqual(ac.Facets(), wantAC.Facets()) {
		t.Fatalf("%s: abstract facets differ from the oracle (%d vs %d)", name, ac.FacetCount(), wantAC.FacetCount())
	}
}

// oracleFamilySpecs lists the family models at n processes.
func oracleFamilySpecs(n int) []string {
	specs := []string{"clique", "simple-star", "simple-cycle", "star", "cycle", "nonsplit"}
	for i, f := range specs {
		specs[i] = fmt.Sprintf("%s:n=%d", f, n)
	}
	return append(specs, fmt.Sprintf("stars:n=%d,s=2", n))
}

func parseOracleModel(t *testing.T, spec string) (*model.ClosedAbove, int64) {
	t.Helper()
	m, err := cli.ParseModel(spec)
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	ranks, err := m.EnumerationSize()
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	return m, ranks
}

// TestProtocolComplexMatchesOracle replays the facet stream of
// ProtocolComplexOneRound into the oracle for the n = 3..4 families at 1..3
// values, keeping values^n × closure ranks ≤ 2^15.
func TestProtocolComplexMatchesOracle(t *testing.T) {
	for n := 3; n <= 4; n++ {
		for _, spec := range oracleFamilySpecs(n) {
			m, ranks := parseOracleModel(t, spec)
			for values := 1; values <= 3; values++ {
				inputs, err := InputAssignments(n, values)
				if err != nil {
					t.Fatal(err)
				}
				if int64(len(inputs))*ranks > 1<<15 {
					continue
				}
				name := fmt.Sprintf("%s values=%d", spec, values)
				c, err := ProtocolComplexOneRound(m.Generators(), inputs)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				o := newOracleComplex[IView]()
				for _, g := range m.Generators() {
					for _, tau := range inputs {
						ips, err := InterpretPseudosphere(UninterpretedPseudosphere(g), tau)
						if err != nil {
							t.Fatal(err)
						}
						ips.Facets(func(s Simplex[IView]) bool {
							o.add(s)
							return true
						})
					}
				}
				assertMatchesOracle(t, name, c, o)
			}
		}
	}
}

// oracleUninterpreted builds C_A of gens in the oracle.
func oracleUninterpreted(gens []graph.Digraph) *oracleComplex[bits.Set] {
	o := newOracleComplex[bits.Set]()
	for _, g := range gens {
		UninterpretedPseudosphere(g).Facets(func(s Simplex[bits.Set]) bool {
			o.add(s)
			return true
		})
	}
	return o
}

// TestUninterpretedComplexMatchesOracle covers C_A for the n ≤ 5 families
// (closure ranks ≤ 2^15) and seeded random closed-above models drawn the
// way E15 draws them.
func TestUninterpretedComplexMatchesOracle(t *testing.T) {
	var models []*model.ClosedAbove
	var names []string
	for n := 3; n <= 5; n++ {
		for _, spec := range oracleFamilySpecs(n) {
			if strings.HasPrefix(spec, "nonsplit") && n > 4 {
				continue // its constructor enumerates all 2^(n(n−1)) graphs
			}
			m, ranks := parseOracleModel(t, spec)
			if ranks > 1<<15 {
				continue
			}
			models, names = append(models, m), append(names, spec)
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
		if err != nil {
			t.Fatal(err)
		}
		models, names = append(models, m), append(names, fmt.Sprintf("random n=%d seed=%d", row.n, row.seed))
	}
	for i, m := range models {
		c, err := UninterpretedComplex(m.Generators())
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		assertMatchesOracle(t, names[i], c, oracleUninterpreted(m.Generators()))
	}
}

// oracleOf replays c's facets into a fresh oracle complex.
func oracleOf[V comparable](c *Complex[V]) *oracleComplex[V] {
	o := newOracleComplex[V]()
	for _, f := range c.Facets() {
		o.add(f)
	}
	return o
}

// TestNonPureComplexesMatchOracle drives the AddFacet domination path. For
// each C_A, a few of its facets get some of their vertices swapped for
// empty-view vertices that no facet of C_A has; intersecting C_A with those
// simplexes leaves faces of mixed dimension, and unions with the
// intersection absorb and drop facets.
func TestNonPureComplexesMatchOracle(t *testing.T) {
	nonPure := 0
	for i, spec := range []string{"simple-star:n=3", "cycle:n=3", "simple-cycle:n=4", "stars:n=4,s=2"} {
		m, _ := parseOracleModel(t, spec)
		a, err := UninterpretedComplex(m.Generators())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(i)))
		facets := a.Facets()
		b := NewComplex[bits.Set]()
		for j := 0; j < 6; j++ {
			g := slices.Clone(facets[rng.Intn(len(facets))])
			for _, c := range rng.Perm(len(g))[:1+rng.Intn(len(g)-1)] {
				g[c].View = bits.Set(0)
			}
			b.AddFacet(g)
		}
		oa, ob := oracleOf(a), oracleOf(b)

		inter := a.Intersection(b)
		oInter := newOracleComplex[bits.Set]()
		for _, f := range oa.m {
			for _, g := range ob.m {
				if s := f.Intersect(g); len(s) > 0 {
					oInter.add(s)
				}
			}
		}
		if !inter.IsPure() {
			nonPure++
		}
		assertMatchesOracle(t, spec+" a∩b", inter, oInter)

		// (a∩b) ∪ a ∪ (a∩b): a's facets absorb the intersection's, which
		// are then re-added on top of a.
		u := NewComplex[bits.Set]()
		u.Union(inter)
		u.Union(a)
		u.Union(inter)
		ou := newOracleComplex[bits.Set]()
		for _, f := range oInter.facets() {
			ou.add(f)
		}
		for _, f := range oa.facets() {
			ou.add(f)
		}
		assertMatchesOracle(t, spec+" (a∩b)∪a", u, ou)
	}
	if nonPure == 0 {
		t.Fatalf("no intersection was non-pure: the domination path went untested")
	}
}

// TestInterpretComplexMatchesOracle interprets C_A on every input facet and
// compares against the oracle fed a's facets in Key order.
func TestInterpretComplexMatchesOracle(t *testing.T) {
	for _, spec := range []string{"simple-star:n=3", "cycle:n=3", "stars:n=4,s=2"} {
		m, _ := parseOracleModel(t, spec)
		a, err := UninterpretedComplex(m.Generators())
		if err != nil {
			t.Fatal(err)
		}
		inputs, err := InputAssignments(m.N(), 2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := InterpretComplex(a, inputs)
		if err != nil {
			t.Fatal(err)
		}
		o := newOracleComplex[IView]()
		for _, tau := range inputs {
			for _, sigma := range oracleUninterpreted(m.Generators()).facets() {
				s, err := InterpretSimplex(sigma, tau)
				if err != nil {
					t.Fatal(err)
				}
				o.add(s)
			}
		}
		assertMatchesOracle(t, spec, got, o)
	}
}

// TestNewAbstractMatchesOracle checks normalizeSimplex and maximalSimplexes
// on random generator lists with repeats, faces, empty generators and
// multi-digit vertices (where simplexKey order is not numeric order).
func TestNewAbstractMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		numVertices := 1 + rng.Intn(30)
		gens := make([][]int, rng.Intn(40))
		for i := range gens {
			if i > 0 && rng.Intn(4) == 0 {
				prev := gens[rng.Intn(i)]
				gens[i] = slices.Clone(prev[:rng.Intn(len(prev)+1)])
				continue
			}
			gen := make([]int, rng.Intn(6))
			for j := range gen {
				gen[j] = rng.Intn(numVertices)
			}
			gens[i] = gen
		}
		got, err := NewAbstract(numVertices, gens)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleNewAbstract(numVertices, gens)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Facets(), want.Facets()) {
			t.Fatalf("trial %d: NewAbstract facets %v, oracle %v", trial, got.Facets(), want.Facets())
		}
		// shellingStepOK feeds maximalSimplexes raw intersections, empty
		// ones included.
		raw := append([][]int{{}, {}}, want.Facets()...)
		if g, w := maximalSimplexes(slices.Clone(raw)), oracleMaximalSimplexes(slices.Clone(raw)); !reflect.DeepEqual(g, w) {
			t.Fatalf("trial %d: maximalSimplexes %v, oracle %v", trial, g, w)
		}
	}
}
