package topology

import (
	"fmt"
	"sort"
	"strings"
)

// Vertex is a colored vertex: a process (color) paired with its view
// (Def 4.1). The view type is generic so the same machinery serves
// uninterpreted complexes (views are process sets) and interpreted ones
// (views are process→value maps).
type Vertex[V comparable] struct {
	Color int
	View  V
}

// Simplex is a colored simplex: at most one vertex per color, stored sorted
// by color (Def 4.1).
type Simplex[V comparable] []Vertex[V]

// NewSimplex builds a colored simplex from vertices, validating color
// uniqueness and sorting by color.
func NewSimplex[V comparable](vertices ...Vertex[V]) (Simplex[V], error) {
	s := make(Simplex[V], len(vertices))
	copy(s, vertices)
	sort.Slice(s, func(i, j int) bool { return s[i].Color < s[j].Color })
	for i := 1; i < len(s); i++ {
		if s[i].Color == s[i-1].Color {
			return nil, fmt.Errorf("topology: duplicate color %d in simplex", s[i].Color)
		}
	}
	return s, nil
}

// Dimension returns |σ| − 1.
func (s Simplex[V]) Dimension() int { return len(s) - 1 }

// Colors returns the color set of the simplex (names(σ) in the paper).
func (s Simplex[V]) Colors() []int {
	out := make([]int, len(s))
	for i, v := range s {
		out[i] = v.Color
	}
	return out
}

// ViewOf returns the view of the given color, if present (view_σ(p)).
func (s Simplex[V]) ViewOf(color int) (V, bool) {
	for _, v := range s {
		if v.Color == color {
			return v.View, true
		}
	}
	var zero V
	return zero, false
}

// Key returns a canonical map key for the simplex.
func (s Simplex[V]) Key() string {
	var b strings.Builder
	for _, v := range s {
		fmt.Fprintf(&b, "%d:%v|", v.Color, v.View)
	}
	return b.String()
}

// IsFaceOf reports whether every vertex of s appears in t.
func (s Simplex[V]) IsFaceOf(t Simplex[V]) bool {
	for _, v := range s {
		view, ok := t.ViewOf(v.Color)
		if !ok || view != v.View {
			return false
		}
	}
	return true
}

// Intersect returns the simplex of vertices common to s and t.
func (s Simplex[V]) Intersect(t Simplex[V]) Simplex[V] {
	var out Simplex[V]
	for _, v := range s {
		if view, ok := t.ViewOf(v.Color); ok && view == v.View {
			out = append(out, v)
		}
	}
	return out
}

// Complex is a colored simplicial complex given by generating facets
// (Def 4.2). The zero value is not usable; construct with NewComplex.
//
// Vertices are interned: ids maps each distinct vertex to its index in
// verts, and facets are keyed by their vertex-id sequence, so adding facets
// and forgetting colors never format a facet's vertices. keys holds the
// "%d:%v" rendering of each interned vertex, formatted once when the vertex
// is interned, which fixes the canonical orders of Vertices and Facets. A
// vertex only enters the table as part of an added simplex, and a facet is
// only dropped for a larger one containing it, so the table always holds
// exactly the complex's vertices.
type Complex[V comparable] struct {
	ids            map[Vertex[V]]int32
	verts          []Vertex[V]
	keys           []string
	facets         map[string]Simplex[V]
	minDim, maxDim int
}

// NewComplex returns an empty colored complex.
func NewComplex[V comparable]() *Complex[V] {
	return &Complex[V]{
		ids:    make(map[Vertex[V]]int32),
		facets: make(map[string]Simplex[V]),
		minDim: -1,
		maxDim: -1,
	}
}

// appendIDKey interns the vertices of s and appends its vertex-id sequence
// to buf, four little-endian bytes per vertex in stored order. A vertex's
// key is formatted once, when it is first interned.
func (c *Complex[V]) appendIDKey(buf []byte, s Simplex[V]) []byte {
	for _, v := range s {
		id, ok := c.ids[v]
		if !ok {
			id = int32(len(c.verts))
			c.ids[v] = id
			c.verts = append(c.verts, v)
			c.keys = append(c.keys, fmt.Sprintf("%d:%v", v.Color, v.View))
		}
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return buf
}

// facetID returns the i-th vertex id of a facet key built by appendIDKey.
func facetID(key string, i int) int32 {
	j := 4 * i
	return int32(uint32(key[j]) | uint32(key[j+1])<<8 | uint32(key[j+2])<<16 | uint32(key[j+3])<<24)
}

// AddFacet inserts a generating simplex. Faces of existing facets are
// absorbed; existing facets that become faces of the new simplex are
// dropped, so Facets always returns maximal simplexes.
//
// When every facet added so far has the same dimension as s (the common case
// for the pure complexes this repository builds), domination is impossible
// and insertion is a plain map write; otherwise a full scan runs.
func (c *Complex[V]) AddFacet(s Simplex[V]) {
	if len(s) == 0 {
		return
	}
	var arr [32]byte // room for an 8-vertex key without a heap buffer
	key := c.appendIDKey(arr[:0], s)
	if _, ok := c.facets[string(key)]; ok {
		return
	}
	d := s.Dimension()
	if len(c.facets) == 0 || (d == c.minDim && d == c.maxDim) {
		c.facets[string(key)] = s
		if len(c.facets) == 1 {
			c.minDim, c.maxDim = d, d
		}
		return
	}
	for k, f := range c.facets {
		if s.IsFaceOf(f) {
			return
		}
		if f.IsFaceOf(s) {
			delete(c.facets, k)
		}
	}
	c.facets[string(key)] = s
	if d < c.minDim {
		c.minDim = d
	}
	if d > c.maxDim {
		c.maxDim = d
	}
}

// Facets returns the maximal simplexes in canonical Key order. Each key is
// assembled from the cached vertex keys, so it equals Key without
// formatting any vertex again.
func (c *Complex[V]) Facets() []Simplex[V] {
	type keyed struct {
		key string
		s   Simplex[V]
	}
	all := make([]keyed, 0, len(c.facets))
	var b strings.Builder
	for k, s := range c.facets {
		b.Reset()
		for i := 0; i < len(k)/4; i++ {
			b.WriteString(c.keys[facetID(k, i)])
			b.WriteByte('|')
		}
		all = append(all, keyed{b.String(), s})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].key < all[j].key })
	out := make([]Simplex[V], len(all))
	for i, f := range all {
		out[i] = f.s
	}
	return out
}

// FacetCount returns the number of maximal simplexes.
func (c *Complex[V]) FacetCount() int { return len(c.facets) }

// IsEmpty reports whether the complex has no simplexes.
func (c *Complex[V]) IsEmpty() bool { return len(c.facets) == 0 }

// Dimension returns the maximum facet dimension, or -1 when empty.
func (c *Complex[V]) Dimension() int {
	d := -1
	for _, f := range c.facets {
		if f.Dimension() > d {
			d = f.Dimension()
		}
	}
	return d
}

// IsPure reports whether all facets have the complex's dimension.
func (c *Complex[V]) IsPure() bool {
	d := c.Dimension()
	for _, f := range c.facets {
		if f.Dimension() != d {
			return false
		}
	}
	return true
}

// ContainsSimplex reports whether s is a face of some facet.
func (c *Complex[V]) ContainsSimplex(s Simplex[V]) bool {
	for _, f := range c.facets {
		if s.IsFaceOf(f) {
			return true
		}
	}
	return false
}

// Vertices returns the distinct vertices of the complex, sorted by their
// "%d:%v" keys (color first, then view rendering).
func (c *Complex[V]) Vertices() []Vertex[V] {
	order := c.vertexOrder()
	out := make([]Vertex[V], len(order))
	for i, id := range order {
		out[i] = c.verts[id]
	}
	return out
}

// vertexOrder returns the interned vertex ids sorted by vertex key.
func (c *Complex[V]) vertexOrder() []int32 {
	order := make([]int32, len(c.keys))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return c.keys[order[i]] < c.keys[order[j]] })
	return order
}

// Union merges the facets of other into c. The resulting maximal facets do
// not depend on insertion order, so other's facets are taken unsorted.
func (c *Complex[V]) Union(other *Complex[V]) {
	for _, f := range other.facets {
		c.AddFacet(f)
	}
}

// Intersection returns the complex of simplexes lying in both c and other.
// Its generating simplexes are the pairwise facet intersections.
func (c *Complex[V]) Intersection(other *Complex[V]) *Complex[V] {
	out := NewComplex[V]()
	for _, f := range c.facets {
		for _, g := range other.facets {
			if inter := f.Intersect(g); len(inter) > 0 {
				out.AddFacet(inter)
			}
		}
	}
	return out
}

// ToAbstract forgets colors: vertices are indexed in the order returned by
// Vertices, and facets become integer vertex lists. The vertex table is
// returned alongside so callers can map abstract vertices back.
func (c *Complex[V]) ToAbstract() (*AbstractComplex, []Vertex[V], error) {
	order := c.vertexOrder()
	verts := make([]Vertex[V], len(order))
	rank := make([]int, len(order))
	for i, id := range order {
		verts[i] = c.verts[id]
		rank[id] = i
	}
	gens := make([][]int, 0, len(c.facets))
	for k := range c.facets {
		gen := make([]int, len(k)/4)
		for i := range gen {
			gen[i] = rank[facetID(k, i)]
		}
		gens = append(gens, gen)
	}
	ac, err := NewAbstract(len(verts), gens)
	if err != nil {
		return nil, nil, err
	}
	return ac, verts, nil
}
