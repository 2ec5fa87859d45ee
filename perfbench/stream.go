package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"ksettop/internal/cli"
	"ksettop/internal/core"
	"ksettop/internal/graph"
	"ksettop/internal/model"
	"ksettop/internal/serve"
)

// families are the named model families of the hot set, in Zipf rank order
// within each n: cheaper families first, as users ask about small models
// more often than large ones.
var families = []string{"clique", "simple-star", "simple-cycle", "star", "stars", "cycle", "nonsplit"}

// familySpec is the cli.ParseModel spec of family f at n processes.
func familySpec(f string, n int) string {
	if f == "stars" {
		return fmt.Sprintf("stars:n=%d,s=2", n)
	}
	return fmt.Sprintf("%s:n=%d", f, n)
}

// familyModels lists the family specs for n in [lo, hi], ordered by n, then
// family. nonsplit stops at n = 4: its constructor enumerates all 2^(n(n−1))
// graphs on every parse (0.8 s at n = 5) and Analyze at n = 5, r = 3
// exhausts memory.
func familyModels(lo, hi int) []string {
	var out []string
	for n := lo; n <= hi; n++ {
		for _, f := range families {
			if f == "nonsplit" && n > 4 {
				continue
			}
			out = append(out, familySpec(f, n))
		}
	}
	return out
}

// Stream shape (fractions of all requests).
const (
	boundsShare = 0.70 // /v1/bounds, rounds 1–3
	countShare  = 0.20 // /v1/count
	coldShare   = 0.30 // of bounds and count requests: a never-seen random model, n = 4..5
	zipfS       = 1.1  // hot-set skew
	// Small /v1/solve instances have at most 2^15 (assignment, closure
	// rank) pairs; small /v1/betti complexes at most 2^11 facet candidates
	// (values^n × closure ranks).
	maxSolvePairs  = 1 << 15
	maxBettiFacets = 1 << 11
)

// knownDefects are hot requests the timed stream leaves out. At rounds ≥ 2
// cycle:n=6 builds S² (12180 graphs, about 3.2 s cold) before core's
// |S^r| ≤ 5000 check refuses it, and the server answers 500. Each time the
// cold tail's churn evicts S² from the model cache the next such request
// rebuilds it, stalling a connection and a core for seconds, which made p99
// range from 55 ms to 2.5 s across seeds. The warm-up still sends these
// requests and checks the refusals, so the defect shows in setup_s.
var knownDefects = map[string]bool{
	"bounds|cycle:n=6|2": true,
	"bounds|cycle:n=6|3": true,
}

// A request is one entry of the bounds-service stream.
type request struct {
	Path string `json:"path"`
	Body string `json:"body"`
	Cold bool   `json:"cold,omitempty"`
	// Key identifies the answer: equal keys must get equal answers.
	Key string `json:"key"`
}

// hotSet is the fixed population the hot part of the stream draws from.
type hotSet struct {
	bounds []request // every hot model × rounds 1..3
	count  []request // hot models whose rank space fits the enumeration budget
	small  []request // small /v1/solve and /v1/betti instances, n ≤ 4
	// expect maps a solve key to the verdict the bound sandwich predicts.
	expect map[string]bool
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return string(b)
}

func boundsRequest(spec string, rounds int, cold bool) request {
	return request{Path: "/v1/bounds", Cold: cold, Key: "bounds|" + spec + "|" + strconv.Itoa(rounds),
		Body: mustJSON(serve.BoundsRequest{Model: spec, Rounds: rounds})}
}

func countRequest(spec string, cold bool) request {
	return request{Path: "/v1/count", Cold: cold, Key: "count|" + spec,
		Body: mustJSON(serve.CountRequest{Model: spec})}
}

// newHotSet builds the hot population: the family models at n = 3..6. The
// solve and betti instances follow the verify-batch classes (values = L+1,
// k = L must be unsolvable; values = U+1, k = U solvable), restricted to
// small sizes.
func newHotSet() (*hotSet, error) {
	h := &hotSet{expect: map[string]bool{}}
	for _, spec := range familyModels(3, 6) {
		for r := 1; r <= 3; r++ {
			h.bounds = append(h.bounds, boundsRequest(spec, r, false))
		}
		m, err := cli.ParseModel(spec)
		if err != nil {
			return nil, err
		}
		ranks, err := rankSpace(m)
		if err != nil {
			return nil, err
		}
		if ranks <= model.EnumerationBudget() { // no count request trips the budget
			h.count = append(h.count, countRequest(spec, false))
		}
		n := m.N()
		if n > 4 {
			continue
		}
		lo, err := core.BestLowerOneRound(m)
		if err != nil {
			return nil, err
		}
		up, err := core.BestUpperOneRound(m)
		if err != nil {
			return nil, err
		}
		for _, c := range []struct {
			values, k int
			solvable  bool
		}{{lo.K + 1, lo.K, false}, {up.K + 1, up.K, true}} {
			if c.k < 1 || pow(c.values, n)*ranks > maxSolvePairs {
				continue
			}
			req := serve.SolveRequest{Model: spec, Values: c.values, K: c.k}
			key := fmt.Sprintf("solve|%s|%d|%d", spec, c.values, c.k)
			h.small = append(h.small, request{Path: "/v1/solve", Key: key, Body: mustJSON(req)})
			h.expect[key] = c.solvable
		}
		for v := 1; v <= 3; v++ {
			if pow(v, n)*ranks > maxBettiFacets {
				continue
			}
			req := serve.BettiRequest{Model: spec, Values: v, MaxDim: n - 1}
			h.small = append(h.small, request{Path: "/v1/betti", Key: fmt.Sprintf("betti|%s|%d|%d", spec, v, n-1),
				Body: mustJSON(req)})
		}
	}
	return h, nil
}

// rankSpace is the size of m's closure rank space, or MaxInt64 when it is
// beyond the enumeration budget.
func rankSpace(m *model.ClosedAbove) (int64, error) {
	ranks, err := m.EnumerationSize()
	if errors.Is(err, model.ErrEnumerationBudget) {
		return math.MaxInt64, nil
	}
	return ranks, err
}

func pow(b, e int) int64 {
	p := int64(1)
	for i := 0; i < e; i++ {
		p *= int64(b)
	}
	return p
}

// streamGen draws the request stream from one seeded source.
type streamGen struct {
	rng                     *rand.Rand
	hot                     *hotSet
	zBounds, zCount, zSmall *rand.Zipf
	seen                    map[string]bool // cold specs already emitted
}

func newStreamGen(seed int64, hot *hotSet) *streamGen {
	rng := rand.New(rand.NewSource(seed))
	z := func(n int) *rand.Zipf { return rand.NewZipf(rng, zipfS, 1, uint64(n-1)) }
	// Bounds keys are drawn by model rank, rounds uniform, so the Zipf runs
	// over models rather than over (model, rounds) pairs.
	return &streamGen{rng: rng, hot: hot, zBounds: z(len(hot.bounds) / 3), zCount: z(len(hot.count)),
		zSmall: z(len(hot.small)), seen: map[string]bool{}}
}

func (g *streamGen) next() request {
	u := g.rng.Float64()
	switch {
	case u < boundsShare:
		rounds := 1 + g.rng.Intn(3)
		if g.rng.Float64() < coldShare {
			return boundsRequest(g.coldSpec(4+g.rng.Intn(2)), rounds, true)
		}
		r := g.hot.bounds[3*int(g.zBounds.Uint64())+rounds-1]
		if knownDefects[r.Key] {
			return g.next()
		}
		return r
	case u < boundsShare+countShare:
		// A cold model has at most 2·2^10 ranks, within the budget.
		if g.rng.Float64() < coldShare {
			return countRequest(g.coldSpec(4+g.rng.Intn(2)), true)
		}
		return g.hot.count[g.zCount.Uint64()]
	default:
		return g.hot.small[g.zSmall.Uint64()]
	}
}

// coldSpec draws a never-before-emitted random closed-above model: two
// randomGraph generators with half of the n(n−1) possible edges each,
// written as raw generators (not minimised, no model.New call), so the
// server pays for construction. Cold models stop at n = 5 and have a fixed
// edge count to keep their cost narrow: a random n = 6 model costs the
// server 5–80 ms to build and analyse, and those few requests alone set the
// open loop's p95 (10–21 ms across seeds, against 3–5 ms without them).
func (g *streamGen) coldSpec(n int) string {
	for {
		gens := make([]graph.Digraph, 2)
		for i := range gens {
			d, err := randomGraph(g.rng, n, n*(n-1)/2)
			if err != nil {
				panic(err) // n is 4..6, always valid
			}
			gens[i] = d
		}
		spec := gensSpec(gens)
		if !g.seen[spec] {
			g.seen[spec] = true
			return spec
		}
	}
}

// randomGraph returns an n-process graph with exactly edges off-diagonal
// edges at seeded positions. A fixed edge count fixes the size of the
// graph's up-set, so two draws cost about the same to check.
func randomGraph(rng *rand.Rand, n, edges int) (graph.Digraph, error) {
	adj := make([][]int, n)
	for _, e := range rng.Perm(n * (n - 1))[:edges] {
		u, v := e/(n-1), e%(n-1)
		if v >= u {
			v++
		}
		adj[u] = append(adj[u], v)
	}
	return graph.FromAdjacency(adj)
}

// randomModel builds a closed-above model from two randomGraph generators,
// closed under process permutation when sym is set, and returns its spec.
func randomModel(rng *rand.Rand, n, edges int, sym bool) (string, error) {
	gens := make([]graph.Digraph, 2)
	for i := range gens {
		g, err := randomGraph(rng, n, edges)
		if err != nil {
			return "", err
		}
		gens[i] = g
	}
	build := model.New
	if sym {
		build = model.NewSymmetric
	}
	m, err := build(gens)
	if err != nil {
		return "", err
	}
	return cli.FormatModel(m), nil
}

// gensSpec writes raw generators in the cli "gens:" syntax.
func gensSpec(gens []graph.Digraph) string {
	var sb strings.Builder
	sb.WriteString("gens:")
	for gi, d := range gens {
		if gi > 0 {
			sb.WriteByte('|')
		}
		for u := 0; u < d.N(); u++ {
			if u > 0 {
				sb.WriteByte(';')
			}
			sb.WriteString(strconv.Itoa(u))
			sb.WriteByte('>')
			first := true
			for v := 0; v < d.N(); v++ {
				if v != u && d.Out(u).Has(v) {
					if !first {
						sb.WriteByte(' ')
					}
					sb.WriteString(strconv.Itoa(v))
					first = false
				}
			}
		}
	}
	return sb.String()
}

// genStream returns the first n requests of the seed's stream.
func genStream(seed int64, hot *hotSet, n int) []request {
	g := newStreamGen(seed, hot)
	out := make([]request, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}
