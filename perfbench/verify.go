package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"ksettop/internal/cli"
	"ksettop/internal/core"
	"ksettop/internal/obs"
	"ksettop/internal/par"
	"ksettop/internal/protocol"
	"ksettop/internal/topology"
)

// Batch size rules. They bound each instance by input size, never by how
// long it was seen to take.
const (
	// Solver instances: closure rank space ≤ 2^16 and at most 2^21
	// (assignment, rank) pairs.
	maxSolveRanks = 1 << 16
	maxSolveWork  = 1 << 21
	// Protocol complexes: n ≤ 4, values ≤ 3, at most 2^15 facet candidates
	// (values^n × closure ranks).
	maxProtocolWork = 1 << 15
	// Uninterpreted complexes C_A: n ≤ 5, closure rank space ≤ 2^15.
	maxCARanks = 1 << 15
)

// randomSlots are the E15-style random models of every batch (see
// randomModel): n, edges per generator, and whether the model is closed
// under permutation.
var randomSlots = []struct {
	n, edges int
	sym      bool
}{{4, 7, true}, {4, 6, false}, {4, 8, true}, {5, 13, true}, {5, 12, false}, {5, 14, true}}

// Instance classes of verify-batch.
const (
	classRefute  = "refute"  // values = L+1, k = L: must be unsolvable
	classWitness = "witness" // values = U+1, k = U: must be solvable
	classBetti   = "betti"   // reduced Betti numbers of a protocol complex or of C_A
)

// An instance is one check of the batch.
type instance struct {
	Class  string `json:"class"`
	Spec   string `json:"spec"`
	Values int    `json:"values,omitempty"`
	K      int    `json:"k,omitempty"`
	// CA selects the uninterpreted complex C_A instead of the protocol complex.
	CA     bool `json:"ca,omitempty"`
	MaxDim int  `json:"max_dim,omitempty"`
}

// genBatch builds the seed's batch: every instance the size rules admit over
// the family models at n = 3..5 and the randomSlots models, in a seeded
// order. The seed draws the random models' edges and the order; the slots
// fix their sizes, so batches of different seeds cost about the same.
func genBatch(seed int64) ([]instance, error) {
	rng := rand.New(rand.NewSource(seed))
	specs := familyModels(3, 5)
	for _, slot := range randomSlots {
		spec, err := randomModel(rng, slot.n, slot.edges, slot.sym)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	families := len(familyModels(3, 5))
	var batch []instance
	for i, spec := range specs {
		m, err := cli.ParseModel(spec)
		if err != nil {
			return nil, err
		}
		n := m.N()
		ranks, err := rankSpace(m)
		if err != nil {
			return nil, err
		}
		lo, err := core.BestLowerOneRound(m)
		if err != nil {
			return nil, err
		}
		up, err := core.BestUpperOneRound(m)
		if err != nil {
			return nil, err
		}
		if ranks <= maxSolveRanks {
			// Refutations come from the family models only: on random
			// models the one-round lower bound core reports (Thm 5.4 under
			// the effective γ_dist reading) can claim an impossibility the
			// solver refutes with a decision map. See README.md.
			if i < families && lo.K >= 1 && pow(lo.K+1, n)*ranks <= maxSolveWork {
				batch = append(batch, instance{Class: classRefute, Spec: spec, Values: lo.K + 1, K: lo.K})
			}
			if up.K >= 1 && pow(up.K+1, n)*ranks <= maxSolveWork {
				batch = append(batch, instance{Class: classWitness, Spec: spec, Values: up.K + 1, K: up.K})
			}
		}
		for v := 1; n <= 4 && v <= 3; v++ {
			if pow(v, n)*ranks <= maxProtocolWork {
				batch = append(batch, instance{Class: classBetti, Spec: spec, Values: v, MaxDim: n - 1})
			}
		}
		if ranks <= maxCARanks {
			batch = append(batch, instance{Class: classBetti, Spec: spec, CA: true, MaxDim: n - 2})
		}
	}
	rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	return batch, nil
}

// result is one instance's answer in one pass.
type result struct {
	solvable bool
	stats    protocol.SearchStats
	nodes    int
	betti    []int
	fvec     []int // simplex counts per dimension, filled in by check
	dur      time.Duration
}

// runInstance answers one instance, model construction included. Each layer
// call is an obs span: recorded in the program's span ring during a traced
// run, so spans the program starts inside the call become its children; nil
// and free otherwise.
func runInstance(ctx context.Context, in instance) (result, error) {
	var res result
	start := time.Now()
	_, sp := obs.StartSpan(ctx, "model.parse")
	m, err := cli.ParseModel(in.Spec)
	sp.End()
	if err != nil {
		return res, err
	}
	switch in.Class {
	case classRefute, classWitness:
		actx, sp := obs.StartSpan(ctx, "model.all_graphs")
		all, err := m.AllGraphsCtx(actx)
		sp.End()
		if err != nil {
			return res, err
		}
		sctx, sp := obs.StartSpan(ctx, "protocol.solve")
		r, err := protocol.SolveOneRoundCtx(sctx, all, in.Values, in.K, protocol.DefaultNodeBudget())
		sp.End()
		if err != nil {
			return res, err
		}
		res.solvable, res.stats, res.nodes = r.Solvable, r.Stats, r.Nodes
	case classBetti:
		_, sp := obs.StartSpan(ctx, "topology.complex")
		var ac *topology.AbstractComplex
		if in.CA {
			c, err := topology.UninterpretedComplex(m.Generators())
			sp.End()
			if err != nil {
				return res, err
			}
			_, sp = obs.StartSpan(ctx, "topology.abstract")
			ac, _, err = c.ToAbstract()
			sp.End()
			if err != nil {
				return res, err
			}
		} else {
			c, err := core.ProtocolComplexOneRound(m, in.Values)
			sp.End()
			if err != nil {
				return res, err
			}
			_, sp = obs.StartSpan(ctx, "topology.abstract")
			ac, _, err = c.ToAbstract()
			sp.End()
			if err != nil {
				return res, err
			}
		}
		hctx, sp := obs.StartSpan(ctx, "homology.betti")
		res.betti, err = topology.ReducedBettiNumbersCtx(hctx, ac, in.MaxDim)
		sp.End()
		if err != nil {
			return res, err
		}
	}
	res.dur = time.Since(start)
	return res, nil
}

// checkResult checks one answer: solver verdicts against the bound
// sandwich, C_A against Thm 4.12, protocol complexes against
// Euler–Poincaré.
func checkResult(in instance, r result) error {
	switch in.Class {
	case classRefute:
		if r.solvable {
			return fmt.Errorf("%d-set agreement with %d values solvable, but the lower bound says impossible", in.K, in.Values)
		}
	case classWitness:
		if !r.solvable {
			return fmt.Errorf("%d-set agreement with %d values unsolvable, but the upper bound says solvable", in.K, in.Values)
		}
	case classBetti:
		if len(r.betti) != in.MaxDim+1 {
			return fmt.Errorf("%d Betti numbers, want %d", len(r.betti), in.MaxDim+1)
		}
		if in.CA {
			for d, b := range r.betti {
				if b != 0 {
					return fmt.Errorf("C_A has β̃_%d = %d; Thm 4.12 says C_A is (n−2)-connected", d, b)
				}
			}
			return nil
		}
		return checkEulerCounts(r.fvec, r.betti)
	}
	return nil
}

// checkEulerCounts checks Euler–Poincaré: the reduced Euler characteristic
// from the simplex counts equals the alternating sum of the reduced Betti
// numbers (which must cover every dimension of the complex).
func checkEulerCounts(fvec, betti []int) error {
	if len(fvec) == 0 {
		return fmt.Errorf("no simplex counts")
	}
	if len(betti) < len(fvec) {
		return fmt.Errorf("Betti numbers stop at dimension %d, complex has dimension %d", len(betti)-1, len(fvec)-1)
	}
	chi, alt := -1, 0
	for d, f := range fvec {
		chi += sign(d) * f
	}
	for d, b := range betti {
		if b < 0 {
			return fmt.Errorf("β̃_%d = %d < 0", d, b)
		}
		alt += sign(d) * b
	}
	if chi != alt {
		return fmt.Errorf("Euler–Poincaré fails: χ̃ = %d from simplex counts %v, %d from Betti numbers %v", chi, fvec, alt, betti)
	}
	return nil
}

// checkEuler is checkEulerCounts on a complex.
func checkEuler(ac *topology.AbstractComplex, betti []int) error {
	var fvec []int
	for d := 0; d <= ac.Dimension(); d++ {
		fvec = append(fvec, ac.SimplexCount(d))
	}
	return checkEulerCounts(fvec, betti)
}

func sign(d int) int {
	if d%2 == 0 {
		return 1
	}
	return -1
}

// verifyBatch is the machine-check workload: passes over a seeded batch of
// solver refutations, witness searches and Betti computations.
type verifyBatch struct {
	batch []instance
	first []result // the first pass's answers, fvec included
}

// setup draws the batch and runs one untimed warm-up pass, whose answers
// are the reference every timed pass must reproduce.
func (v *verifyBatch) setup(seed int64) error {
	b, err := genBatch(seed)
	if err != nil {
		return err
	}
	v.batch = b
	for _, in := range v.batch {
		r, err := runInstance(context.Background(), in)
		if err != nil {
			return fmt.Errorf("%s %s: %w", in.Class, in.Spec, err)
		}
		v.first = append(v.first, r)
	}
	return nil
}

// check checks the reference answers: solver verdicts against the bound
// sandwich, C_A against Thm 4.12, protocol complexes against Euler–Poincaré
// on simplex counts of a freshly built complex. It returns the total
// simplex count of the protocol complexes.
func (v *verifyBatch) check(wrong *[]string) int {
	simplices := 0
	for i, in := range v.batch {
		r := v.first[i]
		if in.Class == classBetti && !in.CA {
			fvec, err := simplexCounts(in)
			if err != nil {
				*wrong = append(*wrong, fmt.Sprintf("%s %s: %v", in.Class, in.Spec, err))
				continue
			}
			r.fvec = fvec
			for _, f := range fvec {
				simplices += f
			}
		}
		if err := checkResult(in, r); err != nil {
			*wrong = append(*wrong, fmt.Sprintf("%s %s v=%d k=%d: %v", in.Class, in.Spec, in.Values, in.K, err))
		}
	}
	return simplices
}

// simplexCounts counts the simplices per dimension of an instance's
// protocol complex.
func simplexCounts(in instance) ([]int, error) {
	m, err := cli.ParseModel(in.Spec)
	if err != nil {
		return nil, err
	}
	pc, err := core.ProtocolComplexOneRound(m, in.Values)
	if err != nil {
		return nil, err
	}
	ac, _, err := pc.ToAbstract()
	if err != nil {
		return nil, err
	}
	var fvec []int
	for d := 0; d <= ac.Dimension(); d++ {
		fvec = append(fvec, ac.SimplexCount(d))
	}
	return fvec, nil
}

func (v *verifyBatch) close() {}

// passStats is one pass over the batch.
type passStats struct {
	class                 map[string]time.Duration
	durs                  []float64 // per-instance ms
	total                 time.Duration
	nodes, tasks, nogoods int
}

// pass runs the batch once; every answer must equal the reference answer.
func (v *verifyBatch) pass(wrong *[]string) (passStats, error) {
	ps := passStats{class: map[string]time.Duration{}}
	for i, in := range v.batch {
		r, err := runInstance(context.Background(), in)
		if err != nil {
			return ps, fmt.Errorf("%s %s: %w", in.Class, in.Spec, err)
		}
		ps.class[in.Class] += r.dur
		ps.total += r.dur
		ps.durs = append(ps.durs, ms(r.dur))
		ps.nodes += r.nodes
		ps.tasks += r.stats.Tasks
		ps.nogoods += r.stats.SharedNogoods + r.stats.TaskNogoods
		if f := v.first[i]; f.solvable != r.solvable || !slices.Equal(f.betti, r.betti) {
			*wrong = append(*wrong, fmt.Sprintf("%s %s: answer differs from the warm-up pass", in.Class, in.Spec))
		}
	}
	return ps, nil
}

// measure times whole passes: one pass is verify-batch's operation, as a
// user runs the whole batch. Per-instance times are too lumpy to report: the
// batch has a few dozen instances, and which of them sits at a percentile
// changes with the seed's random models.
func (v *verifyBatch) measure(d time.Duration) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	var passMs []float64
	var total time.Duration
	deadline := time.Now().Add(d)
	for len(passMs) == 0 || time.Now().Before(deadline) {
		ps, err := v.pass(&out.wrong)
		if err != nil {
			return nil, err
		}
		passMs = append(passMs, ms(ps.total))
		total += ps.total
		out.attempted += int64(len(ps.durs))
	}
	v.check(&out.wrong)
	out.metrics["ops_per_s"] = float64(len(passMs)) / total.Seconds()
	out.metrics["p50_ms"] = median(passMs)
	return out, nil
}

// layerTimes is one traced pass's time per layer, from span self times.
func layerTimes(spans []obs.SpanData) map[string]float64 {
	self := selfTimes(spans)
	sec := func(names ...string) float64 {
		var t time.Duration
		for _, n := range names {
			t += self[n]
		}
		return t.Seconds()
	}
	return map[string]float64{
		"model.all_graphs_s":  sec("model.all_graphs"),
		"solver.tables_s":     sec("solver.tables"),
		"solver.probe_s":      sec("solver.probe"),
		"solver.decompose_s":  sec("solver.decompose"),
		"solver.sweep_s":      sec("solver.sweep"),
		"topology.complex_s":  sec("topology.complex"),
		"topology.abstract_s": sec("topology.abstract"),
		"homology.reduce_s":   sec("homology.betti", "homology.reduce"),
	}
}

func (v *verifyBatch) traced(d time.Duration) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	var log spanLog
	var untraced, tracedTotal []float64
	layers := map[string]float64{} // summed over traced passes at full parallelism
	tracedPasses := 0
	var counters map[string]float64
	// Alternate untraced and traced passes at the default parallelism.
	deadline := time.Now().Add(d / 2)
	for len(untraced) == 0 || time.Now().Before(deadline) {
		ps, err := v.pass(&out.wrong)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, ps.total.Seconds())
		out.attempted += int64(len(ps.durs))

		delta := counterDelta(obs.DefaultRegistry())
		log.startTracing()
		ps, err = v.pass(&out.wrong)
		spans := log.stopTracing()
		if err != nil {
			return nil, err
		}
		c := delta()
		if counters == nil {
			counters = c
		}
		out.attempted += int64(len(ps.durs))
		tracedTotal = append(tracedTotal, ps.total.Seconds())
		tracedPasses++
		for k, t := range layerTimes(spans) {
			layers[k] += t
		}
		m["verify.refute_s"] += ps.class[classRefute].Seconds()
		m["verify.witness_s"] += ps.class[classWitness].Seconds()
		m["verify.betti_s"] += ps.class[classBetti].Seconds()
		m["solver.nodes"], m["solver.tasks"], m["solver.nogoods"] = float64(ps.nodes), float64(ps.tasks), float64(ps.nogoods)
	}
	perPass := func(x float64) float64 { return x / float64(tracedPasses) }
	for _, k := range []string{"verify.refute_s", "verify.witness_s", "verify.betti_s"} {
		m[k] = perPass(m[k])
	}
	for k, t := range layers {
		m[k] = perPass(t)
	}
	m["obs.trace_overhead_share"] = median(tracedTotal)/median(untraced) - 1
	m["op.p95_ms"] = 1000 * quantile(slices.Concat(untraced, tracedTotal), 0.95)
	m["homology.columns_reduced"] = counters["kset_homology_columns_reduced_total"]
	m["homology.apparent_pairs"] = counters["kset_homology_apparent_pairs_total"]
	m["par.shards"] = counters["kset_par_shards_total"]
	m["par.shard_wait_s"] = counters["kset_par_shard_wait_seconds_sum"]
	m["par.deque_tasks"] = counters["kset_par_deque_tasks_total"]
	m["homology.simplices"] = float64(v.check(&out.wrong))

	// The same layer calls at parallelism 1.
	par.SetParallelism(1)
	defer par.SetParallelism(0)
	seq := map[string]float64{}
	seqPasses := 0
	deadline = time.Now().Add(d / 2)
	for seqPasses == 0 || time.Now().Before(deadline) {
		log.startTracing()
		ps, err := v.pass(&out.wrong)
		spans := log.stopTracing()
		if err != nil {
			return nil, err
		}
		out.attempted += int64(len(ps.durs))
		seqPasses++
		for k, t := range layerTimes(spans) {
			seq[k] += t
		}
	}
	speedup := func(keys ...string) float64 {
		var one, full float64
		for _, k := range keys {
			one += seq[k] / float64(seqPasses)
			full += m[k]
		}
		return share(one, full)
	}
	m["par.speedup.solver_tables"] = speedup("solver.tables_s")
	m["par.speedup.topology"] = speedup("topology.complex_s", "topology.abstract_s")
	m["par.speedup.homology"] = speedup("homology.reduce_s")
	if log.dropped > 0 {
		return nil, fmt.Errorf("span ring overflowed (%v spans dropped)", log.dropped)
	}
	return out, nil
}
