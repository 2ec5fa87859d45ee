package experiments

import (
	"fmt"
	"math/rand"

	"ksettop/internal/graph"
	"ksettop/internal/model"
	"ksettop/internal/topology"
)

// E15RandomClosedAbove sweeps seeded random closed-above model families
// through the hybrid homology engine: for each row a deterministic RNG draws
// generator graphs, the (symmetric) closed-above model is built, and Thm
// 4.12 is machine-checked on its uninterpreted complex — C_A must be
// homologically (n−2)-connected for EVERY closed-above model, so random
// families probe the theorem where no worked example exists.
//
// The denser instances stay within the seed packed path's caps and
// cross-check the hybrid engine against the oracle; the sparser n = 6 rows
// push C_A past 2^8 vertices at 6-vertex facets, where only the unbounded
// engines have a fast path (cap column "sparse-only"). Every row also pins
// hybrid against the pure-sparse reduction on one shared level table.
func E15RandomClosedAbove() (*Table, error) {
	t := &Table{
		ID:      "E15",
		Title:   "Thm 4.12 on random closed-above models (hybrid homology engine)",
		Columns: []string{"n", "seed", "p", "sym", "gens", "facets", "verts", "cap", "β̃(C_A)", "Thm 4.12", "oracle", "hybrid=sparse"},
	}
	// Densities are tuned so facet counts stay in experiment range: C_A has
	// Π_p 2^(n−|In_G(p)|) facets per generator, so the larger n get denser
	// draws. The n ≥ 9 rows are the past-the-cap regime: their facets have
	// more vertices than any packing width fits (the seed fast path caps at
	// 8), so only the sparse engine has a fast path there.
	rows := []struct {
		n    int
		seed int64
		p    float64
		sym  bool
	}{
		{4, 1, 0.50, true},
		{4, 2, 0.30, false},
		{5, 3, 0.80, true},
		{5, 4, 0.40, false},
		{6, 5, 0.85, true},
		{6, 6, 0.80, false},
		{9, 7, 0.95, false},
		{10, 8, 0.97, false},
	}
	for _, row := range rows {
		rng := rand.New(rand.NewSource(row.seed))
		gens := make([]graph.Digraph, 2)
		for i := range gens {
			g, err := graph.Random(row.n, row.p, rng)
			if err != nil {
				return nil, err
			}
			gens[i] = g
		}
		var m *model.ClosedAbove
		var err error
		if row.sym {
			m, err = model.NewSymmetric(gens)
		} else {
			m, err = model.New(gens)
		}
		if err != nil {
			return nil, err
		}
		c, err := topology.UninterpretedComplex(m.Generators())
		if err != nil {
			return nil, err
		}
		ac, _, err := c.ToAbstract()
		if err != nil {
			return nil, err
		}
		maxDim := row.n - 2
		// The engines are addressed directly, so each cross-check column
		// below compares two independent reductions.
		betti, connected, enginesAgree, err := crossCheckedBetti(ac, maxDim)
		if err != nil {
			return nil, err
		}
		// Cross-check against the seed reduction only where its fast path
		// applies: past the cap the oracle would fall back to dense generic
		// columns, which is exactly the regime the sparse engine exists for
		// (the engines are still cross-checked there by the fuzz tests, on
		// instances sized for the dense path).
		cap_, agreeCell := "packed", "n/a"
		if !topology.PackedHomologyCapable(ac, maxDim) {
			cap_ = "sparse-only"
		} else {
			oracle, err := topology.ReducedBettiNumbersOracle(ac, maxDim)
			if err != nil {
				return nil, err
			}
			agree := len(oracle) == len(betti)
			for q := range betti {
				if agree && oracle[q] != betti[q] {
					agree = false
				}
			}
			agreeCell = check(agree)
		}
		t.AddRow(row.n, row.seed, fmt.Sprintf("%.2f", row.p), row.sym, m.GeneratorCount(),
			ac.FacetCount(), len(ac.VertexSet()), cap_,
			fmt.Sprint(betti), check(connected), agreeCell, check(enginesAgree))
	}
	t.AddNote("cap: whether the seed bit-packed path can represent the instance; sparse-only rows exceed its vertex×simplex-size budget.")
	t.AddNote("oracle: hybrid engine vs seed packed/generic reduction; hybrid=sparse: hybrid vs pure-sparse reduction on one shared level table.")
	return t, nil
}
