// Package modeltest holds model fixtures shared by the tests of several
// packages. It imports only graph, so the model package's own tests can use
// it without an import cycle.
package modeltest

import (
	"slices"

	"ksettop/internal/graph"
)

// WordStraddlingN is the process count of WordStraddlingGenerators: 81 edge
// bits, two 64-bit words.
const WordStraddlingN = 9

// WordStraddlingGenerators returns three incomparable 9-process generators,
// each the complete graph minus a few edges around bit 64 (bit u·n+v = edge
// u→v). Their free edges straddle the word boundary, so a closure scan must
// carry from word 0 into word 1, and every element has edge positions on
// both sides of it.
func WordStraddlingGenerators() []graph.Digraph {
	const n = WordStraddlingN
	var gens []graph.Digraph
	for _, missing := range [][]int{
		{56, 57, 58, 59, 61, 62, 63, 64, 65, 66, 67},
		{59, 61, 62, 63, 64, 65, 66, 67, 68, 69, 71},
		{55, 58, 62, 63, 64, 66, 69},
	} {
		adj := make([][]int, n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && !slices.Contains(missing, u*n+v) {
					adj[u] = append(adj[u], v)
				}
			}
		}
		g, err := graph.FromAdjacency(adj)
		if err != nil {
			panic(err) // fixed, valid adjacency lists
		}
		gens = append(gens, g)
	}
	return gens
}
