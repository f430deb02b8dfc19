package lowdeg

import (
	"math/rand"
	"testing"

	"repro/internal/condexp"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/hashfam"
)

// removedEdgesMasked is the full-scan reference of the Section 5 objective:
// the number of edges of cur with an endpoint in ih ∪ N(ih), counted over
// all of cur through the caller's all-false mask (restored before return).
func removedEdgesMasked(cur *graph.Graph, ih []graph.NodeID, remove []bool) int {
	for _, v := range ih {
		remove[v] = true
		for _, u := range cur.Neighbors(v) {
			remove[u] = true
		}
	}
	count := 0
	for u := 0; u < cur.N(); u++ {
		for _, v := range cur.Neighbors(graph.NodeID(u)) {
			if graph.NodeID(u) < v && (remove[u] || remove[v]) {
				count++
			}
		}
	}
	for _, v := range ih {
		remove[v] = false
		for _, u := range cur.Neighbors(v) {
			remove[u] = false
		}
	}
	return count
}

// TestSinkMatchesClosureReference pins the lowdeg objective's sink — node
// selection plus the incident-count objective — fed through the
// seed-search driver on the phase graph (the live nodes' induced subgraph
// on compact ids), to the closure selection core.LocalMinNodes over
// z(v) = Family.Eval(seed, colour key of v) on the original graph, scored
// by the full-scan removedEdgesMasked. It covers a fully live phase and one
// with every 6th node live, both spanning several key blocks with a ragged
// seed group.
func TestSinkMatchesClosureReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		keep func(v int) bool
	}{
		{"full", gen.RandomRegular(1200, 4, 3), func(int) bool { return true }},
		{"sparse", gen.RandomRegular(5000, 6, 5), func(v int) bool { return v%6 == 0 }},
	} {
		g, n := tc.g, tc.g.N()
		alive := make([]bool, n)
		var ids []graph.NodeID
		for v := range alive {
			if alive[v] = tc.keep(v); alive[v] {
				ids = append(ids, graph.NodeID(v))
			}
		}
		// The same-id phase graph of the reference: dead nodes isolated.
		dead := make([]bool, n)
		for v := range dead {
			dead[v] = !alive[v]
		}
		full := g.WithoutNodes(dead)
		cur := g.InducedNodes(ids)
		fam := hashfam.New(4096, 2)
		keyOf := func(v graph.NodeID) uint64 { return uint64(v) % 3001 }
		var sel core.NodeSel
		sel.Init(ids, keyOf, fam.P()-1)
		driver := condexp.NewBlockSearch(hashfam.NewEvaluator(fam), 2, func() condexp.Sink {
			return &lowdegSink{NodeSink: core.NodeSink{Sel: &sel}, cur: &cur, mark: make([]uint32, n)}
		})
		seeds := make([][]uint64, 11)
		for i := range seeds {
			seeds[i] = []uint64{rng.Uint64() % fam.P(), rng.Uint64() % fam.P()}
		}
		values := make([]int64, len(seeds))
		driver.Objective(sel.Keys())(seeds, values)
		mask := make([]bool, n)
		for i, seed := range seeds {
			ih := core.LocalMinNodes(full, alive, func(v graph.NodeID) uint64 { return fam.Eval(seed, keyOf(v)) })
			if want := int64(removedEdgesMasked(full, ih, mask)); values[i] != want || want == 0 {
				t.Fatalf("%s: seed %d: sink value %d, full-scan reference %d", tc.name, i, values[i], want)
			}
		}
	}
}
