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
// seed-search driver, to the closure selection core.LocalMinNodes over
// z(v) = Family.Eval(seed, colour key of v) scored by the full-scan
// removedEdgesMasked. It covers a dense phase (flat fold tables) and a
// sparse one (filled rows, stamped scan), both spanning several key blocks
// with a ragged seed group.
func TestSinkMatchesClosureReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		keep  func(v int) bool
		dense bool
	}{
		{"dense", gen.RandomRegular(1200, 4, 3), func(int) bool { return true }, true},
		{"sparse", gen.RandomRegular(5000, 6, 5), func(v int) bool { return v%6 == 0 }, false},
	} {
		cur, n := tc.g, tc.g.N()
		alive := make([]bool, n)
		for v := range alive {
			alive[v] = tc.keep(v)
		}
		fam := hashfam.New(4096, 2)
		keyOf := func(v graph.NodeID) uint64 { return uint64(v) % 3001 }
		var sel core.NodeSel
		sel.Init(n, alive, keyOf, fam.P()-1)
		if sel.Dense() != tc.dense {
			t.Fatalf("%s: Dense() = %v (live %d of %d)", tc.name, sel.Dense(), len(sel.Live()), n)
		}
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
			ih := core.LocalMinNodes(cur, alive, func(v graph.NodeID) uint64 { return fam.Eval(seed, keyOf(v)) })
			if want := int64(removedEdgesMasked(cur, ih, mask)); values[i] != want || want == 0 {
				t.Fatalf("%s: seed %d: sink value %d, full-scan reference %d", tc.name, i, values[i], want)
			}
		}
	}
}
