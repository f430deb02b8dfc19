package mis

import (
	"math/rand"
	"testing"

	"repro/internal/condexp"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/hashfam"
)

// TestSinkMatchesClosureReference pins the MIS objective's sink, fed
// through the seed-search driver on the round's compact Q' graph, to a
// plain reference on the original ids: the closure selection
// core.LocalMinNodes over z(v) = Family.Eval(seed, slot-0 key of v), scored
// by the round's N_v objective. It covers a fully live round and one whose
// candidates are every 8th node, both with candidate lists spanning several
// key blocks and a ragged seed group.
func TestSinkMatchesClosureReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		keep func(v int) bool
	}{
		{"full", gen.GNM(1200, 4000, 3), func(int) bool { return true }},
		{"sparse", gen.GNM(5000, 30000, 5), func(v int) bool { return v%8 == 0 }},
	} {
		g, n := tc.g, tc.g.N()
		inQ := make([]bool, n)
		rank := make([]graph.NodeID, n)
		var ids []graph.NodeID
		for v := range inQ {
			if inQ[v] = tc.keep(v); inQ[v] {
				rank[v] = graph.NodeID(len(ids))
				ids = append(ids, graph.NodeID(v))
			}
		}
		fam := core.PairwiseFamily(n)
		var sel core.NodeSel
		sel.Init(ids, func(v graph.NodeID) uint64 { return core.SlotKey(uint64(v), 0, n) }, fam.P()-1)
		// N_v tables: every third node owns up to four of its candidate
		// neighbours, by compact id.
		rd := misRound{q: g.InducedNodes(ids), deg: g.Degrees(), nvStart: []int{0}}
		for v := 0; v < n; v += 3 {
			lo := len(rd.nvFlat)
			for _, u := range g.Neighbors(graph.NodeID(v)) {
				if inQ[u] && len(rd.nvFlat)-lo < 4 {
					rd.nvFlat = append(rd.nvFlat, rank[u])
				}
			}
			if len(rd.nvFlat) > lo {
				rd.nvOwner = append(rd.nvOwner, graph.NodeID(v))
				rd.nvStart = append(rd.nvStart, len(rd.nvFlat))
			}
		}
		driver := condexp.NewBlockSearch(hashfam.NewEvaluator(fam), 2, func() condexp.Sink {
			return &misSink{NodeSink: core.NodeSink{Sel: &sel}, r: &rd, inIh: make([]bool, n)}
		})
		seeds := make([][]uint64, 11)
		for i := range seeds {
			seeds[i] = []uint64{rng.Uint64() % fam.P(), rng.Uint64() % fam.P()}
		}
		values := make([]int64, len(seeds))
		driver.Objective(sel.Keys())(seeds, values)
		mask := make([]bool, n)
		for i, seed := range seeds {
			ih := core.LocalMinNodes(g, inQ, func(v graph.NodeID) uint64 {
				return fam.Eval(seed, core.SlotKey(uint64(v), 0, n))
			})
			for j, v := range ih {
				ih[j] = rank[v]
			}
			if want := rd.score(mask, ih); values[i] != want || want == 0 {
				t.Fatalf("%s: seed %d: sink value %d, closure reference %d", tc.name, i, values[i], want)
			}
		}
	}
}
