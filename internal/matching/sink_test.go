package matching

import (
	"math/rand"
	"testing"

	"repro/internal/condexp"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/hashfam"
)

// TestSinkMatchesClosureReference pins the matching objective's sink, fed
// through the seed-search driver on the round's compact edge list, to a
// plain reference on the original ids: the closure selection
// core.LocalMinEdges over z(e) = Family.Eval(seed, slot-0 key of e), scored
// by summing d(v) over its matched B-nodes. The table covers an edge list
// touching most of the id space and one touching a small part of it, both
// spanning several key blocks with a ragged seed group.
func TestSinkMatchesClosureReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"full", gen.GNM(600, 1500, 3)},
		{"sparse", gen.GNM(5000, 1000, 5)},
	} {
		g, n := tc.g, tc.g.N()
		edges := g.Edges()
		fam := core.PairwiseFamily(n)
		var rd mmRound
		ids, cedges := compactEdges(g, edges, make([]graph.NodeID, n), nil, nil)
		core.EdgeSelInit(&rd.sel, len(ids), cedges, nil, fam.P()-1)
		rd.ids = ids
		rd.deg = g.Degrees()
		rd.b = make([]bool, n)
		for v := range rd.b {
			rd.b[v] = rng.Intn(2) == 0
		}
		keys := core.SlotKeysInto(nil, edges, 0, n)
		driver := condexp.NewBlockSearch(hashfam.NewEvaluator(fam), 2, func() condexp.Sink {
			return &mmSink{EdgeSink: core.EdgeSink{Sel: &rd.sel}, r: &rd}
		})
		seeds := make([][]uint64, 13)
		for i := range seeds {
			seeds[i] = []uint64{rng.Uint64() % fam.P(), rng.Uint64() % fam.P()}
		}
		values := make([]int64, len(seeds))
		driver.Objective(keys)(seeds, values)
		for i, seed := range seeds {
			eh := core.LocalMinEdges(g, edges, func(e graph.Edge) uint64 {
				return fam.Eval(seed, core.SlotKey(e.Key(n), 0, n))
			})
			var want int64
			for _, e := range eh {
				for _, v := range []graph.NodeID{e.U, e.V} {
					if rd.b[v] {
						want += int64(rd.deg[v])
					}
				}
			}
			if values[i] != want || want == 0 {
				t.Fatalf("%s: seed %d: sink value %d, closure reference %d", tc.name, i, values[i], want)
			}
		}
	}
}
