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
// through the seed-search driver, to a plain reference on the same z row:
// the closure selection core.LocalMinEdges over z(e) = Family.Eval(seed,
// slot-0 key of e), scored by the round's value function. The table covers
// a round that folds into flat tables and a sparse round that fills rows,
// both with edge lists spanning several key blocks and a ragged seed group.
func TestSinkMatchesClosureReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		fold bool
	}{
		{"fold", gen.GNM(600, 1500, 3), true},
		{"sparse", gen.GNM(5000, 1000, 5), false},
	} {
		g, n := tc.g, tc.g.N()
		edges := g.Edges()
		fam := core.PairwiseFamily(n)
		var rd mmRound
		core.EdgeSelInit(&rd.sel, n, edges, nil, fam.P()-1)
		if rd.sel.Fold() != tc.fold {
			t.Fatalf("%s: Fold() = %v", tc.name, rd.sel.Fold())
		}
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
			if want := rd.value(eh); values[i] != want || want == 0 {
				t.Fatalf("%s: seed %d: sink value %d, closure reference %d", tc.name, i, values[i], want)
			}
		}
	}
}
