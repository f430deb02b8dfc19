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
// through the seed-search driver, to a plain reference on the same z row:
// the closure selection core.LocalMinNodes over z(v) = Family.Eval(seed,
// slot-0 key of v), scored by the round's N_v objective. It covers a dense
// round (flat fold tables) and a sparse one (filled rows, stamped scan),
// both with candidate lists spanning several key blocks and a ragged seed
// group.
func TestSinkMatchesClosureReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		keep  func(v int) bool
		dense bool
	}{
		{"dense", gen.GNM(1200, 4000, 3), func(int) bool { return true }, true},
		{"sparse", gen.GNM(5000, 30000, 5), func(v int) bool { return v%8 == 0 }, false},
	} {
		q, n := tc.g, tc.g.N()
		inQ := make([]bool, n)
		for v := range inQ {
			inQ[v] = tc.keep(v)
		}
		fam := core.PairwiseFamily(n)
		var sel core.NodeSel
		sel.Init(n, inQ, func(v graph.NodeID) uint64 { return core.SlotKey(uint64(v), 0, n) }, fam.P()-1)
		if sel.Dense() != tc.dense {
			t.Fatalf("%s: Dense() = %v", tc.name, sel.Dense())
		}
		// N_v tables: every third node owns up to four of its candidate
		// neighbours.
		rd := misRound{q: q, deg: q.Degrees(), nvStart: []int{0}}
		for v := 0; v < n; v += 3 {
			lo := len(rd.nvFlat)
			for _, u := range q.Neighbors(graph.NodeID(v)) {
				if inQ[u] && len(rd.nvFlat)-lo < 4 {
					rd.nvFlat = append(rd.nvFlat, u)
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
			ih := core.LocalMinNodes(q, inQ, func(v graph.NodeID) uint64 {
				return fam.Eval(seed, core.SlotKey(uint64(v), 0, n))
			})
			if want := rd.score(mask, ih); values[i] != want || want == 0 {
				t.Fatalf("%s: seed %d: sink value %d, closure reference %d", tc.name, i, values[i], want)
			}
		}
	}
}
