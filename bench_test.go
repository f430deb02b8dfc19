package repro

// The benchmark harness: one benchmark per reproduction table/figure (the
// experiment registry in internal/experiments). Each benchmark
// times the end-to-end computation behind its experiment at quick scale;
// `go run ./cmd/experiments` regenerates the actual tables.

import (
	"io"
	"testing"

	"repro/internal/cclique"
	"repro/internal/coloring"
	"repro/internal/condexp"
	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/hashfam"
	"repro/internal/lowdeg"
	"repro/internal/luby"
	"repro/internal/matching"
	"repro/internal/mis"
	"repro/internal/mpc"
	"repro/internal/simcost"
	"repro/internal/sparsify"
)

func quickCfg() experiments.Config { return experiments.Config{Quick: true, Seed: 1} }

// BenchmarkT1_MatchingRounds times the Theorem 7 pipeline (deterministic
// maximal matching with full MPC accounting) on the T1 workload.
func BenchmarkT1_MatchingRounds(b *testing.B) {
	g := gen.GNM(1<<12, 8<<12, 1)
	p := core.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model := simcost.New(g.N(), g.M(), p.Epsilon)
		matching.Deterministic(g, p, model)
	}
}

// BenchmarkT2_MISRounds times the Theorem 14 pipeline on the T2 workload.
func BenchmarkT2_MISRounds(b *testing.B) {
	g := gen.GNM(1<<12, 8<<12, 1)
	p := core.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model := simcost.New(g.N(), g.M(), p.Epsilon)
		mis.Deterministic(g, p, model)
	}
}

// BenchmarkT3_ProgressPerIteration times a single derandomized Luby
// iteration (sparsify + seed search + removal), the unit T3 audits.
func BenchmarkT3_ProgressPerIteration(b *testing.B) {
	g := gen.GNM(1<<12, 16<<12, 1)
	p := core.DefaultParams()
	p.MaxSeedsPerSearch = 1 << 12
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparsify.SparsifyEdges(g, p, nil)
	}
}

// BenchmarkT4_SparsifyInvariants times the node sparsification with its
// invariant audit (the T4b path).
func BenchmarkT4_SparsifyInvariants(b *testing.B) {
	g := gen.GNM(1<<11, 48<<11, 1)
	p := core.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparsify.SparsifyNodes(g, p, nil)
	}
}

// BenchmarkT5_LowDegreeStages times the Section 5 stage-compressed MIS on a
// bounded-degree workload.
func BenchmarkT5_LowDegreeStages(b *testing.B) {
	g := gen.RandomRegular(1<<12, 8, 1)
	p := core.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lowdeg.MIS(g, p, nil)
	}
}

// BenchmarkT5_Preprocess times the Section 5 preprocessing passes one by
// one on the engine-lowdeg shape — random 4-regular G, n = 4096 — and on
// its line graph L(G), the graph the matching path colours: squaring, the
// line-graph construction and the G² Linial colouring (squaring, rounds
// and distance-2 verification). Each reports ns per edge of its input.
func BenchmarkT5_Preprocess(b *testing.B) {
	g := gen.RandomRegular(1<<12, 4, 1)
	lg, _ := g.LineGraph()
	inputs := []struct {
		name string
		g    *graph.Graph
	}{{"G", g}, {"LG", lg}}
	perEdge := func(b *testing.B, h *graph.Graph) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*h.M()), "ns/edge")
	}
	for _, in := range inputs {
		b.Run("Square/"+in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in.g.Square()
			}
			perEdge(b, in.g)
		})
	}
	b.Run("LineGraph/G", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.LineGraph()
		}
		perEdge(b, g)
	})
	for _, in := range inputs {
		b.Run("LinialG2/"+in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				coloring.LinialG2(in.g, nil)
			}
			perEdge(b, in.g)
		})
	}
}

// BenchmarkT6_CongestedClique times the Corollary 2 CC MIS with both round
// accountings.
func BenchmarkT6_CongestedClique(b *testing.B) {
	g := gen.RandomRegular(1<<10, 8, 1)
	p := core.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cclique.DetMIS(g, p)
	}
}

// seedSearchSink is the matching objective's sink shape for the seed-search
// benchmark: the production edge selection, valued by its size.
type seedSearchSink struct{ core.EdgeSink }

func (k *seedSearchSink) Value(s int) int64 { return int64(len(k.Select(s))) }

// compactEStar returns the round-1 E* of the T7 graph the way the matching
// round selects on it: its edge list relabelled onto its endpoints (the
// subgraph induced on them, compact ids in id order), plus the global edge
// list whose slot keys the kernel hashes.
func compactEStar(g *graph.Graph) (global, compact []graph.Edge, k int) {
	estar := sparsify.SparsifyEdges(g, core.DefaultParams(), nil).EStar
	var ids []graph.NodeID
	for v := 0; v < estar.N(); v++ {
		if estar.Degree(graph.NodeID(v)) > 0 {
			ids = append(ids, graph.NodeID(v))
		}
	}
	return estar.Edges(), estar.InducedNodes(ids).Edges(), len(ids)
}

// BenchmarkT7_SeedSearch times the batched deterministic seed search in
// isolation: evaluating 64 candidate seeds of the matching-selection
// objective over a fixed edge set (one charged O(1)-round batch), exactly as
// the production searches do it — the slot-0 keys of the global edges and
// the selection plan over E* on compact ids are precomputed once per round
// (core.EdgeSel), and the batch runs through the one seed-search driver
// (condexp.BlockSearch: BlockSeeds-sized seed groups) on warm pooled
// core.EdgeSink row sinks, whose rows the kernel fills for LocalMinEdgesSel.
func BenchmarkT7_SeedSearch(b *testing.B) {
	g := gen.GNM(1<<12, 8<<12, 1)
	global, compact, k := compactEStar(g)
	fam := core.PairwiseFamily(g.N())
	// Seeds are materialized into a flat buffer per batch exactly as
	// condexp.SearchAtLeastBatch does it.
	const batch = 64
	seedLen := fam.SeedLen()
	seedBuf := make([]uint64, batch*seedLen)
	seeds := make([][]uint64, batch)
	enum := fam.Enumerate()
	for i := 0; i < batch && enum.Next(); i++ {
		s := seedBuf[i*seedLen : (i+1)*seedLen : (i+1)*seedLen]
		copy(s, enum.Seed())
		seeds[i] = s
	}
	keys := core.SlotKeysInto(make([]uint64, 0, len(global)), global, 0, g.N())
	var sel core.EdgeSel
	core.EdgeSelInit(&sel, k, compact, make([]uint64, 0, len(compact)), fam.P()-1)
	driver := condexp.NewBlockSearch(hashfam.NewEvaluator(fam), 1, func() condexp.Sink {
		return &seedSearchSink{core.EdgeSink{Sel: &sel}}
	})
	objective := driver.Objective(keys)
	values := make([]int64, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		objective(seeds, values)
	}
}

// BenchmarkT7_SelectionScan isolates the selection term of the seed search
// — the post-hash local-minimum scan: 64 LocalMinEdgesSel passes over the
// fixed compact E* and z vector on warm scratch. bench-compare tracks it
// alongside BenchmarkT7_SeedSearch so a regression in the scan is
// attributable separately from the hash kernel.
func BenchmarkT7_SelectionScan(b *testing.B) {
	g := gen.GNM(1<<12, 8<<12, 1)
	global, compact, k := compactEStar(g)
	fam := core.PairwiseFamily(g.N())
	evaluator := hashfam.NewEvaluator(fam)
	keys := core.SlotKeysInto(make([]uint64, 0, len(global)), global, 0, g.N())
	var sel core.EdgeSel
	core.EdgeSelInit(&sel, k, compact, make([]uint64, 0, len(compact)), fam.P()-1)
	z := make([]uint64, len(keys))
	e := fam.Enumerate()
	e.Next()
	evaluator.EvalKeys(e.Seed(), keys, z)
	var lm core.EdgeMinScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for count := 0; count < 64; count++ {
			core.LocalMinEdgesSel(&lm, &sel, z)
		}
	}
}

// BenchmarkEvalSeedsBlocked isolates the hash term of the seed search — the
// block-major kernel alone at the T7 shape (64 pairwise seeds over E*'s slot
// keys in condexp.BlockSeeds groups, scratch tile reused). bench-compare
// tracks it alongside BenchmarkT7_SelectionScan so the two halves of
// BenchmarkT7_SeedSearch are attributable separately.
func BenchmarkEvalSeedsBlocked(b *testing.B) {
	g := gen.GNM(1<<12, 8<<12, 1)
	p := core.DefaultParams()
	sp := sparsify.SparsifyEdges(g, p, nil)
	edges := sp.EStar.Edges()
	fam := core.PairwiseFamily(g.N())
	evaluator := hashfam.NewEvaluator(fam)
	keys := core.SlotKeysInto(make([]uint64, 0, len(edges)), edges, 0, g.N())
	const batch = 64
	seedLen := fam.SeedLen()
	seedBuf := make([]uint64, batch*seedLen)
	seeds := make([][]uint64, batch)
	enum := fam.Enumerate()
	for i := 0; i < batch && enum.Next(); i++ {
		s := seedBuf[i*seedLen : (i+1)*seedLen : (i+1)*seedLen]
		copy(s, enum.Seed())
		seeds[i] = s
	}
	var tile hashfam.Tile
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < batch; lo += condexp.BlockSeeds {
			hi := lo + condexp.BlockSeeds
			if hi > batch {
				hi = batch
			}
			rows := tile.Rows(hi-lo, len(keys))
			evaluator.EvalSeedsBlocked(seeds[lo:hi], keys, rows, &tile)
		}
	}
}

// BenchmarkEvalSeedsBlockedKWise is the k-wise rung of the kernel ladder:
// one condexp.BlockSeeds group of 4-wise (KWise) seeds over a T1-sized
// sparsify stage key vector — every edge of the T1 graph once per endpoint
// in stage slot 1, as the type-A groups of the first edge stage hash them —
// through the fold kernel the stage searches use (the fold callback is
// empty, so only the hash term is timed). Reports ns/key·seed, the unit the
// blocked pairwise rung and the perfbench trace share.
func BenchmarkEvalSeedsBlockedKWise(b *testing.B) {
	g := gen.GNM(1<<12, 8<<12, 1)
	p := core.DefaultParams()
	fam := core.KWiseFamily(g.N(), p.KWise)
	evaluator := hashfam.NewEvaluator(fam)
	keys := core.SlotKeysInto(nil, g.Edges(), 1, g.N())
	keys = append(keys, keys...)
	seeds := make([][]uint64, 0, condexp.BlockSeeds)
	for enum := fam.Enumerate(); len(seeds) < condexp.BlockSeeds && enum.Next(); {
		seeds = append(seeds, append([]uint64(nil), enum.Seed()...))
	}
	var tile hashfam.Tile
	fold := func(lo, hi int, z [][]uint64) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evaluator.EvalSeedsBlockedFold(seeds, keys, &tile, fold)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(seeds)*len(keys)), "ns/key·seed")
}

// selectNodes runs one full-vector node selection through the production
// row sink (core.NodeSink), the way the driver hands it a one-seed group.
func selectNodes(k *core.NodeSink, g *graph.Graph, z []uint64) []graph.NodeID {
	copy(k.Begin(1)[0], z)
	return k.Select(g, 0)
}

// nodeRound is a node selection round of the T7 workload: the live
// candidates keep(v) of the T7 graph, their slot-0 plan, the induced
// selection graph on compact ids, and one seed's z vector over it.
func nodeRound(keep func(v int) bool) (*core.NodeSel, *graph.Graph, []uint64) {
	g := gen.GNM(1<<12, 8<<12, 1)
	n := g.N()
	fam := core.PairwiseFamily(n)
	var ids []graph.NodeID
	for v := 0; v < n; v++ {
		if keep(v) {
			ids = append(ids, graph.NodeID(v))
		}
	}
	sel := new(core.NodeSel)
	sel.Init(ids, func(v graph.NodeID) uint64 { return core.SlotKey(uint64(v), 0, n) }, fam.P()-1)
	z := make([]uint64, len(sel.Keys()))
	e := fam.Enumerate()
	e.Next()
	hashfam.NewEvaluator(fam).EvalKeys(e.Seed(), sel.Keys(), z)
	return sel, g.InducedNodes(ids), z
}

// BenchmarkT7_NodeSelectionScan isolates the node-side selection term of the
// seed searches (the scan the MIS and lowdeg objectives run per candidate
// seed): 64 selections over a fully live round's fixed z vector on warm
// scratch, through the production core.NodeSink. bench-compare tracks it
// alongside BenchmarkT7_SelectionScan so the node and edge scans are
// attributable separately.
func BenchmarkT7_NodeSelectionScan(b *testing.B) {
	sel, q, z := nodeRound(func(int) bool { return true })
	k := core.NodeSink{Sel: sel}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for count := 0; count < 64; count++ {
			selectNodes(&k, q, z)
		}
	}
}

// BenchmarkLocalMinNodesSel times one LocalMinNodesSel pass on a shrunken
// round of the T7 workload: every 8th node live, selected on the subgraph
// induced on them, relabelled onto compact ids as the round loops build it.
func BenchmarkLocalMinNodesSel(b *testing.B) {
	sel, q, z := nodeRound(func(v int) bool { return v%8 == 0 })
	var dst []graph.NodeID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = core.LocalMinNodesSel(dst, q, sel, z)
	}
}

// BenchmarkT8_Lemma4Primitives times the message-level sample sort plus
// prefix sums at the T8 grid's middle point.
func BenchmarkT8_Lemma4Primitives(b *testing.B) {
	r := detrand.New(1)
	data := make([]uint64, 1<<14)
	for i := range data {
		data[i] = r.Uint64() % 1_000_000
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := mpc.NewCluster(mpc.Config{Machines: 32, Space: 1 << 11})
		if err := c.LoadBalanced(data); err != nil {
			b.Fatal(err)
		}
		if err := mpc.Sort(c); err != nil {
			b.Fatal(err)
		}
		if _, err := mpc.PrefixSum(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT9_SpaceAblation times the edge sparsification plus the 2-hop
// ball measurement that the ablation compares.
func BenchmarkT9_SpaceAblation(b *testing.B) {
	g := gen.GNM(1<<11, 24<<11, 1)
	p := core.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		er := sparsify.SparsifyEdges(g, p, nil)
		_ = er.EStar.BallSizeMax(2)
	}
}

// BenchmarkF1_EdgeDecay times one deterministic and one randomized full run
// (the two curves of F1).
func BenchmarkF1_EdgeDecay(b *testing.B) {
	g := gen.GNM(1<<11, 8<<11, 1)
	p := core.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mis.Deterministic(g, p, nil)
		luby.MIS(g, detrand.New(1))
	}
}

// BenchmarkF2_RoundScaling times the full F2 figure generation at quick
// scale (the n-sweep and Δ-sweep).
func BenchmarkF2_RoundScaling(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run("F2", quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations_SlackSweep times the A4 ablation's unit: one edge
// sparsification under the strictest (slack = 1) goodness predicates,
// which exercises the deep-scan path of the seed search.
func BenchmarkAblations_SlackSweep(b *testing.B) {
	g := gen.GNM(1<<11, 24<<11, 1)
	p := core.DefaultParams()
	p.Slack = 1
	p.MaxSeedsPerSearch = 512
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparsify.SparsifyEdges(g, p, nil)
	}
}

// The *Serial / *Parallel benchmark pairs below time identical computations
// with the shared execution pool (internal/parallel) pinned to one worker vs
// one worker per logical CPU. Outputs are bit-identical by the determinism
// contract, so any delta is pure wall-clock speedup; CI's benchmark smoke
// job records both sides as a JSON artifact (cmd/benchjson).

// BenchmarkMatchingDeterministicSerial times the Theorem 7 pipeline with the
// pool pinned to a single worker.
func BenchmarkMatchingDeterministicSerial(b *testing.B) {
	benchMatchingDeterministic(b, 1)
}

// BenchmarkMatchingDeterministicParallel is the same pipeline with one
// worker per logical CPU (Parallelism = 0, auto).
func BenchmarkMatchingDeterministicParallel(b *testing.B) {
	benchMatchingDeterministic(b, 0)
}

func benchMatchingDeterministic(b *testing.B, parallelism int) {
	g := gen.GNM(1<<12, 8<<12, 1)
	p := core.DefaultParams()
	p.Parallelism = parallelism
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matching.Deterministic(g, p, nil)
	}
}

// BenchmarkMISDeterministicSerial times the Theorem 14 pipeline with the
// pool pinned to a single worker.
func BenchmarkMISDeterministicSerial(b *testing.B) { benchMISDeterministic(b, 1) }

// BenchmarkMISDeterministicParallel is the same pipeline at GOMAXPROCS
// workers.
func BenchmarkMISDeterministicParallel(b *testing.B) { benchMISDeterministic(b, 0) }

func benchMISDeterministic(b *testing.B, parallelism int) {
	g := gen.GNM(1<<12, 8<<12, 1)
	p := core.DefaultParams()
	p.Parallelism = parallelism
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mis.Deterministic(g, p, nil)
	}
}

// BenchmarkSparsifySeedSearchSerial times the Section 3.2 edge
// sparsification — dominated by the condexp seed search — on one worker.
func BenchmarkSparsifySeedSearchSerial(b *testing.B) { benchSparsifySeedSearch(b, 1) }

// BenchmarkSparsifySeedSearchParallel is the same search with candidate
// seeds evaluated across the pool.
func BenchmarkSparsifySeedSearchParallel(b *testing.B) { benchSparsifySeedSearch(b, 0) }

func benchSparsifySeedSearch(b *testing.B, parallelism int) {
	g := gen.GNM(1<<12, 16<<12, 1)
	p := core.DefaultParams()
	p.Parallelism = parallelism
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparsify.SparsifyEdges(g, p, nil)
	}
}

// BenchmarkWithoutNodesSerial times the CSR node-removal filter (the inner
// rebuild of every Luby-style iteration) on one worker.
func BenchmarkWithoutNodesSerial(b *testing.B) { benchWithoutNodes(b, 1) }

// BenchmarkWithoutNodesParallel shards the same rebuild over the pool.
func BenchmarkWithoutNodesParallel(b *testing.B) { benchWithoutNodes(b, 0) }

func benchWithoutNodes(b *testing.B, workers int) {
	g := gen.GNM(1<<16, 1<<19, 1)
	remove := make([]bool, g.N())
	for v := range remove {
		remove[v] = v%3 == 0
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.WithoutNodesW(remove, workers)
	}
}

// BenchmarkLubyMISSerial times the randomized baseline (serial z-vector
// selection kernel) with the per-round graph rebuild on one worker.
func BenchmarkLubyMISSerial(b *testing.B) { benchLubyMIS(b, 1) }

// BenchmarkLubyMISParallel is the same baseline with the rebuild across the
// pool (selection itself is serial since the kernel rewrite).
func BenchmarkLubyMISParallel(b *testing.B) { benchLubyMIS(b, 0) }

func benchLubyMIS(b *testing.B, workers int) {
	g := gen.GNM(1<<14, 1<<17, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		luby.MISW(g, detrand.New(1), workers)
	}
}

// BenchmarkMPCRoundFanoutSerial times the message-level simulator's
// machine-step fan-out (sample sort + prefix sums) on one worker.
func BenchmarkMPCRoundFanoutSerial(b *testing.B) { benchMPCRoundFanout(b, 1) }

// BenchmarkMPCRoundFanoutParallel runs machine steps across the pool.
func BenchmarkMPCRoundFanoutParallel(b *testing.B) { benchMPCRoundFanout(b, 0) }

func benchMPCRoundFanout(b *testing.B, workers int) {
	r := detrand.New(1)
	data := make([]uint64, 1<<14)
	for i := range data {
		data[i] = r.Uint64() % 1_000_000
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := mpc.NewCluster(mpc.Config{Machines: 32, Space: 1 << 11, Workers: workers})
		if err := c.LoadBalanced(data); err != nil {
			b.Fatal(err)
		}
		if err := mpc.Sort(c); err != nil {
			b.Fatal(err)
		}
		if _, err := mpc.PrefixSum(c); err != nil {
			b.Fatal(err)
		}
	}
}

// The BenchmarkEngine* group measures the reusable-solver layer: the
// *Reuse benchmarks solve on a warm Engine (steady-state of a server
// handling repeated traffic — allocation-flat by the scratch arenas and CSR
// double-buffers), while the *OneShot pairs run the free-function wrapper,
// which pays the full working-set allocation every call. Run with -benchmem
// (the Makefile bench targets do) so CI archives B/op and allocs/op; the
// delta between each pair is the allocation bill the Engine amortises.

// BenchmarkEngineReuseMatching times a warm-Engine matching re-solve.
func BenchmarkEngineReuseMatching(b *testing.B) {
	g := gen.GNM(1<<12, 8<<12, 1)
	eng := NewEngine(&Options{Strategy: StrategySparsify, SkipCostTracking: true})
	if _, err := eng.MaximalMatching(g); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.MaximalMatching(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineOneShotMatching is the free-function counterpart of
// BenchmarkEngineReuseMatching (fresh scratch every call).
func BenchmarkEngineOneShotMatching(b *testing.B) {
	g := gen.GNM(1<<12, 8<<12, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MaximalMatching(g, &Options{Strategy: StrategySparsify, SkipCostTracking: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineReuseMIS times a warm-Engine MIS re-solve.
func BenchmarkEngineReuseMIS(b *testing.B) {
	g := gen.GNM(1<<12, 8<<12, 1)
	eng := NewEngine(&Options{Strategy: StrategySparsify, SkipCostTracking: true})
	if _, err := eng.MaximalIndependentSet(g); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.MaximalIndependentSet(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineOneShotMIS is the free-function counterpart of
// BenchmarkEngineReuseMIS.
func BenchmarkEngineOneShotMIS(b *testing.B) {
	g := gen.GNM(1<<12, 8<<12, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MaximalIndependentSet(g, &Options{Strategy: StrategySparsify, SkipCostTracking: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicAPI_MIS times the façade end to end (what a downstream
// user calls).
func BenchmarkPublicAPI_MIS(b *testing.B) {
	g, err := Generate("powerlaw", 1<<12, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MaximalIndependentSet(g, nil); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = io.Discard
