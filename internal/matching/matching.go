// Package matching implements Theorem 7 of the paper: a deterministic fully
// scalable MPC algorithm computing a maximal matching in O(log n) rounds
// with O(n^ε) space per machine.
//
// Each outer iteration (Algorithm 2) runs in O(1) charged MPC rounds:
//
//  1. pick the degree class whose good nodes B carry a δ/2-fraction of the
//     edges and sparsify the incident edge set E0 down to E* with maximum
//     degree O(n^{4δ}) (internal/sparsify, Section 3.2);
//  2. collect 2-hop neighbourhoods of E* onto machines (asserted <= space
//     budget) and derandomize one Luby step: a pairwise-independent seed
//     maps edges to z-values, the candidate matching E_h consists of the
//     local-minimum edges, and the method of conditional expectations picks
//     a seed for which the matched B-nodes carry a constant fraction of the
//     proven expectation Σ_{v∈B} d(v)/109 (Lemma 13);
//  3. add E_h to the output and delete the matched nodes.
//
// Each iteration removes a constant fraction of the edges, so O(log n)
// iterations suffice; the loop is unconditionally correct regardless of the
// thresholds because a non-empty E_h always makes progress and the final
// matching is maximal by construction (edges only disappear when an
// endpoint is matched).
package matching

import (
	"repro/internal/condexp"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hashfam"
	"repro/internal/parallel"
	"repro/internal/scratch"
	"repro/internal/simcost"
	"repro/internal/sparsify"
)

// IterStats records one outer iteration.
type IterStats struct {
	Iteration        int
	EdgesBefore      int
	EdgesAfter       int
	RemovedFraction  float64
	ClassIndex       int
	Stages           int
	SparsifyFallback bool
	EStarEdges       int
	EStarMaxDegree   int
	MaxBallWords     int // largest collected 2-hop neighbourhood (words)
	SeedsTried       int
	SeedFound        bool // progress threshold met (vs best-effort seed)
	MatchedEdges     int
	ObjectiveValue   int64 // Σ_{v∈B matched} d(v) under the selected seed
	Threshold        int64
}

// mmRound is the per-round state of the seed search, shared read-only by
// every worker's sink: the selection plan over E* on compact ids, the map
// ids from a compact id back to its node, and the B-node degrees the
// objective weighs matched nodes with.
type mmRound struct {
	sel core.EdgeSel
	ids []graph.NodeID
	b   []bool
	deg []int
}

// value is the Lemma 13 objective of a candidate matching E_h (compact
// ids): the summed degree of its matched B-nodes.
func (r *mmRound) value(eh []graph.Edge) int64 {
	var v int64
	for _, e := range eh {
		if u := r.ids[e.U]; r.b[u] {
			v += int64(r.deg[u])
		}
		if w := r.ids[e.V]; r.b[w] {
			v += int64(r.deg[w])
		}
	}
	return v
}

// compactEdges relabels a round's edge list onto compact ids: it appends
// the endpoints of estar's edges to ids (ascending, so the relabel keeps id
// order) and the edges, as positions in ids, to dst. rank is a scratch
// table of estar.N() entries; only the endpoint slots are written and read.
// The canonical (U, V) order and every (z, key) comparison of the selection
// are unchanged, while its per-seed tables shrink to |ids| <= 2|edges|
// words.
func compactEdges(estar *graph.Graph, edges []graph.Edge, rank, ids []graph.NodeID, dst []graph.Edge) ([]graph.NodeID, []graph.Edge) {
	for v := 0; v < estar.N(); v++ {
		if estar.Degree(graph.NodeID(v)) > 0 {
			rank[v] = graph.NodeID(len(ids))
			ids = append(ids, graph.NodeID(v))
		}
	}
	for _, e := range edges {
		dst = append(dst, graph.Edge{U: rank[e.U], V: rank[e.V]})
	}
	return ids, dst
}

// mmSink is one worker's seed-search sink: the edge selection of each
// candidate seed, scored by the round's objective.
type mmSink struct {
	core.EdgeSink
	r *mmRound
}

func (s *mmSink) Value(i int) int64 { return s.r.value(s.Select(i)) }

// Result is the outcome of the deterministic maximal matching.
type Result struct {
	Matching   []graph.Edge
	Iterations []IterStats
	// FallbackPicks counts iterations that resorted to the single
	// smallest-key edge because the candidate matching came back empty
	// (never observed in practice; kept for unconditional correctness).
	FallbackPicks int
	// Canceled is set when Params.Done stopped the solve at a round (or
	// seed-batch) boundary; Matching is then partial and NOT maximal, and
	// the caller must surface an error instead of the result.
	Canceled bool
}

// Deterministic computes a maximal matching of g with the derandomized
// algorithm of Section 3. The model, when non-nil, is charged all MPC
// rounds and validates all machine-space claims. It is DeterministicIn with
// a private scratch context; repeated solvers (the Engine) share one.
func Deterministic(g *graph.Graph, p core.Params, model *simcost.Model) *Result {
	return DeterministicIn(scratch.New(), g, p, model)
}

// DeterministicIn is Deterministic drawing every per-round buffer from sc:
// sparsification state, the E* edge list, the matched-node mask, and the
// shrinking outer-loop graph, which ping-pongs between sc's two loop CSR
// buffers instead of allocating a fresh graph per iteration. Per-seed
// selection state inside the objective is pooled per worker. The output is
// bit-identical to Deterministic at any worker count and for any prior
// state of sc; sc is Reset at every round boundary and left Reset on
// return.
func DeterministicIn(sc *scratch.Context, g *graph.Graph, p core.Params, model *simcost.Model) *Result {
	p.Validate()
	res := &Result{}
	cur := g
	n := g.N()
	fam := core.PairwiseFamily(n)
	evaluator := hashfam.NewEvaluator(fam)
	// One sink per worker serves every candidate seed of every round; its
	// tables and rows are sized by round 1, the largest.
	var rd mmRound
	driver := condexp.NewBlockSearch(evaluator, p.Workers(), func() condexp.Sink {
		return &mmSink{EdgeSink: core.EdgeSink{Sel: &rd.sel}, r: &rd}
	})

	for iter := 1; cur.M() > 0; iter++ {
		// Round boundary: the first of the solve's cancellation checkpoints.
		if p.Canceled() {
			res.Canceled = true
			break
		}
		st := IterStats{Iteration: iter, EdgesBefore: cur.M()}
		// The live-node count is observer-only work: skipped entirely when no
		// observer is attached, so unobserved solves pay nothing.
		liveNodes := 0
		if p.Observe != nil {
			for v := 0; v < n; v++ {
				if cur.Degree(graph.NodeID(v)) > 0 {
					liveNodes++
				}
			}
		}

		sp := sparsify.SparsifyEdgesIn(sc, cur, p, model)
		if p.Canceled() {
			// The sparsification may have been abandoned mid-chain; its
			// partial result must not reach a seed search.
			res.Canceled = true
			break
		}
		estar := sp.EStar
		estarEdges := estar.EdgesAppend(sc.EdgesCap(estar.M()))
		st.ClassIndex = sp.ClassIndex
		st.Stages = len(sp.Stages)
		st.SparsifyFallback = sp.UsedFallback
		st.EStarEdges = len(estarEdges)
		st.EStarMaxDegree = estar.MaxDegree()

		// Collect 2-hop neighbourhoods in E* for the B-nodes: machine x_v
		// holds v's incident E*-edges and their incident E*-edges.
		st.MaxBallWords = maxTwoHopWords(estar, sp.B, p.Workers())
		model.AssertMachineWords(st.MaxBallWords, "mm.2hop")
		model.ChargeRounds(2, "mm.collect") // sort + request round (§2.2)

		// Derandomized Luby step on E* (Section 3.3). The slot-0 hash keys
		// of the global edges and the selection plan (EdgeSel) over E*
		// relabelled onto its endpoints are seed-independent, so they are
		// built once per round; every candidate seed then costs its share of
		// one block-major kernel pass plus a selection over E*'s endpoints.
		keys := core.SlotKeysInto(sc.Uint64sCap(len(estarEdges)), estarEdges, 0, n)
		ids, cedges := compactEdges(estar, estarEdges, sc.NodeIDsCap(n)[:n], sc.NodeIDsCap(n), sc.EdgesCap(len(estarEdges)))
		core.EdgeSelInit(&rd.sel, len(ids), cedges, sc.Uint64sCap(len(cedges)), fam.P()-1)
		rd.ids, rd.b, rd.deg = ids, sp.B, sp.Deg
		// Lemma 13 ⇒ E_h[Σ_{v∈N_h} d(v)] >= Σ_{v∈B} d(v)/109; we demand a
		// ThresholdFrac fraction of that.
		st.Threshold = int64(p.ThresholdFrac * float64(sp.BWeight) / 109.0)
		if st.Threshold < 1 {
			st.Threshold = 1
		}
		copts := condexp.Options{
			Model:    model,
			Label:    "mm.seed",
			MaxSeeds: p.MaxSeedsPerSearch,
			Done:     p.Done,
		}
		// Seed-batch sub-events are observer-only work: the slice is fresh
		// per round (events own their Batches; observers may retain them)
		// and unobserved solves never allocate it.
		var batchStats []core.SeedBatchStat
		if p.Observe != nil {
			copts.OnBatch = func(bs condexp.BatchStat) {
				batchStats = append(batchStats, core.SeedBatchStat(bs))
			}
		}
		search, err := condexp.SearchAtLeastBatch(fam, driver.Objective(keys), st.Threshold, copts)
		if err != nil {
			panic(err) // family is never empty
		}
		if search.Canceled {
			// search.Seed may be nil (canceled before any batch evaluated);
			// there is no seed to apply, so the round is abandoned whole.
			res.Canceled = true
			break
		}
		st.SeedsTried = search.SeedsTried
		st.SeedFound = search.Found
		st.ObjectiveValue = search.Value

		z := evaluator.EvalKeysW(search.Seed, keys, sc.Uint64s(len(keys)), p.Workers())
		first := len(res.Matching)
		for _, e := range core.LocalMinEdgesSel(sc.EdgeMin(), &rd.sel, z) {
			res.Matching = append(res.Matching, graph.Edge{U: ids[e.U], V: ids[e.V]})
		}
		if len(res.Matching) == first {
			// Unconditional-progress fallback: match the smallest-key edge.
			res.Matching = append(res.Matching, smallestEdge(cur))
			res.FallbackPicks++
		}
		eh := res.Matching[first:]
		st.MatchedEdges = len(eh)

		matched := sc.Bools(n)
		for _, e := range eh {
			matched[e.U] = true
			matched[e.V] = true
		}
		cur = cur.WithoutNodesInto(matched, p.Workers(), sc.Loop().Next())
		model.ChargeScan("mm.apply")

		st.EdgesAfter = cur.M()
		st.RemovedFraction = float64(st.EdgesBefore-st.EdgesAfter) / float64(st.EdgesBefore)
		res.Iterations = append(res.Iterations, st)
		if p.Observe != nil {
			cs := model.Stats()
			p.Observe(core.RoundEvent{
				Algorithm:            "matching",
				Strategy:             "sparsify",
				Round:                iter,
				LiveNodes:            liveNodes,
				LiveEdges:            st.EdgesBefore,
				SeedsTried:           st.SeedsTried,
				SeedFound:            st.SeedFound,
				Selected:             st.MatchedEdges,
				Batches:              batchStats,
				CostRounds:           cs.Rounds,
				CostSeedBatches:      cs.SeedBatches,
				CostPeakMachineWords: cs.PeakMachineWords,
			})
		}
		sc.Reset()
	}
	// A cancellation break exits mid-round with live slab checkouts; the
	// extra Reset (a no-op after a normal exit) keeps the documented
	// "sc left Reset on return" contract, which is what lets the Engine
	// re-pool the context after a canceled solve without leaking its slabs.
	sc.Reset()
	return res
}

// maxTwoHopWords returns the largest number of words a machine holds when
// the 2-hop E*-neighbourhood of a B-node is collected: the node's incident
// edges plus its neighbours' incident edges (2 words per edge). The per-node
// measurements are independent, so the scan map-reduces over vertex shards.
func maxTwoHopWords(estar *graph.Graph, b []bool, workers int) int {
	return parallel.MaxInt(workers, estar.N(), func(lo, hi int) int {
		max := 0
		for v := lo; v < hi; v++ {
			if !b[v] {
				continue
			}
			words := 2 * estar.Degree(graph.NodeID(v))
			for _, u := range estar.Neighbors(graph.NodeID(v)) {
				words += 2 * estar.Degree(u)
			}
			if words > max {
				max = words
			}
		}
		return max
	})
}

// smallestEdge returns the canonical minimum-key edge of a non-empty graph.
func smallestEdge(g *graph.Graph) graph.Edge {
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			if graph.NodeID(v) < u {
				return graph.Edge{U: graph.NodeID(v), V: u}
			}
		}
	}
	panic("matching: smallestEdge on empty graph")
}
