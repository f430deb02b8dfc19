// Package mis implements Theorem 14 of the paper: a deterministic fully
// scalable MPC algorithm computing a maximal independent set in O(log n)
// rounds with O(n^ε) space per machine.
//
// Each outer iteration (Algorithm 3) runs in O(1) charged MPC rounds:
//
//  1. isolated nodes join the MIS;
//  2. the node sparsification of Section 4.2 picks the class Q0 = C_i whose
//     good nodes B (Corollary 16) see a δ/3 reciprocal-degree mass in C_i,
//     and subsamples Q0 down to Q' with induced degree O(n^{4δ});
//  3. every B-node's machine gathers a set N_v of up to n^{4δ} of its Q'
//     neighbours with their Q'-neighbourhoods (asserted <= space budget);
//  4. one Luby step is derandomized: nodes get pairwise-independent
//     z-values, the candidate independent set I_h consists of the Q'-local
//     minima, and the seed search targets a constant fraction of Lemma 21's
//     bound E[Σ_{v∈N_h} d(v)] >= 0.01δ·Σ_{v∈B} d(v);
//  5. I_h joins the output and I_h ∪ N(I_h) leaves the graph.
//
// As with matching, correctness is unconditional: I_h is independent by
// construction, non-empty whenever edges remain, and the loop ends with all
// surviving nodes isolated and added to the MIS.
package mis

import (
	"repro/internal/condexp"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hashfam"
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
	QSize            int
	QMaxDegree       int
	MaxMachineWords  int
	SeedsTried       int
	SeedFound        bool
	Selected         int // |I_h|
	Removed          int // |I_h ∪ N(I_h)|
	ObjectiveValue   int64
	Threshold        int64
	IsolatedJoined   int
}

// Result is the outcome of the deterministic MIS computation.
type Result struct {
	IndependentSet []graph.NodeID
	Iterations     []IterStats
	// Canceled is set when Params.Done stopped the solve at a round (or
	// seed-batch) boundary; IndependentSet is then partial and NOT maximal,
	// and the caller must surface an error instead of the result.
	Canceled bool
}

// Deterministic computes a maximal independent set of g with the
// derandomized algorithm of Section 4. It is DeterministicIn with a private
// scratch context; repeated solvers (the Engine) share one.
func Deterministic(g *graph.Graph, p core.Params, model *simcost.Model) *Result {
	return DeterministicIn(scratch.New(), g, p, model)
}

// misRound is the per-round state of the seed search, shared read-only by
// every worker's sink: the candidate graph Q' on compact ids and the
// flattened N_v tables (owner t, a node of the round's graph, holds the
// compact ids nvFlat[nvStart[t]:nvStart[t+1]]) the objective scores.
type misRound struct {
	q       *graph.Graph
	deg     []int
	nvOwner []graph.NodeID
	nvFlat  []graph.NodeID
	nvStart []int
}

// score is the Lemma 21 objective of a candidate independent set I_h
// (compact ids): the summed degree of the B-nodes whose N_v meets I_h.
// inIh is the caller's all-false membership mask; only the touched entries
// are set and reset, so a pooled mask stays clean at O(|I_h|) cost.
func (r *misRound) score(inIh []bool, ih []graph.NodeID) int64 {
	for _, v := range ih {
		inIh[v] = true
	}
	var value int64
	for t, owner := range r.nvOwner {
		for _, u := range r.nvFlat[r.nvStart[t]:r.nvStart[t+1]] {
			if inIh[u] {
				value += int64(r.deg[owner])
				break
			}
		}
	}
	for _, v := range ih {
		inIh[v] = false
	}
	return value
}

// misSink is one worker's seed-search sink: the node selection of each
// candidate seed, scored by the round's objective.
type misSink struct {
	core.NodeSink
	r    *misRound
	inIh []bool
}

func (s *misSink) Value(i int) int64 { return s.r.score(s.inIh, s.Select(s.r.q, i)) }

// DeterministicIn is Deterministic drawing every per-round buffer from sc:
// sparsification state, the flattened N_v tables, the removal mask, and the
// shrinking outer-loop graph, which ping-pongs between sc's two loop CSR
// buffers. Per-seed selection state inside the objective is pooled per
// worker. The output is bit-identical to Deterministic at any worker count
// and for any prior state of sc; sc is Reset at every round boundary and
// left Reset on return.
func DeterministicIn(sc *scratch.Context, g *graph.Graph, p core.Params, model *simcost.Model) *Result {
	p.Validate()
	n := g.N()
	res := &Result{}
	if n == 0 {
		return res
	}
	cur := g
	// Solve-lifetime state stays off the arena: the arena is Reset each
	// round, while these masks accumulate across rounds.
	alive := make([]bool, n)
	for v := range alive {
		alive[v] = true
	}
	inMIS := make([]bool, n)
	fam := core.PairwiseFamily(n)
	evaluator := hashfam.NewEvaluator(fam)
	// The slot-0 node keys are seed-independent, so each round builds a
	// selection plan (NodeSel) over its Q' candidates once: a candidate
	// seed then costs its share of one block-major kernel pass over |Q'|
	// keys plus a selection over Q' on compact ids, never the full id
	// space. One sink per worker serves every seed of every round.
	sel := sc.NodeSel()
	slotKeyOf := func(v graph.NodeID) uint64 { return core.SlotKey(uint64(v), 0, n) }
	gamma := core.NewDegreeClasses(n, p.InvDelta).GroupSize()
	var rd misRound
	driver := condexp.NewBlockSearch(evaluator, p.Workers(), func() condexp.Sink {
		return &misSink{NodeSink: core.NodeSink{Sel: sel}, r: &rd, inIh: make([]bool, n)}
	})

	joinIsolated := func(st *IterStats) {
		for v := 0; v < n; v++ {
			if alive[v] && cur.Degree(graph.NodeID(v)) == 0 {
				inMIS[v] = true
				alive[v] = false
				if st != nil {
					st.IsolatedJoined++
				}
			}
		}
	}

	for iter := 1; ; iter++ {
		st := IterStats{Iteration: iter, EdgesBefore: cur.M()}
		joinIsolated(&st)
		if cur.M() == 0 {
			if st.IsolatedJoined > 0 {
				res.Iterations = append(res.Iterations, st)
			}
			break
		}
		// Round boundary: the solve's cancellation checkpoint.
		if p.Canceled() {
			res.Canceled = true
			break
		}
		// Observer-only live count; unobserved solves skip it.
		liveNodes := 0
		if p.Observe != nil {
			for v := 0; v < n; v++ {
				if alive[v] {
					liveNodes++
				}
			}
		}

		sp := sparsify.SparsifyNodesIn(sc, cur, p, model)
		if p.Canceled() {
			// The node sparsification may have been abandoned mid-chain.
			res.Canceled = true
			break
		}
		q := sp.QGraph
		st.ClassIndex = sp.ClassIndex
		st.Stages = len(sp.Stages)
		st.SparsifyFallback = sp.UsedFallback
		st.QSize = len(sp.QList)
		st.QMaxDegree = q.MaxDegree()

		// N_v construction (Section 4.3): up to γ of v's Q'-neighbours (the
		// smallest ids — "an arbitrary subset" — for determinism), plus
		// their Q'-neighbourhoods on v's machine. The per-owner lists are
		// flattened into one arena-backed array with an offsets table so a
		// round costs no per-node allocations; they hold Q' members by
		// their compact ids in q (rank is read only at Q' members).
		rank := sc.NodeIDsCap(n)[:n]
		for i, v := range sp.QList {
			rank[v] = graph.NodeID(i)
		}
		nvFlat := sc.NodeIDsCap(2 * cur.M())
		nvStart := sc.IntsCap(n + 1)
		nvOwner := sc.NodeIDsCap(n)
		nvStart = append(nvStart, 0)
		maxWords := 0
		for v := 0; v < n; v++ {
			if !sp.B[v] {
				continue
			}
			lo := len(nvFlat)
			for _, u := range cur.Neighbors(graph.NodeID(v)) {
				if sp.Q[u] {
					nvFlat = append(nvFlat, rank[u])
					if len(nvFlat)-lo == gamma {
						break
					}
				}
			}
			if len(nvFlat) == lo {
				continue
			}
			words := len(nvFlat) - lo
			for _, u := range nvFlat[lo:] {
				words += q.Degree(u)
			}
			if words > maxWords {
				maxWords = words
			}
			nvStart = append(nvStart, len(nvFlat))
			nvOwner = append(nvOwner, graph.NodeID(v))
		}
		st.MaxMachineWords = maxWords
		model.AssertMachineWords(maxWords, "mis.Nv")
		model.ChargeRounds(2, "mis.collect")

		// The selection plan for this round's candidate set, built once and
		// then shared read-only by every concurrent per-seed evaluation: Q'
		// as the sparsifier's ascending list, whose positions are q's ids.
		sel.Init(sp.QList, slotKeyOf, fam.P()-1)
		rd = misRound{q: q, deg: sp.Deg, nvOwner: nvOwner, nvFlat: nvFlat, nvStart: nvStart}
		// Lemma 21 ⇒ E[Σ_{v∈N_h} d(v)] >= 0.01δ·Σ_{v∈B} d(v).
		st.Threshold = int64(p.ThresholdFrac * 0.01 * p.Delta() * float64(sp.BWeight))
		if st.Threshold < 1 {
			st.Threshold = 1
		}
		copts := condexp.Options{
			Model:    model,
			Label:    "mis.seed",
			MaxSeeds: p.MaxSeedsPerSearch,
			Done:     p.Done,
		}
		// Seed-batch sub-events are observer-only work (see the matching
		// loop): fresh slice per round, nothing allocated unobserved.
		var batchStats []core.SeedBatchStat
		if p.Observe != nil {
			copts.OnBatch = func(bs condexp.BatchStat) {
				batchStats = append(batchStats, core.SeedBatchStat(bs))
			}
		}
		search, err := condexp.SearchAtLeastBatch(fam, driver.Objective(sel.Keys()), st.Threshold, copts)
		if err != nil {
			panic(err)
		}
		if search.Canceled {
			// search.Seed may be nil; abandon the round whole.
			res.Canceled = true
			break
		}
		st.SeedsTried = search.SeedsTried
		st.SeedFound = search.Found
		st.ObjectiveValue = search.Value

		z := evaluator.EvalKeysW(search.Seed, sel.Keys(), sc.Uint64s(len(sel.Keys())), p.Workers())
		ih := core.LocalMinNodesSel(sc.NodeIDsCap(n), q, sel, z)
		st.Selected = len(ih)
		remove := sc.Bools(n)
		for i, c := range ih {
			v := sp.QList[c]
			ih[i] = v
			inMIS[v] = true
			alive[v] = false
			remove[v] = true
			res.IndependentSet = append(res.IndependentSet, v)
			st.Removed++
		}
		for _, v := range ih {
			for _, u := range cur.Neighbors(v) {
				if !remove[u] {
					remove[u] = true
					alive[u] = false
					st.Removed++
				}
			}
		}
		cur = cur.WithoutNodesInto(remove, p.Workers(), sc.Loop().Next())
		model.ChargeScan("mis.apply")

		st.EdgesAfter = cur.M()
		if st.EdgesBefore > 0 {
			st.RemovedFraction = float64(st.EdgesBefore-st.EdgesAfter) / float64(st.EdgesBefore)
		}
		res.Iterations = append(res.Iterations, st)
		if p.Observe != nil {
			cs := model.Stats()
			p.Observe(core.RoundEvent{
				Algorithm:            "mis",
				Strategy:             "sparsify",
				Round:                iter,
				LiveNodes:            liveNodes,
				LiveEdges:            st.EdgesBefore,
				SeedsTried:           st.SeedsTried,
				SeedFound:            st.SeedFound,
				Selected:             st.Selected,
				Batches:              batchStats,
				CostRounds:           cs.Rounds,
				CostSeedBatches:      cs.SeedBatches,
				CostPeakMachineWords: cs.PeakMachineWords,
			})
		}
		sc.Reset()
	}
	// A cancellation break exits mid-round; the extra Reset (no-op on the
	// normal path) keeps the "sc left Reset on return" contract so a pooled
	// context survives a canceled solve without leaking slabs.
	sc.Reset()

	// Collect the isolated joins performed before the loop exited.
	res.IndependentSet = res.IndependentSet[:0]
	for v := 0; v < n; v++ {
		if inMIS[v] {
			res.IndependentSet = append(res.IndependentSet, graph.NodeID(v))
		}
	}
	return res
}
