package sparsify

import (
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hashfam"
	"repro/internal/parallel"
	"repro/internal/scratch"
	"repro/internal/simcost"
)

// NodeResult is the outcome of the Section 4.2 sparsification: the chosen
// class Q0 = C_i, the good-node set B (Corollary 16) and the subsampled
// low-degree node set Q' (as a mask over g's nodes).
//
// Lifetime: when produced by SparsifyNodesIn, the slices (B, Deg, Q0, Q)
// are checked out of the caller's scratch context and QGraph lives in its
// stage CSR double-buffer, so the result is valid until the caller Resets
// the context or runs the next sparsification on it — one outer-loop round,
// which is how internal/mis consumes it. The allocating SparsifyNodes
// wrapper has no such constraint.
type NodeResult struct {
	ClassIndex int
	B          []bool // v ∈ B iff Σ_{u∈C_i∼v} 1/d(u) >= δ/3
	BWeight    int64  // Σ_{v∈B} d(v) >= δ|E|/2 by Corollary 16
	Deg        []int
	Q0         []bool
	Q          []bool // Q' mask
	// QList is Q as an ascending id list: the MIS round's candidates
	// (core.NodeSel.Init), and the map from QGraph's compact ids back to
	// g's. len(QList) == CountMask(Q).
	QList []graph.NodeID
	// QGraph is the subgraph induced on Q', relabelled onto compact ids:
	// its node i is QList[i] (graph.InducedNodesInto), so the MIS seed
	// search selects over |Q'| ids, not g's id space.
	QGraph       *graph.Graph
	Stages       []StageReport
	UsedFallback bool
}

// SparsifyNodes runs the deterministic node sparsification of Section 4.2.
// It is SparsifyNodesIn with a private scratch context; repeated callers
// (the MIS round loop, the Engine) use SparsifyNodesIn.
func SparsifyNodes(g *graph.Graph, p core.Params, model *simcost.Model) *NodeResult {
	return SparsifyNodesIn(scratch.New(), g, p, model)
}

// SparsifyNodesIn is SparsifyNodes drawing every per-round buffer from sc
// instead of the heap. See NodeResult for the lifetime of the returned
// slices. Results are bit-identical to SparsifyNodes at any worker count
// and for any prior state of sc.
func SparsifyNodesIn(sc *scratch.Context, g *graph.Graph, p core.Params, model *simcost.Model) *NodeResult {
	p.Validate()
	n := g.N()
	deg := g.DegreesInto(sc.Ints(n))
	model.ChargeSort("sparsify.degrees")

	workers := p.Workers()
	dc := core.NewDegreeClasses(n, p.InvDelta)
	classOf := sc.Ints(n)
	parallel.ForEach(workers, n, func(v int) {
		classOf[v] = dc.Class(deg[v])
	})

	// B_i = {v : Σ_{u∈C_i∼v} 1/d(u) >= δ/3}; one pass accumulates all the
	// per-class reciprocal sums of every node. Each vertex owns its row and
	// folds its (fixed, sorted) neighbour list left to right, so the float
	// sums are bit-identical at any worker count.
	delta := p.Delta()
	sums := sc.Float64s(n * (dc.K + 1))
	parallel.ForEach(workers, n, func(v int) {
		row := sums[v*(dc.K+1):]
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			row[classOf[u]] += 1 / float64(deg[u])
		}
	})
	model.ChargeSort("sparsify.classSums")

	weights := sc.Int64s(dc.K + 1)
	for v := 0; v < n; v++ {
		row := sums[v*(dc.K+1):]
		for c := 1; c <= dc.K; c++ {
			if row[c] >= delta/3-1e-12 {
				weights[c] += int64(deg[v])
			}
		}
	}
	model.ChargeScan("sparsify.classes")
	i := 1
	for c := 2; c <= dc.K; c++ {
		if weights[c] > weights[i] {
			i = c
		}
	}
	b := sc.Bools(n)
	q0 := sc.Bools(n)
	for v := 0; v < n; v++ {
		b[v] = sums[v*(dc.K+1)+i] >= delta/3-1e-12
		q0[v] = classOf[v] == i
	}

	res := &NodeResult{
		ClassIndex: i,
		B:          b,
		BWeight:    weights[i],
		Deg:        deg,
		Q0:         q0,
	}

	stages := core.StageCount(i)
	cur := sc.Bools(n)
	copy(cur, q0)
	// Stage boundaries are cancellation checkpoints, as in SparsifyEdgesIn.
	// A canceled chain returns immediately with only the pre-stage fields
	// set (Q holds the current mask, QList/QGraph are unset): the outer MIS
	// round re-checks Params.Done — monotone by contract — right after this
	// call and discards the result, so there is no point paying the Q' list
	// build or the induced-subgraph construction on the way out.
	for j := 1; j <= stages && CountMask(cur) > 0; j++ {
		if p.Canceled() {
			res.Q = cur
			return res
		}
		report, next, canceled := runNodeStage(sc, g, cur, b, deg, dc, p, i, j, model)
		if canceled {
			res.Q = cur
			return res
		}
		res.Stages = append(res.Stages, report)
		cur = next
	}
	if CountMask(cur) == 0 && CountMask(q0) > 0 {
		cur = sc.Bools(n)
		copy(cur, q0)
		res.UsedFallback = true
	}
	// One pass builds the Q' list for both the normal and fallback masks:
	// the round's candidates, and the compact ids of QGraph.
	qlist := sc.NodeIDsCap(n)
	for v := 0; v < n; v++ {
		if cur[v] {
			qlist = append(qlist, graph.NodeID(v))
		}
	}
	res.Q = cur
	res.QList = qlist
	res.QGraph = g.InducedNodesInto(qlist, workers, sc.Stage().Next())
	return res
}

// CountMask returns the number of set entries (shared by the node-stage
// loops here and the MIS round stats in internal/mis).
func CountMask(mask []bool) int {
	c := 0
	for _, m := range mask {
		if m {
			c++
		}
	}
	return c
}

func runNodeStage(sc *scratch.Context, g *graph.Graph, cur, b []bool, deg []int,
	dc *core.DegreeClasses, p core.Params, i, j int, model *simcost.Model) (StageReport, []bool, bool) {

	n := g.N()
	gamma := dc.GroupSize()
	fam := core.KWiseFamily(n, p.KWise)
	evaluator := hashfam.NewEvaluator(fam)
	th := core.StageThreshold(fam.P(), n, dc.K)
	sampleProb := float64(th) / float64(fam.P())

	// Flattened groups over node keys. kind 0 = type Q (count upper bound),
	// kind 1 = type B (reciprocal-degree lower bound). Each of the two
	// passes contributes at most one key per half-edge of g.
	keys := sc.Uint64sCap(4 * g.M())
	weightsOf := sc.Float64sCap(4 * g.M()) // 1/d(u), used by type B groups
	var groups []edgeGroup
	appendGroups := func(ids []graph.NodeID, kind uint8) {
		for lo := 0; lo < len(ids); lo += gamma {
			hi := lo + gamma
			if hi > len(ids) {
				hi = len(ids)
			}
			groups = append(groups, edgeGroup{start: len(keys) + lo, end: len(keys) + hi, kind: kind})
		}
		for _, u := range ids {
			keys = append(keys, core.SlotKey(uint64(u), j, n))
			weightsOf = append(weightsOf, 1/float64(deg[u]))
		}
	}
	var flat []graph.NodeID
	curNeighbors := func(v int) []graph.NodeID {
		flat = flat[:0]
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			if cur[u] {
				flat = append(flat, u)
			}
		}
		return flat
	}
	for v := 0; v < n; v++ {
		if !cur[v] {
			continue
		}
		if ids := curNeighbors(v); len(ids) > 0 {
			appendGroups(ids, 0)
		}
	}
	for v := 0; v < n; v++ {
		if !b[v] {
			continue
		}
		if ids := curNeighbors(v); len(ids) > 0 {
			appendGroups(ids, 1)
		}
	}
	model.ChargeSort("sparsify.distribute")

	// Type-B deviation scale: the paper's n^{(0.9-i)δ}·√vx from the scaled
	// Bellare-Rompel application (variables Z_u = n^{(i-1)δ}/d(u)).
	devB := math.Pow(float64(n), (0.9-float64(i))/float64(dc.K))

	// Acceptance intervals hoisted out of the per-seed path: each bound
	// depends only on the group's fixed size — and for type-B groups its
	// fixed total weight, accumulated here in the same left-to-right order
	// every per-seed scan used, so the float result is bit-identical — which
	// moves DevTerm's math.Pow and the √ex scaling from once per group per
	// seed to once per group per stage. Type-Q groups bound the count from
	// above only, type-B the weight from below only; the open side is ±Inf.
	gLo := sc.Float64s(len(groups))
	gHi := sc.Float64s(len(groups))
	for gi, gr := range groups {
		ex := gr.end - gr.start
		if gr.kind == 0 {
			mu := float64(ex) * sampleProb
			dev := p.Slack * dc.DevTerm(ex)
			gLo[gi], gHi[gi] = math.Inf(-1), mu+dev
			continue
		}
		var total float64
		for t := gr.start; t < gr.end; t++ {
			total += weightsOf[t]
		}
		dev := p.Slack * devB * math.Sqrt(float64(ex))
		gLo[gi], gHi[gi] = sampleProb*total-dev, math.Inf(1)
	}
	// Goodness objective: the number of good groups under the seed, folded
	// block by block into per-seed group cursors (stageFold).
	res := searchStage(evaluator, keys, &stageFold{groups: groups, th: th, weightsOf: weightsOf, lo: gLo, hi: gHi}, p, model)
	if res.Canceled {
		// res.Seed may be nil; abandon the stage, the caller discards.
		return StageReport{}, nil, true
	}

	// Apply the selected seed: one EvalKeys pass over this stage's node
	// keys, then a sharded mask update.
	workers := p.Workers()
	applyKeys := core.NodeSlotKeysInto(sc.Uint64sCap(n), j, n)
	applyZ := evaluator.EvalKeysW(res.Seed, applyKeys, sc.Uint64s(n), workers)
	next := sc.Bools(n)
	parallel.ForEach(workers, n, func(v int) {
		next[v] = cur[v] && applyZ[v] < th
	})
	model.ChargeScan("sparsify.apply")

	report := StageReport{
		Stage:       j,
		ItemsBefore: CountMask(cur),
		ItemsAfter:  CountMask(next),
		Groups:      len(groups),
		GoodGroups:  int(res.Value),
		SeedsTried:  res.SeedsTried,
		SeedFound:   res.Found,
	}

	// Invariant (i), Lemma 17: for v ∈ Qj, d_{Qj}(v) <= (1+o(1)) n^{-jδ} d(v).
	// Both audits shard over vertex ranges with shard-ordered merges.
	nJD := math.Pow(float64(n), -float64(j)/float64(dc.K))
	n3d := math.Pow(float64(n), 3/float64(dc.K))
	invI := InvariantCheck{Name: "Lemma17: d_Qj(v) <= (1+o(1))n^{-jδ}d(v)"}
	invI.merge(parallel.MapReduce(workers, n, InvariantCheck{}, func(lo, hi int) InvariantCheck {
		var part InvariantCheck
		for v := lo; v < hi; v++ {
			if !next[v] {
				continue
			}
			dQ := 0
			for _, u := range g.Neighbors(graph.NodeID(v)) {
				if next[u] {
					dQ++
				}
			}
			// The additive n^{3δ} mirrors Lemma 10's small-degree regime (the
			// proof of Lemma 17 stops shrinking once degrees fall below n^{3δ}).
			bound := p.Slack * (nJD*float64(deg[v]) + n3d)
			part.observe(float64(dQ) / bound)
		}
		return part
	}, mergeChecks))
	delta := p.Delta()
	invII := InvariantCheck{Name: "Lemma18: Σ_{u∈Qj∼v}1/d(u) >= (δ-o(1))/(3n^{δj})"}
	invII.merge(parallel.MapReduce(workers, n, InvariantCheck{}, func(lo, hi int) InvariantCheck {
		var part InvariantCheck
		for v := lo; v < hi; v++ {
			if !b[v] {
				continue
			}
			var sum float64
			for _, u := range g.Neighbors(graph.NodeID(v)) {
				if next[u] {
					sum += 1 / float64(deg[u])
				}
			}
			bound := delta / (3 * math.Pow(float64(n), float64(j)/float64(dc.K)) * p.Slack)
			// +1/n absorbs integrality at laptop scale.
			part.observe(bound / (sum + 1/float64(n)))
		}
		return part
	}, mergeChecks))
	report.InvariantI = invI
	report.InvariantII = invII
	return report, next, false
}
