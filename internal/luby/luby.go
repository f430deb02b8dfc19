// Package luby provides the comparison baselines of the experiment suite:
// Luby's classical randomized MIS algorithm (Section 2.1 of the paper), its
// matching variant (MIS on edges, cf. Israeli–Itai), and the sequential
// greedy references. The randomized algorithms consume a detrand source and
// report per-round progress so experiment F1/F2 can overlay their edge-decay
// and round curves against the deterministic algorithms'.
package luby

import (
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/graph"
	"repro/internal/scratch"
)

// RoundStats records one randomized round.
type RoundStats struct {
	Round       int
	EdgesBefore int
	EdgesAfter  int
	Selected    int
}

// MISResult is the outcome of the randomized MIS.
type MISResult struct {
	IndependentSet []graph.NodeID
	Rounds         []RoundStats
	// Canceled is set when the done hook of MISIn stopped the run at a
	// round boundary; IndependentSet is then partial and NOT maximal.
	Canceled bool
}

// MIS runs Luby's algorithm: every round each surviving node draws a random
// z value and joins the independent set iff its value is strictly smaller
// (ties by id) than all surviving neighbours'; the set and its neighbourhood
// leave the graph. Terminates when no edges remain; isolated nodes join.
func MIS(g *graph.Graph, src *detrand.Source) *MISResult { return MISW(g, src, 0) }

// MISW is MIS with the per-round graph rebuild sharded over up to `workers`
// host workers (0 = GOMAXPROCS, 1 = serial). The z draws stay serial in id
// order (they consume the deterministic source) and the candidate selection
// runs through the serial z-vector kernel (core.LocalMinNodesZ), so the
// output is identical at any worker count. Draws come from the selection
// kernels' hash field [p) — the same range the derandomized solvers hash
// into — so the selection takes the packed single-word (z,id) fast path
// instead of the compare-two-words fallback that full 64-bit draws force.
func MISW(g *graph.Graph, src *detrand.Source, workers int) *MISResult {
	return MISIn(scratch.New(), g, src, workers, nil)
}

// MISIn is MISW drawing the per-round z table, candidate buffer and removal
// mask from sc and ping-ponging the shrinking graph between sc's two loop
// CSR buffers. The per-round candidate set is the z-vector local-minimum
// selection shared with the derandomized solvers (core.LocalMinNodesZ) —
// after the isolated-join every alive node has degree > 0 and every
// neighbour in cur is alive, so the selection is exactly Luby's rule. The
// output is identical to MISW for any prior state of sc and any worker
// count; sc is Reset at every round boundary and left Reset on return.
//
// done, when non-nil, follows the repository's cancellation convention
// (core.Params.Done): it is polled once per round boundary and a true
// return abandons the run with Canceled set — a baseline driven by the same
// request machinery as the deterministic solvers stops on the same
// checkpoints.
func MISIn(sc *scratch.Context, g *graph.Graph, src *detrand.Source, workers int, done func() bool) *MISResult {
	n := g.N()
	res := &MISResult{}
	cur := g
	alive := make([]bool, n)
	for v := range alive {
		alive[v] = true
	}
	inMIS := make([]bool, n)
	// Draw z values from the pairwise selection field [p), like the
	// derandomized solver's hashes, rather than full 64-bit words: bounded
	// draws let LocalMinNodesZ pack (z, id) into single words and take its
	// branch-free fast path. Dead slots stay zero (below p), which is fine —
	// the alive mask excludes them from selection entirely.
	p := core.PairwiseFamily(n).P()

	for round := 1; ; round++ {
		if done != nil && done() {
			res.Canceled = true
			break
		}
		for v := 0; v < n; v++ {
			if alive[v] && cur.Degree(graph.NodeID(v)) == 0 {
				inMIS[v] = true
				alive[v] = false
			}
		}
		if cur.M() == 0 {
			break
		}
		st := RoundStats{Round: round, EdgesBefore: cur.M()}
		z := sc.Uint64s(n)
		for v := 0; v < n; v++ {
			if alive[v] {
				z[v] = src.Uint64n(p)
			}
		}
		ih := core.LocalMinNodesZ(sc.NodeIDsCap(n), cur, alive, z)
		st.Selected = len(ih)
		remove := sc.Bools(n)
		for _, v := range ih {
			inMIS[v] = true
			alive[v] = false
			remove[v] = true
		}
		for _, v := range ih {
			for _, u := range cur.Neighbors(v) {
				if alive[u] {
					alive[u] = false
					remove[u] = true
				}
			}
		}
		cur = cur.WithoutNodesInto(remove, workers, sc.Loop().Next())
		st.EdgesAfter = cur.M()
		res.Rounds = append(res.Rounds, st)
		sc.Reset()
	}
	for v := 0; v < n; v++ {
		if inMIS[v] {
			res.IndependentSet = append(res.IndependentSet, graph.NodeID(v))
		}
	}
	return res
}

// MatchingResult is the outcome of the randomized maximal matching.
type MatchingResult struct {
	Matching []graph.Edge
	Rounds   []RoundStats
	// Canceled is set when the done hook of MaximalMatchingIn stopped the
	// run at a round boundary; Matching is then partial and NOT maximal.
	Canceled bool
}

// MaximalMatching runs the Luby-style matching: every round each surviving
// edge draws a random value; local-minimum edges join the matching and their
// endpoints leave the graph.
func MaximalMatching(g *graph.Graph, src *detrand.Source) *MatchingResult {
	return MaximalMatchingW(g, src, 0)
}

// MaximalMatchingW is MaximalMatching with the per-round graph rebuild
// sharded over up to `workers` host workers (0 = GOMAXPROCS, 1 = serial).
// The z draws stay serial in canonical edge order and winners come from the
// serial two-pass z-vector kernel (core.LocalMinEdgesZ) in edge order, so
// the output is identical at any worker count.
func MaximalMatchingW(g *graph.Graph, src *detrand.Source, workers int) *MatchingResult {
	return MaximalMatchingIn(scratch.New(), g, src, workers, nil)
}

// MaximalMatchingIn is MaximalMatchingW drawing the per-round edge list, z
// vector and masks from sc and ping-ponging the shrinking graph between
// sc's two loop CSR buffers. The per-round z values live in a vector
// parallel to the canonical edge list (drawn in edge order, exactly as the
// old per-edge map was filled) from the pairwise selection field [p) — the
// bounded draws let LocalMinEdgesZ pack (z, edge-key) into single words and
// take its branch-free fast path, as in MISIn — and winners come from the
// same two-pass local-minimum kernel the derandomized solvers use
// (core.LocalMinEdgesZ),
// which replaced a per-round hash map — the selection compares (z, edge
// key) pairs identically, so outputs are unchanged. The output is identical
// to MaximalMatchingW for any prior state of sc and any worker count; sc is
// Reset at every round boundary and left Reset on return. done follows the
// round-boundary cancellation convention documented on MISIn.
func MaximalMatchingIn(sc *scratch.Context, g *graph.Graph, src *detrand.Source, workers int, done func() bool) *MatchingResult {
	res := &MatchingResult{}
	cur := g
	n := g.N()
	// The selection scratch survives sc.Reset, so its min tables are drawn
	// from the Context's persistent slot and reused across rounds rather
	// than checked out per round.
	lm := sc.EdgeMin()
	// Selection-field draws, as in MISIn: below p the packed edge path of
	// LocalMinEdgesZ applies whenever the id width allows it.
	p := core.PairwiseFamily(n).P()
	for round := 1; cur.M() > 0; round++ {
		if done != nil && done() {
			res.Canceled = true
			break
		}
		st := RoundStats{Round: round, EdgesBefore: cur.M()}
		edges := cur.EdgesAppend(sc.EdgesCap(cur.M()))
		z := sc.Uint64s(len(edges))
		for i := range edges {
			z[i] = src.Uint64n(p)
		}
		picked := core.LocalMinEdgesZ(lm, cur, edges, z)
		matched := sc.Bools(n)
		for _, e := range picked {
			matched[e.U] = true
			matched[e.V] = true
		}
		st.Selected = len(picked)
		res.Matching = append(res.Matching, picked...)
		cur = cur.WithoutNodesInto(matched, workers, sc.Loop().Next())
		st.EdgesAfter = cur.M()
		res.Rounds = append(res.Rounds, st)
		sc.Reset()
	}
	return res
}

// GreedyMIS returns the sequential greedy MIS in id order — the simplest
// correct reference for validators and size comparisons.
func GreedyMIS(g *graph.Graph) []graph.NodeID {
	var out []graph.NodeID
	blocked := make([]bool, g.N())
	for v := 0; v < g.N(); v++ {
		if blocked[v] {
			continue
		}
		out = append(out, graph.NodeID(v))
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			blocked[u] = true
		}
	}
	return out
}

// GreedyMatching returns the sequential greedy maximal matching in canonical
// edge order.
func GreedyMatching(g *graph.Graph) []graph.Edge {
	var out []graph.Edge
	used := make([]bool, g.N())
	for u := 0; u < g.N(); u++ {
		if used[u] {
			continue
		}
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			if graph.NodeID(u) < v && !used[v] {
				out = append(out, graph.Edge{U: graph.NodeID(u), V: v})
				used[u] = true
				used[v] = true
				break
			}
		}
	}
	return out
}

// Verify panics if the given outputs are not maximal on g; used by the
// experiment harness to guard every baseline run.
func Verify(g *graph.Graph, is []graph.NodeID, mm []graph.Edge) {
	if is != nil {
		if ok, reason := check.IsMaximalIS(g, is); !ok {
			panic("luby: baseline produced invalid MIS: " + reason)
		}
	}
	if mm != nil {
		if ok, reason := check.IsMaximalMatching(g, mm); !ok {
			panic("luby: baseline produced invalid matching: " + reason)
		}
	}
}
