// Package coloring implements Linial's colour-reduction algorithm ([42],
// with the CONGEST variant of Kuhn [38]) as used by Section 5 of the paper:
// an O(Δ⁴)-colouring of the square graph G², computed in O(log* n) rounds,
// so that any two nodes within distance 2 receive distinct colours. The
// colours then serve as the (small) hash-function inputs of the
// stage-compressed derandomized Luby algorithm, shrinking per-phase seeds
// from O(log n) to O(log Δ) bits.
//
// One Linial round: identify each current colour c with a polynomial p_c of
// degree <= d over F_q (its base-q digits), where q is a prime exceeding
// Δ·d. Distinct polynomials agree on at most d points, so every node has
// some evaluation point x where it differs from all its (<= Δ) neighbours;
// the node picks the smallest such x and adopts the new colour (x, p_c(x))
// out of q². Iterating reaches the fixpoint q² = O(Δ²) colours for the
// coloured graph — O(Δ⁴) when that graph is G² — in O(log* C) rounds.
package coloring

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/intmath"
	"repro/internal/parallel"
	"repro/internal/simcost"
)

// Result is a proper colouring with its round count.
type Result struct {
	Colors    []int // colour per node, in [0, NumColors)
	NumColors int
	Rounds    int // Linial iterations (each O(1) charged MPC rounds)
}

// Linial colours the given graph properly with O(Δ²) colours in O(log* n)
// iterations, starting from the trivial n-colouring by node id. It runs at
// the pool's automatic worker count; use LinialW to pin one.
func Linial(g *graph.Graph, model *simcost.Model) *Result { return LinialW(g, model, 0) }

// LinialW is Linial with every round sharded over vertex ranges on up to
// `workers` host workers. Each node decides from the previous round's
// colours alone and writes only its own entry of the next colour buffer, so
// the result is identical at any worker count.
func LinialW(g *graph.Graph, model *simcost.Model, workers int) *Result {
	n := g.N()
	colors := make([]int, n)
	for v := range colors {
		colors[v] = v
	}
	numColors := n
	if numColors == 0 {
		return &Result{Colors: colors, NumColors: 0}
	}
	maxDeg := g.MaxDegree()
	rounds := 0
	// Rounds ping-pong between colors and next; digits holds every node's
	// colour polynomial as one flat row of base-q digits.
	var next []int
	var digits []uint64
	for {
		q, d := linialParams(numColors, maxDeg)
		nc := int(q * q)
		if nc >= numColors {
			break // fixpoint reached
		}
		next = graph.Grow(next, n)
		digits = graph.Grow(digits, n*(d+1))
		linialRound(g, colors, next, digits, q, d, workers)
		colors, next = next, colors
		numColors = nc
		rounds++
		model.ChargeRounds(1, "coloring.linial")
		if rounds > 64 {
			panic("coloring: Linial failed to converge")
		}
	}
	// Isolated nodes have no colouring constraints: collapse them to a
	// single colour (pure local computation).
	for v := 0; v < n; v++ {
		if g.Degree(graph.NodeID(v)) == 0 {
			colors[v] = 0
		}
	}
	// Compact the colour space to the colours actually used (a relabeling
	// every node can do locally after one Lemma 4 sort).
	numColors = compact(colors, numColors)
	model.ChargeSort("coloring.compact")
	return &Result{Colors: colors, NumColors: numColors, Rounds: rounds}
}

// LinialG2 colours G² (distance-2 proper colouring of g) with O(Δ⁴)
// colours — the colouring χ of Section 5. It runs at the pool's automatic
// worker count; use LinialG2W to pin one.
func LinialG2(g *graph.Graph, model *simcost.Model) *Result { return LinialG2W(g, model, 0) }

// LinialG2W is LinialG2 with squaring, colouring and verification sharded
// on up to `workers` host workers; the result is identical at any worker
// count.
func LinialG2W(g *graph.Graph, model *simcost.Model, workers int) *Result {
	sq := g.SquareW(workers)
	model.ChargeRounds(1, "coloring.square") // neighbours exchange lists
	res := LinialW(sq, model, workers)
	if err := VerifyDistance2W(g, res.Colors, workers); err != nil {
		panic(fmt.Sprintf("coloring: %v", err))
	}
	return res
}

// linialParams returns the prime field size q and polynomial degree d for
// one reduction from numColors colours at maximum degree maxDeg.
func linialParams(numColors, maxDeg int) (uint64, int) {
	if maxDeg < 1 {
		maxDeg = 1
	}
	// Find the smallest prime q with q > maxDeg*d(q) where d(q) =
	// ceil(log_q numColors); try increasing q until consistent.
	q := intmath.NextPrime(uint64(maxDeg + 2))
	for {
		d := degreeFor(numColors, q)
		if q > uint64(maxDeg*d) {
			return q, d
		}
		q = intmath.NextPrime(q + 1)
	}
}

// degreeFor returns the smallest d with q^(d+1) >= numColors.
func degreeFor(numColors int, q uint64) int {
	d := 0
	pow := q
	for pow < uint64(numColors) {
		pow *= q
		d++
		if d > 64 {
			panic("coloring: degree overflow")
		}
	}
	return d
}

// linialRound performs one colour reduction from colors into next, using
// digits (length n·(d+1)) as the flat table of colour polynomials. All
// nodes decide from the old colours only, so the computation is one
// synchronous round, sharded over vertex ranges. Shard bodies never panic:
// a node that cannot decide flags its shard, and the serial rescan below
// then raises the panic the lowest failing node reports, so the message is
// the same at any worker count.
func linialRound(g *graph.Graph, colors, next []int, digits []uint64, q uint64, d int, workers int) {
	n := g.N()
	row := d + 1
	parallel.ForEach(workers, n, func(v int) {
		c := uint64(colors[v])
		p := digits[v*row : (v+1)*row]
		for t := range p {
			p[t] = c % q
			c /= q
		}
	})
	failed := parallel.MapReduce(workers, n, false, func(lo, hi int) bool {
		for v := lo; v < hi; v++ {
			c, err := linialChoice(g, colors, digits, q, row, graph.NodeID(v))
			if err != nil {
				return true
			}
			next[v] = c
		}
		return false
	}, func(acc, part bool) bool { return acc || part })
	if failed {
		for v := 0; v < n; v++ {
			if _, err := linialChoice(g, colors, digits, q, row, graph.NodeID(v)); err != nil {
				panic(fmt.Sprintf("coloring: %v", err))
			}
		}
	}
}

// linialChoice returns v's next colour x·q + p_v(x) for the smallest
// evaluation point x at which p_v differs from every neighbour's
// polynomial. It fails when v shares its colour with a neighbour (naming
// the lowest such neighbour) or when no point separates v, which cannot
// happen for a proper input colouring with q > Δ·d (counting argument).
func linialChoice(g *graph.Graph, colors []int, digits []uint64, q uint64, row int, v graph.NodeID) (int, error) {
	nbrs := g.Neighbors(v)
	for _, u := range nbrs {
		if colors[u] == colors[v] {
			return 0, fmt.Errorf("input colouring not proper: nodes %d and %d share colour %d", v, u, colors[v])
		}
	}
	pv := digits[int(v)*row : (int(v)+1)*row]
	for x := uint64(0); x < q; x++ {
		val := evalPoly(pv, x, q)
		ok := true
		for _, u := range nbrs {
			if evalPoly(digits[int(u)*row:(int(u)+1)*row], x, q) == val {
				ok = false
				break
			}
		}
		if ok {
			return int(x*q + val), nil
		}
	}
	return 0, fmt.Errorf("no evaluation point found for node %d", v)
}

// evalPoly evaluates the polynomial with base-q digits p (constant term
// first, every digit < q) at x over F_q by Horner's rule. A round runs only
// while q² < numColors <= n < 2³¹, so q < 2¹⁶ and acc·x + p[t] < q² + q
// never overflows a word: the plain remainder is exact.
func evalPoly(p []uint64, x, q uint64) uint64 {
	acc := p[len(p)-1]
	for t := len(p) - 2; t >= 0; t-- {
		acc = (acc*x + p[t]) % q
	}
	return acc
}

// compact relabels colors in place to the dense range [0, k) in order of
// first appearance and returns k. Every colour lies in [0, numColors), so
// a flat table indexed by colour replaces a map.
func compact(colors []int, numColors int) int {
	id := make([]int32, numColors)
	for c := range id {
		id[c] = -1
	}
	k := int32(0)
	for v, c := range colors {
		if id[c] < 0 {
			id[c] = k
			k++
		}
		colors[v] = int(id[c])
	}
	return int(k)
}

// VerifyProper returns an error unless colors is a proper colouring of g.
func VerifyProper(g *graph.Graph, colors []int) error {
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			if colors[v] == colors[u] {
				return fmt.Errorf("nodes %d and %d share colour %d", v, u, colors[v])
			}
		}
	}
	return nil
}

// VerifyDistance2 returns an error unless colors is a distance-2 proper
// colouring of g (proper on G²). It runs at the pool's automatic worker
// count; use VerifyDistance2W to pin one.
func VerifyDistance2(g *graph.Graph, colors []int) error {
	return VerifyDistance2W(g, colors, 0)
}

// VerifyDistance2W is VerifyDistance2 sharded over vertex ranges on up to
// `workers` host workers. It walks each node's 2-hop neighbourhood in g
// itself — not in a squared graph, so a broken G² cannot vouch for itself
// — with no ball buffer and no sort. The reported pair is the serial
// scan's first violation at any worker count: the lowest v, then the
// lowest clashing u (each shard reports its lowest violating v, and shards
// fold in ascending order).
func VerifyDistance2W(g *graph.Graph, colors []int, workers int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("%d colours for %d nodes", len(colors), g.N())
	}
	type clash struct {
		v, u  graph.NodeID
		found bool
	}
	c := parallel.MapReduce(workers, g.N(), clash{}, func(lo, hi int) clash {
		for v := lo; v < hi; v++ {
			if u := distance2Clash(g, colors, graph.NodeID(v)); u >= 0 {
				return clash{graph.NodeID(v), u, true}
			}
		}
		return clash{}
	}, func(acc, part clash) clash {
		if acc.found {
			return acc
		}
		return part
	})
	if !c.found {
		return nil
	}
	return fmt.Errorf("nodes %d and %d within distance 2 share colour %d", c.v, c.u, colors[c.v])
}

// distance2Clash returns the lowest node u != v within distance 2 of v with
// v's colour, or -1 if there is none.
func distance2Clash(g *graph.Graph, colors []int, v graph.NodeID) graph.NodeID {
	cv, best := colors[v], graph.NodeID(-1)
	for _, u := range g.Neighbors(v) {
		if colors[u] == cv && (best < 0 || u < best) {
			best = u
		}
		for _, w := range g.Neighbors(u) {
			if w != v && colors[w] == cv && (best < 0 || w < best) {
				best = w
			}
		}
	}
	return best
}
