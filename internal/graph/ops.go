package graph

import (
	"slices"

	"repro/internal/parallel"
)

// CSR is a reusable destination buffer for the Into variants of the graph
// rebuild operations (WithoutNodesInto, InducedNodesInto, SubgraphEdgesInto,
// FromEdgesInto). Round loops keep two of them and ping-pong (see
// internal/scratch.BufPair) so each rebuild reads the previous round's graph
// while overwriting the buffer of the round before it, with zero
// steady-state allocation. The zero value is ready to use.
//
// The *Graph returned by an Into call aliases the buffer's storage and is
// valid only until the next Into call on the same buffer; callers that need
// a longer-lived snapshot use the allocating wrappers (WithoutNodes,
// InducedNodes, SubgraphEdges, FromEdges), which are Into with a fresh
// buffer.
type CSR struct {
	offsets []int32
	adj     []NodeID
	edges   []Edge  // canonicalised edge scratch for FromEdgesInto
	cursor  []int32 // per-node write cursor for FromEdgesInto
	rank    []int32 // id-to-position map of InducedNodesInto
	g       Graph
}

// detach returns the buffer's graph as a standalone value, so the one-shot
// allocating wrappers hand out graphs that pin only the offsets/adj arrays
// they reference — not the buffer struct with its edge and cursor scratch.
func (c *CSR) detach() *Graph {
	g := c.g
	return &g
}

// Grow returns buf with length n, reusing the backing array when capacity
// allows. Contents are unspecified — callers must overwrite the full range.
// It is the sizing helper behind every Into-style destination buffer in
// this repository (the CSR passes here, core.EdgeMinScratch, ...); it lives
// in this package because graph sits at the bottom of the import graph.
func Grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// WithoutNodes returns a graph on the same id space in which every node with
// remove[v] == true has been isolated (all incident edges dropped). Node ids
// are preserved, which keeps them stable across the iterations of the
// Luby-style loops in internal/matching and internal/mis. It runs at the
// pool's automatic worker count (one per CPU); use WithoutNodesW to pin one.
func (g *Graph) WithoutNodes(remove []bool) *Graph { return g.WithoutNodesW(remove, 0) }

// WithoutNodesW is WithoutNodes with the rebuild sharded over vertex ranges
// on up to `workers` host workers. The result is identical at any worker
// count.
func (g *Graph) WithoutNodesW(remove []bool, workers int) *Graph {
	dst := new(CSR)
	g.WithoutNodesInto(remove, workers, dst)
	return dst.detach()
}

// WithoutNodesInto is WithoutNodesW writing into dst instead of allocating.
// The returned graph aliases dst's storage (see CSR). The result is
// byte-identical to WithoutNodesW at any worker count and for any prior
// contents of dst.
func (g *Graph) WithoutNodesInto(remove []bool, workers int, dst *CSR) *Graph {
	if len(remove) != g.N() {
		panic("graph: WithoutNodes mask length mismatch")
	}
	return g.filterCSRInto(dst, workers, func(u, v NodeID) bool { return !remove[u] && !remove[v] })
}

// filterCSRInto builds into dst the subgraph keeping exactly the edges {u,v}
// with keep(u, v) == true, where keep must be symmetric. It filters the CSR
// arrays directly — two O(n+m) passes over cache-friendly contiguous slices,
// no sorting — instead of round-tripping through an edge list the way
// FromEdges does. Pass 1 counts surviving neighbours per node (sharded), a
// serial prefix sum lays out the new offsets, and pass 2 copies surviving
// neighbours into place (sharded, each node writing only its own range), so
// the result is deterministic at any worker count and neighbour lists stay
// sorted because the source lists are. Every destination slot is written, so
// a dirty dst (even one from a previous, larger graph) cannot leak into the
// result.
func (g *Graph) filterCSRInto(dst *CSR, workers int, keep func(u, v NodeID) bool) *Graph {
	if g == &dst.g {
		panic("graph: Into destination buffer backs the source graph")
	}
	n := g.N()
	offsets := Grow(dst.offsets, n+1)
	offsets[0] = 0
	parallel.ForEach(workers, n, func(v int) {
		cnt := int32(0)
		for _, u := range g.Neighbors(NodeID(v)) {
			if keep(NodeID(v), u) {
				cnt++
			}
		}
		offsets[v+1] = cnt
	})
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	adj := Grow(dst.adj, int(offsets[n]))
	parallel.ForEach(workers, n, func(v int) {
		w := offsets[v]
		for _, u := range g.Neighbors(NodeID(v)) {
			if keep(NodeID(v), u) {
				adj[w] = u
				w++
			}
		}
	})
	dst.offsets, dst.adj = offsets, adj
	dst.g = Graph{offsets: offsets, adj: adj, m: int(offsets[n]) / 2}
	return &dst.g
}

// SubgraphEdges returns the graph on the same id space containing exactly
// the given edges. Every edge must be an edge of g (checked), so the result
// is a subgraph.
func (g *Graph) SubgraphEdges(edges []Edge) *Graph {
	dst := new(CSR)
	g.SubgraphEdgesInto(edges, dst)
	return dst.detach()
}

// SubgraphEdgesInto is SubgraphEdges writing into dst instead of allocating.
// The returned graph aliases dst's storage (see CSR). edges must not alias
// dst's internal scratch (i.e. must not come from a previous FromEdgesInto
// on the same buffer).
func (g *Graph) SubgraphEdgesInto(edges []Edge, dst *CSR) *Graph {
	for _, e := range edges {
		if !g.HasEdge(e.U, e.V) {
			panic("graph: SubgraphEdges edge not present in graph")
		}
	}
	return FromEdgesInto(g.N(), edges, dst)
}

// InducedNodes returns the subgraph induced on ids — an ascending,
// duplicate-free list of g's nodes — relabelled onto compact ids: node i of
// the result is ids[i]. The relabelling preserves id order, so neighbour
// lists stay ascending and every (value, id) tie-break ranks the nodes
// exactly as it does on g's ids. It runs at the pool's automatic worker
// count; use InducedNodesW to pin one.
func (g *Graph) InducedNodes(ids []NodeID) *Graph { return g.InducedNodesW(ids, 0) }

// InducedNodesW is InducedNodes with the rebuild sharded over the id list
// on up to `workers` host workers. The result is identical at any worker
// count.
func (g *Graph) InducedNodesW(ids []NodeID, workers int) *Graph {
	dst := new(CSR)
	g.InducedNodesInto(ids, workers, dst)
	return dst.detach()
}

// InducedNodesInto is InducedNodesW writing into dst instead of allocating.
// The returned graph aliases dst's storage (see CSR). The seed-search round
// loops build their selection graphs with it, so a round's id space is its
// live set: one O(g.N()) rank wipe, then two sharded passes over the kept
// nodes' neighbour lists (count, prefix sum, fill) in the filterCSRInto
// layout. Every destination slot is written, so the result is
// byte-identical to InducedNodesW for any prior contents of dst.
func (g *Graph) InducedNodesInto(ids []NodeID, workers int, dst *CSR) *Graph {
	if g == &dst.g {
		panic("graph: Into destination buffer backs the source graph")
	}
	// rank[v] is 1 + v's position in ids, 0 for nodes outside it.
	rank := Grow(dst.rank, g.N())
	clear(rank)
	for i, v := range ids {
		if i > 0 && v <= ids[i-1] {
			panic("graph: InducedNodes ids not strictly ascending")
		}
		rank[v] = int32(i + 1)
	}
	k := len(ids)
	offsets := Grow(dst.offsets, k+1)
	offsets[0] = 0
	parallel.ForEach(workers, k, func(i int) {
		cnt := int32(0)
		for _, u := range g.Neighbors(ids[i]) {
			if rank[u] != 0 {
				cnt++
			}
		}
		offsets[i+1] = cnt
	})
	for i := 0; i < k; i++ {
		offsets[i+1] += offsets[i]
	}
	adj := Grow(dst.adj, int(offsets[k]))
	parallel.ForEach(workers, k, func(i int) {
		w := offsets[i]
		for _, u := range g.Neighbors(ids[i]) {
			if r := rank[u]; r != 0 {
				adj[w] = r - 1
				w++
			}
		}
	})
	dst.offsets, dst.adj, dst.rank = offsets, adj, rank
	dst.g = Graph{offsets: offsets, adj: adj, m: int(offsets[k]) / 2}
	return &dst.g
}

// LineGraph returns the line graph L(G) together with the canonical edge
// list of g: node i of L(G) corresponds to edges[i], and two L(G)-nodes are
// adjacent iff the corresponding g-edges share an endpoint. A maximal
// matching of g is exactly an MIS of L(G) (Section 5 of the paper uses this
// reduction for small Δ). It runs at the pool's automatic worker count; use
// LineGraphW to pin one.
func (g *Graph) LineGraph() (*Graph, []Edge) { return g.LineGraphW(0) }

// LineGraphW is LineGraph built directly into CSR on up to `workers` host
// workers; the result is identical at any worker count.
//
// Edge ids come from CSR positions, with no edge-to-id lookup table. The
// canonical list orders edges by (U, V), so node x's upper edges {x, u > x}
// — the tail of its sorted neighbour list — hold the consecutive ids ending
// just before upper[x+1], where upper is the prefix sum of upper-edge
// counts: the edge in slot j of N(x) has id upper[x+1] - (d(x) - j) when
// N(x)[j] > x, and a lower neighbour's id is found the same way from the
// neighbour's side, after a binary search for x in its list. Along any
// N(x) the ids therefore ascend, so the L(G) neighbour list of edge {u, v}
// is the merge of the id rows of u and v without the edge itself (the two
// rows share only that id), and its length d(u)+d(v)-2 is known up front:
// one sharded pass assigns ids, a prefix sum lays out offsets, and one
// sharded pass per edge fills its own range.
func (g *Graph) LineGraphW(workers int) (*Graph, []Edge) {
	n := g.N()
	edges := g.Edges()
	m := len(edges)
	upper := make([]int32, n+1)
	parallel.ForEach(workers, n, func(v int) {
		nbrs := g.Neighbors(NodeID(v))
		lower, _ := slices.BinarySearch(nbrs, NodeID(v))
		upper[v+1] = int32(len(nbrs) - lower)
	})
	for v := 0; v < n; v++ {
		upper[v+1] += upper[v]
	}
	// eid[i] is the id of the edge in CSR slot i of g.
	eid := make([]NodeID, len(g.adj))
	parallel.ForEach(workers, n, func(v int) {
		x := NodeID(v)
		base := g.offsets[v]
		nbrs := g.Neighbors(x)
		for j, u := range nbrs {
			if u > x {
				eid[base+int32(j)] = upper[v+1] - int32(len(nbrs)-j)
				continue
			}
			un := g.Neighbors(u)
			k, _ := slices.BinarySearch(un, x)
			eid[base+int32(j)] = upper[u+1] - int32(len(un)-k)
		}
	})
	offsets := make([]int32, m+1)
	parallel.ForEach(workers, m, func(i int) {
		offsets[i+1] = int32(g.Degree(edges[i].U) + g.Degree(edges[i].V) - 2)
	})
	for i := 0; i < m; i++ {
		offsets[i+1] += offsets[i]
	}
	adj := make([]NodeID, offsets[m])
	parallel.ForEach(workers, m, func(i int) {
		e, self := edges[i], NodeID(i)
		a := eid[g.offsets[e.U]:g.offsets[e.U+1]]
		b := eid[g.offsets[e.V]:g.offsets[e.V+1]]
		w := offsets[i]
		for len(a) > 0 || len(b) > 0 {
			var id NodeID
			if len(b) == 0 || (len(a) > 0 && a[0] < b[0]) {
				id, a = a[0], a[1:]
			} else {
				id, b = b[0], b[1:]
			}
			if id != self {
				adj[w] = id
				w++
			}
		}
	})
	return &Graph{offsets: offsets, adj: adj, m: int(offsets[m]) / 2}, edges
}

// Square returns G², the graph on the same nodes where u ~ v iff their
// distance in g is 1 or 2. Section 5 colours G² so that 2-hop neighbours get
// distinct colours. It runs at the pool's automatic worker count; use
// SquareW to pin one.
func (g *Graph) Square() *Graph { return g.SquareW(0) }

// SquareW is Square built directly into CSR on up to `workers` host
// workers; the result is identical at any worker count. Node v's G² list is
// N(v) ∪ N(N(v)) \ {v} (at most Δ+Δ² entries), deduplicated through a
// per-worker epoch-stamped mark table. A counting pass records each list's
// length, a prefix sum lays out the offsets, and a fill pass regathers
// each list into its own range and sorts it there — the filterCSRInto
// layout, with no edge list and no global sort.
func (g *Graph) SquareW(workers int) *Graph {
	n := g.N()
	scr := make([]twoHopScratch, parallel.Workers(workers))
	offsets := make([]int32, n+1)
	parallel.ForWorker(workers, n, func(w, lo, hi int) {
		s := &scr[w]
		for v := lo; v < hi; v++ {
			offsets[v+1] = int32(len(s.gather(g, NodeID(v))))
		}
	})
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	adj := make([]NodeID, offsets[n])
	parallel.ForWorker(workers, n, func(w, lo, hi int) {
		s := &scr[w]
		for v := lo; v < hi; v++ {
			row := adj[offsets[v]:offsets[v+1]]
			copy(row, s.gather(g, NodeID(v)))
			slices.Sort(row)
		}
	})
	return &Graph{offsets: offsets, adj: adj, m: int(offsets[n]) / 2}
}

// twoHopScratch is one worker's working state for one SquareW call: a
// mark table stamped with the current centre's epoch (mark[w] == gen means
// w is already in buf) and the gather buffer. A call gathers each of its
// n < 2³¹ centres twice, so the uint32 epoch never wraps.
type twoHopScratch struct {
	mark []uint32
	gen  uint32
	buf  []NodeID
}

// gather returns N(v) ∪ N(N(v)) \ {v}, deduplicated, in first-visit
// order. The slice aliases s.buf until the next call.
func (s *twoHopScratch) gather(g *Graph, v NodeID) []NodeID {
	if s.mark == nil {
		s.mark = make([]uint32, g.N())
	}
	s.gen++
	gen, mark := s.gen, s.mark
	mark[v] = gen
	buf := s.buf[:0]
	for _, u := range g.Neighbors(v) {
		if mark[u] != gen {
			mark[u] = gen
			buf = append(buf, u)
		}
		for _, w := range g.Neighbors(u) {
			if mark[w] != gen {
				mark[w] = gen
				buf = append(buf, w)
			}
		}
	}
	s.buf = buf
	return buf
}

// BallScratch is the reusable working state of BallInto: a visited table
// (touched entries are restored after each call) and the ball buffer.
// Per-node ball enumeration is the dominant preprocessing cost of the
// Section 5 path, so callers scanning many centres keep one scratch per
// worker instead of paying a map allocation per centre. The zero value is
// ready to use.
type BallScratch struct {
	dist []int32 // -1 = unvisited; sized lazily to the graph
	ball []NodeID
}

// Ball returns the set of nodes within distance r of v (including v),
// sorted. For r = 2 this is the "2-hop neighbourhood" whose size the
// algorithms must bound by the machine space S.
func (g *Graph) Ball(v NodeID, r int) []NodeID {
	return g.BallInto(new(BallScratch), v, r)
}

// BallInto is Ball drawing all working state from s. The returned slice
// aliases s.ball and is valid until the next call with the same scratch.
func (g *Graph) BallInto(s *BallScratch, v NodeID, r int) []NodeID {
	ball := g.BallBFSInto(s, v, r)
	slices.Sort(ball)
	return ball
}

// BallBFSInto is BallInto without the final sort: the ball comes back in
// BFS order (v first, then by distance), for callers that only aggregate
// over the set and need no order.
func (g *Graph) BallBFSInto(s *BallScratch, v NodeID, r int) []NodeID {
	n := g.N()
	if len(s.dist) < n {
		s.dist = make([]int32, n)
		for i := range s.dist {
			s.dist[i] = -1
		}
	}
	// BFS over the ball buffer itself: [head, tail) is the current
	// frontier, appends build the next one.
	ball := append(s.ball[:0], v)
	s.dist[v] = 0
	head := 0
	for d := 0; d < r; d++ {
		tail := len(ball)
		if head == tail {
			break
		}
		for ; head < tail; head++ {
			for _, w := range g.Neighbors(ball[head]) {
				if s.dist[w] < 0 {
					s.dist[w] = int32(d + 1)
					ball = append(ball, w)
				}
			}
		}
	}
	for _, u := range ball {
		s.dist[u] = -1
	}
	s.ball = ball
	return ball
}

// BallSizeMax returns the largest |Ball(v, r)| over all nodes; experiment T9
// uses it to demonstrate that 2-hop balls overflow machine space before
// sparsification and fit after.
func (g *Graph) BallSizeMax(r int) int {
	s := new(BallScratch)
	max := 0
	for v := 0; v < g.N(); v++ {
		if l := len(g.BallBFSInto(s, NodeID(v), r)); l > max {
			max = l
		}
	}
	return max
}

// ConnectedComponents returns a component label per node and the component
// count (used by tests and examples).
func (g *Graph) ConnectedComponents() ([]int, int) {
	label := make([]int, g.N())
	for i := range label {
		label[i] = -1
	}
	count := 0
	var stack []NodeID
	for s := 0; s < g.N(); s++ {
		if label[s] != -1 {
			continue
		}
		stack = append(stack[:0], NodeID(s))
		label[s] = count
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range g.Neighbors(v) {
				if label[u] == -1 {
					label[u] = count
					stack = append(stack, u)
				}
			}
		}
		count++
	}
	return label, count
}

// EdgeDegrees returns, for each edge in the canonical list, the edge degree
// d(e) = number of other edges sharing an endpoint = d(u)+d(v)-2.
func (g *Graph) EdgeDegrees(edges []Edge) []int {
	out := make([]int, len(edges))
	for i, e := range edges {
		out[i] = g.Degree(e.U) + g.Degree(e.V) - 2
	}
	return out
}
