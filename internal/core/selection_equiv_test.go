package core

// Equivalence tests for the per-round selections: LocalMinEdgesZ /
// LocalMinEdgesSel / LocalMinNodesSel must match eager reference
// implementations on DIRTY, reused scratch — across id spaces that shrink
// and then grow again, so tables sized for a larger graph sit under a
// smaller one — and, for the compact rounds the seed searches run, after
// relabelling the round's live set onto ids 0..k-1. The references below
// re-derive the selection from the definition on the original ids and
// fresh state every call, so any stale-table leak or relabelling slip
// shows up as a diff.

import (
	"fmt"
	"testing"

	"repro/internal/detrand"
	"repro/internal/graph"
	"repro/internal/graph/gen"
)

// eagerLocalMinEdges is the Section 3.3 selection from the definition: an
// edge is selected iff its (z, key) strictly precedes every edge sharing an
// endpoint. Quadratic and allocation-eager on purpose.
func eagerLocalMinEdges(n int, edges []graph.Edge, z []uint64) []graph.Edge {
	var out []graph.Edge
	for i, e := range edges {
		ki := ZKey{z[i], e.Key(n)}
		ok := true
		for j, f := range edges {
			if i == j {
				continue
			}
			if e.U == f.U || e.U == f.V || e.V == f.U || e.V == f.V {
				if !ki.Less(ZKey{z[j], f.Key(n)}) {
					ok = false
					break
				}
			}
		}
		if ok {
			out = append(out, e)
		}
	}
	return out
}

// eagerLocalMinNodes is the Section 4.3 selection from the definition,
// with z indexed by node id.
func eagerLocalMinNodes(q *graph.Graph, inQ []bool, z []uint64) []graph.NodeID {
	var out []graph.NodeID
	for v := 0; v < q.N(); v++ {
		if !inQ[v] {
			continue
		}
		kv := ZKey{z[v], uint64(v)}
		ok := true
		for _, u := range q.Neighbors(graph.NodeID(v)) {
			if inQ[u] && !kv.Less(ZKey{z[u], uint64(u)}) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

func edgesEqual(t *testing.T, label string, got, want []graph.Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: edge %d is %v, want %v", label, i, got[i], want[i])
		}
	}
}

func nodesEqual(t *testing.T, label string, got, want []graph.NodeID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d nodes, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: node %d is %d, want %d", label, i, got[i], want[i])
		}
	}
}

// selectionWorkloads is a shrink-then-grow id-space sequence: the scratch
// reused across entries first sizes its tables for n = 384, then runs two
// smaller graphs on the dirty larger tables, then grows past the original
// size so zeroed fresh segments mix with stale ones.
var selectionWorkloads = []struct {
	family string
	n, avg int
	seed   uint64
}{
	{"gnm", 384, 8, 1},
	{"gnm", 64, 6, 2},
	{"regular", 96, 4, 3},
	{"powerlaw", 512, 6, 4},
	{"grid", 100, 4, 5},
}

// zFill fills z[i] for each key index with either packed-friendly small
// values (z < zCap) or full-width draws, from a deterministic source.
func zFill(z []uint64, src *detrand.Source, zCap uint64) {
	for i := range z {
		if zCap > 0 {
			z[i] = src.Uint64() % zCap
		} else {
			z[i] = src.Uint64()
		}
	}
}

// TestLocalMinEdgesStampedMatchesEagerOnDirtyScratch drives ONE edge
// scratch through shrinking-then-growing graphs on the full id space,
// through both the per-call wrapper and a per-round plan, packed and struct
// paths both.
func TestLocalMinEdgesStampedMatchesEagerOnDirtyScratch(t *testing.T) {
	var s EdgeMinScratch // ONE scratch for the whole table: every call after the first runs dirty
	src := detrand.New(7)
	for round := 0; round < 3; round++ {
		for _, w := range selectionWorkloads {
			g, err := gen.ByName(w.family, w.n, w.avg, w.seed)
			if err != nil {
				t.Fatal(err)
			}
			edges := g.Edges()
			z := make([]uint64, len(edges))
			// Small z exercises the packed path, full-width the ZKey path.
			for _, zCap := range []uint64{EdgeField(g.N()), 0} {
				zFill(z, src, zCap)
				want := eagerLocalMinEdges(g.N(), edges, z)
				label := fmt.Sprintf("round %d %s/n=%d zCap=%d", round, w.family, w.n, zCap)
				edgesEqual(t, label+" (Z)", LocalMinEdgesZ(&s, g, edges, z), want)

				var sel EdgeSel
				zMax := zCap - 1
				if zCap == 0 {
					zMax = ^uint64(0)
				}
				EdgeSelInit(&sel, g.N(), edges, nil, zMax)
				edgesEqual(t, label+" (Sel)", LocalMinEdgesSel(&s, &sel, z), want)
			}
		}
	}
}

// compactNodeSelect runs one node selection the way the seed searches do:
// the live set of inQ becomes the plan (on one reused, dirty sel), the
// selection graph is g induced on it with compact ids, z is gathered from
// the id-indexed zFull, and the compact result is mapped back to g's ids.
func compactNodeSelect(sel *NodeSel, g *graph.Graph, inQ []bool, zFull []uint64, zMax uint64) []graph.NodeID {
	var ids []graph.NodeID
	for v, in := range inQ {
		if in {
			ids = append(ids, graph.NodeID(v))
		}
	}
	sel.Init(ids, func(v graph.NodeID) uint64 { return uint64(v) }, zMax)
	z := make([]uint64, len(sel.Live()))
	for i, v := range sel.Live() {
		z[i] = zFull[v]
	}
	out := LocalMinNodesSel(nil, g.InducedNodes(ids), sel, z)
	for i, c := range out {
		out[i] = sel.Live()[c]
	}
	return out
}

// compactEdgeSelect runs one edge selection the way the matching round
// does: the edge list's endpoints are ranked in id order, the plan is built
// over the relabelled edges, and the selected edges are mapped back.
func compactEdgeSelect(s *EdgeMinScratch, n int, edges []graph.Edge, z []uint64, zMax uint64) []graph.Edge {
	rank := make([]graph.NodeID, n)
	for _, e := range edges {
		rank[e.U], rank[e.V] = 1, 1
	}
	var ids []graph.NodeID
	for v := range rank {
		if rank[v] != 0 {
			rank[v] = graph.NodeID(len(ids))
			ids = append(ids, graph.NodeID(v))
		}
	}
	cedges := make([]graph.Edge, len(edges))
	for i, e := range edges {
		cedges[i] = graph.Edge{U: rank[e.U], V: rank[e.V]}
	}
	var sel EdgeSel
	EdgeSelInit(&sel, len(ids), cedges, nil, zMax)
	var out []graph.Edge
	for _, e := range LocalMinEdgesSel(s, &sel, z) {
		out = append(out, graph.Edge{U: ids[e.U], V: ids[e.V]})
	}
	return out
}

// zMaxOf is the inclusive z bound of zFill's regime: zCap-1, or all-ones
// for full-width draws (zCap 0).
func zMaxOf(zCap uint64) uint64 {
	if zCap == 0 {
		return ^uint64(0)
	}
	return zCap - 1
}

// TestNodeSelStampedMatchesEagerOnDirtyScratch drives ONE NodeSel through
// shrinking-then-growing graphs and changing live masks, comparing the
// compact LocalMinNodesSel (mapped back) against the eager id-indexed
// reference, packed and struct paths both.
func TestNodeSelStampedMatchesEagerOnDirtyScratch(t *testing.T) {
	var sel NodeSel
	src := detrand.New(23)
	for round := 0; round < 3; round++ {
		for _, w := range selectionWorkloads {
			g, err := gen.ByName(w.family, w.n, w.avg, w.seed)
			if err != nil {
				t.Fatal(err)
			}
			n := g.N()
			inQ := make([]bool, n)
			for v := range inQ {
				inQ[v] = src.Uint64()%4 != 0 // ~3/4 live, varies per round
			}
			zFull := make([]uint64, n)
			for _, zCap := range []uint64{EdgeField(n), 0} {
				zFill(zFull, src, zCap)
				got := compactNodeSelect(&sel, g, inQ, zFull, zMaxOf(zCap))
				want := eagerLocalMinNodes(g, inQ, zFull)
				nodesEqual(t, fmt.Sprintf("round %d %s/n=%d zCap=%d", round, w.family, w.n, zCap), got, want)

				// The mask-indexed kernel form must agree as well.
				nodesEqual(t, fmt.Sprintf("round %d %s/n=%d zCap=%d (Z)", round, w.family, w.n, zCap),
					LocalMinNodesZ(nil, g, inQ, zFull), want)
			}
		}
	}
}

// TestLocalMinNodesSelBranchEquivalence pins the selection variants of the
// per-round node plan to one answer: the packed single-word scan, the
// unpacked ZKey fallback (z values too wide to pack), and the eager closure
// reference (LocalMinNodes) — over a full live set and over a half-density
// one, each selected on its compact induced graph. The (z, id) order is
// identical under every variant, so the sets must match node for node.
func TestLocalMinNodesSelBranchEquivalence(t *testing.T) {
	g := gen.GNM(200, 420, 5)
	n := g.N()
	zFull := make([]uint64, n)
	for v := range zFull {
		zFull[v] = (uint64(v)*2654435761 + 17) % 997 // small values + ties
	}
	zFull[0], zFull[2] = zFull[4], zFull[4] // a three-way tie among live nodes
	for _, tc := range []struct {
		name string
		keep func(v int) bool
	}{
		{"full", func(v int) bool { return true }},
		{"half", func(v int) bool { return v%2 == 0 }},
	} {
		inQ := make([]bool, n)
		for v := 0; v < n; v++ {
			inQ[v] = tc.keep(v)
		}
		eager := LocalMinNodes(g, inQ, func(v graph.NodeID) uint64 { return zFull[v] })
		var sel NodeSel
		packed := compactNodeSelect(&sel, g, inQ, zFull, 996)
		if !sel.packed {
			t.Fatalf("%s: zMax 996 did not take the packed path", tc.name)
		}
		unpacked := compactNodeSelect(&sel, g, inQ, zFull, ^uint64(0))
		if sel.packed {
			t.Fatalf("%s: full-width zMax took the packed path", tc.name)
		}
		nodesEqual(t, tc.name+"/packed", packed, eager)
		nodesEqual(t, tc.name+"/unpacked", unpacked, eager)
		if len(eager) == 0 {
			t.Fatalf("%s: no nodes selected on a non-empty live set", tc.name)
		}
	}
}

// TestCompactRoundMatchesEager is the round-level equivalence of the
// compact ids: on random graphs whose live sets are under n/4 — rounds that
// select on a small part of the id space — the node selection on the
// induced compact graph and the edge selection on the endpoint-ranked edge
// list, mapped back, must equal the eager selections on the original ids.
// One NodeSel and one EdgeMinScratch serve the whole table dirty.
func TestCompactRoundMatchesEager(t *testing.T) {
	var sel NodeSel
	var s EdgeMinScratch
	src := detrand.New(31)
	for _, w := range selectionWorkloads {
		for _, frac := range []uint64{5, 8, 16} {
			g, err := gen.ByName(w.family, w.n, w.avg, w.seed+frac)
			if err != nil {
				t.Fatal(err)
			}
			n := g.N()
			inQ := make([]bool, n)
			live := 0
			for v := range inQ {
				inQ[v] = src.Uint64()%frac == 0
				if inQ[v] {
					live++
				}
			}
			if 4*live >= n {
				t.Fatalf("%s/n=%d: live set %d not under n/4", w.family, n, live)
			}
			var edges []graph.Edge
			for _, e := range g.Edges() {
				if inQ[e.U] || inQ[e.V] {
					edges = append(edges, e)
				}
			}
			zFull := make([]uint64, n)
			z := make([]uint64, len(edges))
			for _, zCap := range []uint64{EdgeField(n), 0} {
				label := fmt.Sprintf("%s/n=%d 1/%d zCap=%d", w.family, n, frac, zCap)
				zFill(zFull, src, zCap)
				nodesEqual(t, label+" nodes", compactNodeSelect(&sel, g, inQ, zFull, zMaxOf(zCap)), eagerLocalMinNodes(g, inQ, zFull))
				zFill(z, src, zCap)
				edgesEqual(t, label+" edges", compactEdgeSelect(&s, n, edges, z, zMaxOf(zCap)), eagerLocalMinEdges(n, edges, z))
			}
		}
	}
}

// FuzzSelectionStampedMatchesEager feeds arbitrary edge sets and z values
// through the selections on process-lifetime dirty scratch — the edge
// wrapper on the full id space and the compact node and edge rounds — and
// demands agreement with the eager references. The corpus mixes packed and
// full-width z regimes via the raw bytes.
func FuzzSelectionStampedMatchesEager(f *testing.F) {
	f.Add(uint64(1), []byte{1, 2, 2, 3, 0, 3}, false)
	f.Add(uint64(42), []byte{0, 1, 1, 2, 2, 0, 3, 4}, true)
	f.Add(uint64(9), []byte{7, 3, 3, 1, 0, 7, 5, 6, 6, 7}, false)
	var s EdgeMinScratch // shared across fuzz invocations: always dirty
	var sel NodeSel
	f.Fuzz(func(t *testing.T, zseed uint64, raw []byte, fullWidth bool) {
		if len(raw) < 2 {
			t.Skip()
		}
		n := 2 + int(raw[0]%32)
		// Decode an edge set from byte pairs, dropping loops and dupes.
		seen := map[graph.Edge]bool{}
		var edges []graph.Edge
		for i := 0; i+1 < len(raw); i += 2 {
			u, v := graph.NodeID(int(raw[i])%n), graph.NodeID(int(raw[i+1])%n)
			if u == v {
				continue
			}
			e := graph.Edge{U: u, V: v}.Canon()
			if !seen[e] {
				seen[e] = true
				edges = append(edges, e)
			}
		}
		g := graph.FromEdges(n, edges)
		edges = g.Edges() // canonical order
		src := detrand.New(zseed)
		zCap := EdgeField(n)
		if fullWidth {
			zCap = 0
		}
		z := make([]uint64, len(edges))
		zFill(z, src, zCap)
		want := eagerLocalMinEdges(n, edges, z)
		edgesEqual(t, "fuzz edges", LocalMinEdgesZ(&s, g, edges, z), want)
		edgesEqual(t, "fuzz compact edges", compactEdgeSelect(&s, n, edges, z, zMaxOf(zCap)), want)

		inQ := make([]bool, n)
		zFull := make([]uint64, n)
		for v := range inQ {
			inQ[v] = src.Uint64()%4 != 0
		}
		zFill(zFull, src, zCap)
		nodesEqual(t, "fuzz nodes", compactNodeSelect(&sel, g, inQ, zFull, zMaxOf(zCap)), eagerLocalMinNodes(g, inQ, zFull))
	})
}
