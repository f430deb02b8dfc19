package graph

import (
	"fmt"
	"slices"
	"testing"
)

// rankedInduced is the reference for the compact InducedNodes: the same-id
// induce (keep the edges with both endpoints in ids, through the edge-list
// referenceFilter) followed by a rank map from ids to their positions.
func rankedInduced(g *Graph, ids []NodeID) *Graph {
	in := make([]bool, g.N())
	rank := make([]NodeID, g.N())
	for i, v := range ids {
		in[v] = true
		rank[v] = NodeID(i)
	}
	same := referenceFilter(g, func(u, v NodeID) bool { return in[u] && in[v] })
	var edges []Edge
	for _, e := range same.Edges() {
		edges = append(edges, Edge{rank[e.U], rank[e.V]})
	}
	return FromEdges(len(ids), edges)
}

// checkAscending fails unless every neighbour list of g is strictly
// ascending (what HasEdge's binary search and the selections rely on).
func checkAscending(t *testing.T, label string, g *Graph) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		nbrs := g.Neighbors(NodeID(v))
		for i := 1; i < len(nbrs); i++ {
			if nbrs[i-1] >= nbrs[i] {
				t.Fatalf("%s: node %d neighbours not strictly ascending: %v", label, v, nbrs)
			}
		}
	}
}

// idsOf returns the ascending ids v of an n-node graph with keep(v).
func idsOf(n int, keep func(v int) bool) []NodeID {
	var ids []NodeID
	for v := 0; v < n; v++ {
		if keep(v) {
			ids = append(ids, NodeID(v))
		}
	}
	return ids
}

// TestInducedNodesMatchesRankedReference pins the compact induce against
// the same-id induce plus rank map, on one destination buffer left dirty by
// a larger graph before every call, at workers 1/2/8, over empty, edgeless,
// isolated-node and random graphs and live sets from empty to full.
func TestInducedNodesMatchesRankedReference(t *testing.T) {
	isolated := FromEdges(40, []Edge{{0, 1}, {1, 2}, {5, 9}, {30, 31}})
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"empty", Empty(0)},
		{"edgeless", Empty(25)},
		{"isolated", isolated},
		{"sparse", pseudoGraph(333, 40, 3)},
		{"dense", pseudoGraph(200, 1500, 4)},
	}
	keeps := []struct {
		name string
		keep func(v int) bool
	}{
		{"none", func(int) bool { return false }},
		{"all", func(int) bool { return true }},
		{"third", func(v int) bool { return v%3 == 0 }},
		{"low", func(v int) bool { return v < 17 }},
		{"scattered", func(v int) bool { return v*7%11 < 4 }},
	}
	dst := new(CSR)
	for _, gc := range graphs {
		for _, kc := range keeps {
			ids := idsOf(gc.g.N(), kc.keep)
			want := rankedInduced(gc.g, ids)
			for _, workers := range []int{1, 2, 8} {
				label := fmt.Sprintf("%s/%s/workers=%d", gc.name, kc.name, workers)
				dirty(dst, gc.g.N()+40)
				got := gc.g.InducedNodesInto(ids, workers, dst)
				if !got.Same(want) {
					t.Fatalf("%s: got %v, want %v", label, got, want)
				}
				checkAscending(t, label, got)
				if alloc := gc.g.InducedNodesW(ids, workers); !alloc.Same(want) {
					t.Fatalf("%s: InducedNodesW differs from the reference", label)
				}
			}
		}
	}
}

// TestInducedNodesRejectsUnsortedIDs pins the input check: the relabel is
// order-preserving only over an ascending, duplicate-free id list.
func TestInducedNodesRejectsUnsortedIDs(t *testing.T) {
	g := pseudoGraph(20, 60, 9)
	for _, ids := range [][]NodeID{{3, 1}, {2, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("InducedNodes(%v) did not panic", ids)
				}
			}()
			g.InducedNodes(ids)
		}()
	}
}

// FuzzInducedNodesMatchesRankedReference drives the compact induce with
// arbitrary graphs and live sets, on a dirty destination at workers 1/2/8,
// against the same-id induce plus rank map.
func FuzzInducedNodesMatchesRankedReference(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 0, 9, 17}, uint64(0b1010))
	f.Add([]byte{5, 5, 1, 2}, ^uint64(0))
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint64(0x8000000000000001))
	f.Fuzz(func(t *testing.T, raw []byte, keepBits uint64) {
		n := 1 + len(raw)%64
		var edges []Edge
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{NodeID(int(raw[i]) % n), NodeID(int(raw[i+1]) % n)})
		}
		g := FromEdges(n, edges)
		ids := idsOf(n, func(v int) bool { return keepBits&(1<<(v%64)) != 0 })
		want := rankedInduced(g, ids)
		dst := new(CSR)
		for _, workers := range []int{1, 2, 8} {
			dirty(dst, n+16)
			got := g.InducedNodesInto(ids, workers, dst)
			if !got.Same(want) {
				t.Fatalf("workers=%d ids=%v: got %v, want %v", workers, ids, got, want)
			}
			checkAscending(t, "fuzz", got)
		}
	})
}

// referenceFromEdges builds the CSR of an edge list the plain way: drop
// self loops, canonicalise and deduplicate, then sort every neighbour list
// on its own.
func referenceFromEdges(n int, edges []Edge) *Graph {
	seen := map[Edge]bool{}
	lists := make([][]NodeID, n)
	m := 0
	for _, e := range edges {
		if e.U == e.V || seen[e.Canon()] {
			continue
		}
		seen[e.Canon()] = true
		lists[e.U] = append(lists[e.U], e.V)
		lists[e.V] = append(lists[e.V], e.U)
		m++
	}
	offsets := make([]int32, n+1)
	var adj []NodeID
	for v, l := range lists {
		slices.Sort(l)
		adj = append(adj, l...)
		offsets[v+1] = int32(len(adj))
	}
	return &Graph{offsets: offsets, adj: adj, m: m}
}

// FuzzFromEdgesSortedMatchesReference checks that FromEdgesInto, which
// relies on its (U,V)-sorted fill instead of sorting each neighbour list,
// yields strictly ascending lists and the same graph as the plain
// per-list-sort reference and as a Builder, on unsorted input with
// duplicates (in both orientations) and self loops, into a dirty buffer.
func FuzzFromEdgesSortedMatchesReference(f *testing.F) {
	f.Add([]byte{3, 1, 1, 3, 2, 2, 0, 3, 3, 0, 1, 0})
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add([]byte{4, 4, 4, 4})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := 1 + len(raw)%40
		var edges []Edge
		b := NewBuilder(n)
		for i := 0; i+1 < len(raw); i += 2 {
			u, v := NodeID(int(raw[i])%n), NodeID(int(raw[i+1])%n)
			edges = append(edges, Edge{u, v})
			b.AddEdge(u, v)
		}
		want := referenceFromEdges(n, edges)
		dst := new(CSR)
		dirty(dst, n+16)
		got := FromEdgesInto(n, edges, dst)
		checkAscending(t, "FromEdgesInto", got)
		if !got.Same(want) {
			t.Fatalf("FromEdgesInto %v, reference %v", got, want)
		}
		if bg := b.Build(); !bg.Same(want) {
			t.Fatalf("Builder %v, reference %v", bg, want)
		}
	})
}
