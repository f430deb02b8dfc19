package graph_test

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
)

// referenceSquare is the original map-and-Builder construction of G²: every
// pair at distance 1 or 2 goes through a seen-set into a Builder, whose
// FromEdges sort lays out the CSR.
func referenceSquare(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.N())
	seen := make(map[int64]struct{})
	addOnce := func(u, v graph.NodeID) {
		if u == v {
			return
		}
		a, c := u, v
		if a > c {
			a, c = c, a
		}
		k := int64(a)<<32 | int64(c)
		if _, ok := seen[k]; ok {
			return
		}
		seen[k] = struct{}{}
		b.AddEdge(u, v)
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			addOnce(graph.NodeID(u), v)
			for _, w := range g.Neighbors(v) {
				addOnce(graph.NodeID(u), w)
			}
		}
	}
	return b.Build()
}

// referenceLineGraph is the original line-graph construction: edge ids from
// a map over the canonical edge list, and every pair of edges sharing an
// endpoint added to a Builder.
func referenceLineGraph(g *graph.Graph) (*graph.Graph, []graph.Edge) {
	edges := g.Edges()
	index := make(map[graph.Edge]int32, len(edges))
	for i, e := range edges {
		index[e] = int32(i)
	}
	b := graph.NewBuilder(len(edges))
	var ids []int32
	for v := 0; v < g.N(); v++ {
		nbrs := g.Neighbors(graph.NodeID(v))
		ids = ids[:0]
		for _, u := range nbrs {
			ids = append(ids, index[graph.Edge{U: graph.NodeID(v), V: u}.Canon()])
		}
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				b.AddEdge(ids[i], ids[j])
			}
		}
	}
	return b.Build(), edges
}

// section5Fixtures covers the shapes the Section 5 preprocessing meets:
// bounded-degree regular graphs, random and skewed degree distributions, a
// hub, a path, and the degenerate empty and edgeless graphs.
func section5Fixtures() map[string]*graph.Graph {
	isolated := graph.NewBuilder(40)
	isolated.AddEdge(3, 7)
	isolated.AddEdge(7, 11)
	isolated.AddEdge(20, 39)
	return map[string]*graph.Graph{
		"regular4": gen.RandomRegular(512, 4, 1),
		"regular6": gen.RandomRegular(300, 6, 2),
		"gnm":      gen.GNM(400, 1200, 3),
		"powerlaw": gen.PowerLaw(400, 1600, 2.1, 4),
		"star":     gen.Star(60),
		"path":     gen.Path(77),
		"empty":    graph.Empty(0),
		"edgeless": graph.Empty(9),
		"isolated": isolated.Build(),
	}
}

// sameCSR reports whether a and b are identical graphs, checked both ways:
// CSR equality through Same and the canonical edge lists.
func sameCSR(a, b *graph.Graph) bool {
	return a.Same(b) && slices.Equal(a.Edges(), b.Edges())
}

// TestSquareMatchesReference pins the CSR-direct G² against the map and
// Builder reference at several worker counts.
func TestSquareMatchesReference(t *testing.T) {
	for name, g := range section5Fixtures() {
		want := referenceSquare(g)
		for _, workers := range []int{1, 2, 8} {
			if got := g.SquareW(workers); !sameCSR(got, want) {
				t.Errorf("%s workers=%d: SquareW differs from reference (m=%d, want %d)", name, workers, got.M(), want.M())
			}
		}
		if !sameCSR(g.Square(), want) {
			t.Errorf("%s: Square differs from reference", name)
		}
	}
}

// TestLineGraphMatchesReference pins the position-derived line graph and
// its edge list against the map-indexed Builder reference at several worker
// counts.
func TestLineGraphMatchesReference(t *testing.T) {
	for name, g := range section5Fixtures() {
		want, wantEdges := referenceLineGraph(g)
		for _, workers := range []int{1, 2, 8} {
			got, edges := g.LineGraphW(workers)
			if !sameCSR(got, want) {
				t.Errorf("%s workers=%d: LineGraphW differs from reference (m=%d, want %d)", name, workers, got.M(), want.M())
			}
			if !slices.Equal(edges, wantEdges) {
				t.Errorf("%s workers=%d: LineGraphW edge list differs from reference", name, workers)
			}
		}
	}
}

// FuzzSquareLineGraph checks both constructions against their references on
// arbitrary small multigraph inputs (duplicates and self loops are dropped
// by the builder), and the unsorted ball walk against the sorted ball.
func FuzzSquareLineGraph(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 0})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5})
	f.Add([]byte{5, 5, 1, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		const n = 24
		b := graph.NewBuilder(n)
		for i := 0; i+1 < len(raw); i += 2 {
			b.AddEdge(graph.NodeID(int(raw[i])%n), graph.NodeID(int(raw[i+1])%n))
		}
		g := b.Build()
		sq := referenceSquare(g)
		lg, edges := referenceLineGraph(g)
		for _, workers := range []int{1, 2, 8} {
			if !sameCSR(g.SquareW(workers), sq) {
				t.Fatalf("workers=%d: SquareW differs from reference", workers)
			}
			gotLG, gotEdges := g.LineGraphW(workers)
			if !sameCSR(gotLG, lg) || !slices.Equal(gotEdges, edges) {
				t.Fatalf("workers=%d: LineGraphW differs from reference", workers)
			}
		}
		bs := new(graph.BallScratch)
		for v := 0; v < n; v++ {
			walk := slices.Clone(g.BallBFSInto(bs, graph.NodeID(v), 3))
			slices.Sort(walk)
			if !slices.Equal(walk, g.Ball(graph.NodeID(v), 3)) {
				t.Fatalf("node %d: BallBFSInto holds a different set than Ball", v)
			}
		}
	})
}
