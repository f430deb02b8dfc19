package graph

import (
	"testing"
	"testing/quick"
)

func triangle() *Graph {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	return b.Build()
}

func TestEmptyGraph(t *testing.T) {
	g := Empty(5)
	if g.N() != 5 || g.M() != 0 || g.MaxDegree() != 0 {
		t.Errorf("Empty(5): n=%d m=%d Δ=%d", g.N(), g.M(), g.MaxDegree())
	}
	var zero Graph
	if zero.N() != 0 || zero.M() != 0 {
		t.Error("zero-value Graph should be the empty graph")
	}
}

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self loop
	b.AddEdge(2, 3)
	g := b.Build()
	if g.M() != 2 {
		t.Errorf("M = %d, want 2", g.M())
	}
	if g.Degree(2) != 1 {
		t.Errorf("self loop not dropped: deg(2)=%d", g.Degree(2))
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddEdge out of range did not panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

func TestTriangleBasics(t *testing.T) {
	g := triangle()
	if g.N() != 3 || g.M() != 3 || g.MaxDegree() != 2 {
		t.Fatalf("triangle wrong: %v", g)
	}
	for v := NodeID(0); v < 3; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("deg(%d) = %d", v, g.Degree(v))
		}
	}
	if !g.HasEdge(0, 2) || g.HasEdge(0, 0) {
		t.Error("HasEdge wrong")
	}
}

func TestNeighborsSorted(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(3, 5)
	b.AddEdge(3, 1)
	b.AddEdge(3, 4)
	b.AddEdge(3, 0)
	g := b.Build()
	nbrs := g.Neighbors(3)
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i-1] >= nbrs[i] {
			t.Fatalf("neighbours not sorted: %v", nbrs)
		}
	}
}

func TestEdgesCanonicalAndComplete(t *testing.T) {
	g := triangle()
	edges := g.Edges()
	if len(edges) != 3 {
		t.Fatalf("|edges| = %d", len(edges))
	}
	for _, e := range edges {
		if e.U >= e.V {
			t.Errorf("edge not canonical: %v", e)
		}
		if !g.HasEdge(e.U, e.V) {
			t.Errorf("edge list contains non-edge %v", e)
		}
	}
}

func TestEdgeKeyInjective(t *testing.T) {
	n := 50
	seen := map[uint64]Edge{}
	for u := int32(0); u < int32(n); u++ {
		for v := u + 1; v < int32(n); v++ {
			e := Edge{u, v}
			k := e.Key(n)
			if prev, dup := seen[k]; dup {
				t.Fatalf("key collision: %v and %v -> %d", prev, e, k)
			}
			seen[k] = e
		}
	}
	// Canonicalisation: both orientations give the same key.
	if (Edge{7, 3}).Key(n) != (Edge{3, 7}).Key(n) {
		t.Error("Key not orientation-invariant")
	}
}

func TestWithoutNodes(t *testing.T) {
	g := triangle()
	h := g.WithoutNodes([]bool{true, false, false})
	if h.N() != 3 {
		t.Fatalf("id space changed: n=%d", h.N())
	}
	if h.M() != 1 || !h.HasEdge(1, 2) || h.Degree(0) != 0 {
		t.Errorf("WithoutNodes wrong: m=%d", h.M())
	}
}

func TestInducedNodes(t *testing.T) {
	// Path 0-1-2-3; induce on {1,2,3}: edges 1-2 and 2-3 survive, as
	// 0-1 and 1-2 on the compact ids.
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	h := g.InducedNodes([]NodeID{1, 2, 3})
	if h.N() != 3 || h.M() != 2 || !h.HasEdge(0, 1) || !h.HasEdge(1, 2) {
		t.Errorf("InducedNodes wrong: n=%d m=%d", h.N(), h.M())
	}
}

func TestSubgraphEdgesValidates(t *testing.T) {
	g := Path(4)
	defer func() {
		if recover() == nil {
			t.Error("SubgraphEdges with non-edge did not panic")
		}
	}()
	g.SubgraphEdges([]Edge{{0, 3}})
}

func Path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(NodeID(i), NodeID(i+1))
	}
	return b.Build()
}

func TestLineGraphOfTriangle(t *testing.T) {
	// L(K3) = K3.
	lg, edges := triangle().LineGraph()
	if lg.N() != 3 || lg.M() != 3 {
		t.Errorf("L(K3): n=%d m=%d, want 3,3", lg.N(), lg.M())
	}
	if len(edges) != 3 {
		t.Errorf("edge list length %d", len(edges))
	}
}

func TestLineGraphOfPath(t *testing.T) {
	// L(P4) = P3.
	lg, _ := Path(4).LineGraph()
	if lg.N() != 3 || lg.M() != 2 {
		t.Errorf("L(P4): n=%d m=%d, want 3,2", lg.N(), lg.M())
	}
}

func TestLineGraphDegreeIdentity(t *testing.T) {
	// d_L(e) = d(u) + d(v) - 2 for e = {u,v}.
	b := NewBuilder(7)
	for _, e := range [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {3, 4}, {4, 5}, {5, 6}, {3, 6}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	lg, edges := g.LineGraph()
	for i, e := range edges {
		want := g.Degree(e.U) + g.Degree(e.V) - 2
		if got := lg.Degree(NodeID(i)); got != want {
			t.Errorf("d_L(%v) = %d, want %d", e, got, want)
		}
	}
}

func TestSquareOfPath(t *testing.T) {
	// P5 squared: node 2 additionally sees 0 and 4.
	g := Path(5).Square()
	if !g.HasEdge(0, 2) || !g.HasEdge(2, 4) || g.HasEdge(0, 3) {
		t.Error("Square of P5 wrong")
	}
	if g.Degree(2) != 4 {
		t.Errorf("deg_G2(2) = %d, want 4", g.Degree(2))
	}
}

func TestSquareContainsOriginal(t *testing.T) {
	g := triangle()
	sq := g.Square()
	for _, e := range g.Edges() {
		if !sq.HasEdge(e.U, e.V) {
			t.Errorf("G² missing original edge %v", e)
		}
	}
}

func TestBall(t *testing.T) {
	g := Path(7)
	ball := g.Ball(3, 2)
	want := []NodeID{1, 2, 3, 4, 5}
	if len(ball) != len(want) {
		t.Fatalf("Ball(3,2) = %v, want %v", ball, want)
	}
	for i := range want {
		if ball[i] != want[i] {
			t.Fatalf("Ball(3,2) = %v, want %v", ball, want)
		}
	}
	if s := g.BallSizeMax(1); s != 3 {
		t.Errorf("BallSizeMax(1) = %d, want 3", s)
	}
}

func TestBallRadiusZero(t *testing.T) {
	g := triangle()
	if ball := g.Ball(1, 0); len(ball) != 1 || ball[0] != 1 {
		t.Errorf("Ball(v,0) = %v", ball)
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g := b.Build()
	label, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("components = %d, want 3", count)
	}
	if label[0] != label[2] || label[3] != label[4] || label[0] == label[3] || label[5] == label[0] {
		t.Errorf("labels wrong: %v", label)
	}
}

func TestEdgeDegrees(t *testing.T) {
	g := triangle()
	edges := g.Edges()
	for i, d := range g.EdgeDegrees(edges) {
		if d != 2 {
			t.Errorf("edge degree of %v = %d, want 2", edges[i], d)
		}
	}
}

func TestDegreeSumIsTwiceM(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 40
		b := NewBuilder(n)
		for i := 0; i+1 < len(raw); i += 2 {
			b.AddEdge(NodeID(raw[i]%n), NodeID(raw[i+1]%n))
		}
		g := b.Build()
		sum := 0
		for v := 0; v < g.N(); v++ {
			sum += g.Degree(NodeID(v))
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAdjacencySymmetric(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 30
		b := NewBuilder(n)
		for i := 0; i+1 < len(raw); i += 2 {
			b.AddEdge(NodeID(raw[i]%n), NodeID(raw[i+1]%n))
		}
		g := b.Build()
		for v := 0; v < n; v++ {
			for _, u := range g.Neighbors(NodeID(v)) {
				if !g.HasEdge(u, NodeID(v)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := triangle()
	h := g.Clone()
	if h.N() != g.N() || h.M() != g.M() {
		t.Error("clone differs")
	}
	h.adj[0] = 99 // mutate clone's storage
	if g.adj[0] == 99 {
		t.Error("clone shares storage with original")
	}
}
