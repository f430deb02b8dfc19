package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
)

func TestDefaultParamsValid(t *testing.T) {
	p := DefaultParams()
	p.Validate()
	if p.Delta() != 1.0/16 {
		t.Errorf("delta = %f", p.Delta())
	}
}

func TestWithEpsilon(t *testing.T) {
	p := DefaultParams().WithEpsilon(0.25)
	if p.InvDelta != 32 {
		t.Errorf("InvDelta = %d, want 32", p.InvDelta)
	}
	p.Validate()
	// WithEpsilon does not validate; Check is the one rule set. 1/δ must
	// stay below SlotMax, which puts the smallest valid epsilon at 8/63.
	for _, eps := range []float64{0, -1, 1.5, 0.12, 0.1, 1e-9, 1e-300} {
		if err := DefaultParams().WithEpsilon(eps).Check(); err == nil {
			t.Errorf("WithEpsilon(%v) passed Check", eps)
		}
	}
	for _, eps := range []float64{0.13, 1} {
		if err := DefaultParams().WithEpsilon(eps).Check(); err != nil {
			t.Errorf("WithEpsilon(%v): %v", eps, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Validate after WithEpsilon(0) did not panic")
		}
	}()
	DefaultParams().WithEpsilon(0).Validate()
}

func TestValidateCatchesBadParams(t *testing.T) {
	bad := []Params{
		{Epsilon: 0, InvDelta: 16, KWise: 4, Slack: 1, ThresholdFrac: 0.5},
		{Epsilon: 0.5, InvDelta: 0, KWise: 4, Slack: 1, ThresholdFrac: 0.5},
		{Epsilon: 0.5, InvDelta: 16, KWise: 1, Slack: 1, ThresholdFrac: 0.5},
		{Epsilon: 0.5, InvDelta: 16, KWise: 4, Slack: 0, ThresholdFrac: 0.5},
		{Epsilon: 0.5, InvDelta: 16, KWise: 4, Slack: 1, ThresholdFrac: 0},
	}
	for i, p := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			p.Validate()
		}()
	}
}

func TestDegreeClassesPartition(t *testing.T) {
	dc := NewDegreeClasses(1<<14, 16)
	if dc.Bounds[0] != 1 {
		t.Errorf("b0 = %d", dc.Bounds[0])
	}
	if dc.Bounds[16] < 1<<14 {
		t.Errorf("b_K = %d < n", dc.Bounds[16])
	}
	// Every degree in [1, n-1] must land in exactly one class in [1, K].
	for d := 1; d < 1<<14; d++ {
		i := dc.Class(d)
		if i < 1 || i > 16 {
			t.Fatalf("Class(%d) = %d out of range", d, i)
		}
		if uint64(d) >= dc.Bounds[i] || uint64(d) < dc.Bounds[i-1] {
			t.Fatalf("Class(%d) = %d but bounds [%d,%d)", d, i, dc.Bounds[i-1], dc.Bounds[i])
		}
	}
	if dc.Class(0) != 0 || dc.Class(-3) != 0 {
		t.Error("isolated nodes must be class 0")
	}
}

func TestDegreeClassesMonotone(t *testing.T) {
	dc := NewDegreeClasses(1000, 8)
	prev := 0
	for d := 1; d < 1000; d++ {
		i := dc.Class(d)
		if i < prev {
			t.Fatalf("class decreased: Class(%d)=%d after %d", d, i, prev)
		}
		prev = i
	}
}

func TestDegreeClassesTinyN(t *testing.T) {
	dc := NewDegreeClasses(4, 16)
	// Bands are degenerate at tiny n but must stay strictly increasing.
	for i := 1; i <= 16; i++ {
		if dc.Bounds[i] <= dc.Bounds[i-1] {
			t.Fatalf("bounds not increasing at %d: %v", i, dc.Bounds)
		}
	}
	for d := 1; d < 4; d++ {
		if i := dc.Class(d); i < 1 || i > 16 {
			t.Errorf("Class(%d) = %d", d, i)
		}
	}
}

func TestStageCount(t *testing.T) {
	for _, c := range []struct{ i, want int }{{1, 0}, {4, 0}, {5, 1}, {10, 6}} {
		if got := StageCount(c.i); got != c.want {
			t.Errorf("StageCount(%d) = %d, want %d", c.i, got, c.want)
		}
	}
}

func TestGroupSizeAndNDelta(t *testing.T) {
	dc := NewDegreeClasses(1<<16, 16)
	if g := dc.GroupSize(); g != 16 { // (2^16)^(4/16) = 2^4
		t.Errorf("GroupSize = %d, want 16", g)
	}
	if nd := dc.NDelta(); nd != 2 { // (2^16)^(1/16) = 2
		t.Errorf("NDelta = %d, want 2", nd)
	}
}

func TestComputeXCompleteGraph(t *testing.T) {
	// In K_n all degrees are equal, so every node has d(v) neighbours with
	// d(u) <= d(v): X = V.
	g := gen.Complete(10)
	x := ComputeXInto(make([]bool, g.N()), g, g.Degrees(), 0)
	for v, in := range x {
		if !in {
			t.Errorf("node %d of K10 not in X", v)
		}
	}
}

func TestComputeXStar(t *testing.T) {
	// Star: leaves have their only neighbour (the centre) with larger
	// degree, so leaves are NOT in X; the centre has all n-1 neighbours with
	// smaller degree, so it is.
	g := gen.Star(10)
	x := ComputeXInto(make([]bool, g.N()), g, g.Degrees(), 0)
	if !x[0] {
		t.Error("star centre not in X")
	}
	for v := 1; v < 10; v++ {
		if x[v] {
			t.Errorf("leaf %d in X", v)
		}
	}
}

func TestXWeightLemma3(t *testing.T) {
	// Lemma 3: Σ_{v∈X} d(v) >= |E|/2 (we verify the stronger-looking bound
	// the paper's Corollary 8 proof uses: >= |E|/2 with the 1/2 constant).
	for _, g := range []*graph.Graph{
		gen.GNM(300, 2000, 1),
		gen.PowerLaw(300, 1500, 2.5, 2),
		gen.Complete(40),
		gen.Star(100),
		gen.Grid2D(15, 20),
	} {
		deg := g.Degrees()
		x := ComputeXInto(make([]bool, g.N()), g, deg, 0)
		if w := XWeight(x, deg); w < int64(g.M())/2 {
			t.Errorf("%v: XWeight %d < m/2 = %d", g, w, g.M()/2)
		}
	}
}

func TestZKeyOrdering(t *testing.T) {
	a := ZKey{1, 5}
	b := ZKey{1, 6}
	c := ZKey{2, 0}
	if !a.Less(b) || b.Less(a) {
		t.Error("tie-break by id broken")
	}
	if !a.Less(c) || c.Less(a) {
		t.Error("z ordering broken")
	}
	if a.Less(a) {
		t.Error("irreflexive violated")
	}
}

func TestLocalMinEdgesIsMatching(t *testing.T) {
	g := gen.GNM(100, 400, 7)
	edges := g.Edges()
	z := func(e graph.Edge) uint64 { return (uint64(e.U)*2654435761 + uint64(e.V)*40503) % 1009 }
	mm := LocalMinEdges(g, edges, z)
	used := map[graph.NodeID]bool{}
	for _, e := range mm {
		if used[e.U] || used[e.V] {
			t.Fatalf("LocalMinEdges not a matching at %v", e)
		}
		used[e.U] = true
		used[e.V] = true
	}
	if len(mm) == 0 {
		t.Error("no local-min edges on a non-empty graph")
	}
}

func TestLocalMinEdgesGlobalMinIncluded(t *testing.T) {
	g := gen.Cycle(9)
	edges := g.Edges()
	z := func(e graph.Edge) uint64 { return e.Key(9) * 7 % 31 }
	mm := LocalMinEdges(g, edges, z)
	// The globally smallest (z, key) edge is always a local minimum.
	best := 0
	for i := 1; i < len(edges); i++ {
		a := ZKey{z(edges[i]), edges[i].Key(9)}
		b := ZKey{z(edges[best]), edges[best].Key(9)}
		if a.Less(b) {
			best = i
		}
	}
	found := false
	for _, e := range mm {
		if e == edges[best] {
			found = true
		}
	}
	if !found {
		t.Error("global minimum edge missing from local minima")
	}
}

func TestLocalMinEdgesConstantZUsesTieBreak(t *testing.T) {
	g := gen.Complete(6)
	edges := g.Edges()
	mm := LocalMinEdges(g, edges, func(graph.Edge) uint64 { return 42 })
	if len(mm) != 1 {
		t.Errorf("K6 constant-z local minima = %d, want exactly 1 (smallest key)", len(mm))
	}
}

// TestLocalMinEdgesSelBranchEquivalence pins the two merge variants of
// LocalMinEdgesSel to one answer: the packed single-word path and the
// unpacked ZKey fallback (z values too wide to pack). The (z, key) order is
// the same under both, so the selected edges must be identical edge for
// edge.
func TestLocalMinEdgesSelBranchEquivalence(t *testing.T) {
	g := gen.GNM(200, 420, 3)
	edges := g.Edges()
	z := make([]uint64, len(edges))
	for i := range z {
		z[i] = (uint64(i)*2654435761 + 17) % 997 // small values + ties
	}
	z[0], z[1] = z[2], z[2] // deliberate tie needing the key tie-break
	run := func(zMax uint64) []graph.Edge {
		var sel EdgeSel
		EdgeSelInit(&sel, g.N(), edges, nil, zMax)
		var s EdgeMinScratch
		got := LocalMinEdgesSel(&s, &sel, z)
		return append([]graph.Edge(nil), got...)
	}
	packed := run(996)
	unpacked := run(^uint64(0)) // zMax forces the ZKey fallback
	if len(unpacked) != len(packed) {
		t.Fatalf("unpacked selected %d edges, packed path %d", len(unpacked), len(packed))
	}
	for i := range unpacked {
		if unpacked[i] != packed[i] {
			t.Fatalf("unpacked edge %d is %v, packed path %v", i, unpacked[i], packed[i])
		}
	}
	if len(packed) == 0 {
		t.Fatal("no edges selected on a non-empty graph")
	}
}

func TestLocalMinNodesIndependent(t *testing.T) {
	g := gen.GNM(120, 500, 9)
	inQ := make([]bool, g.N())
	for v := range inQ {
		inQ[v] = v%3 != 0 // restrict to a subset
	}
	z := func(v graph.NodeID) uint64 { return uint64(v) * 2654435761 % 997 }
	is := LocalMinNodes(g, inQ, z)
	inIS := make([]bool, g.N())
	for _, v := range is {
		if !inQ[v] {
			t.Fatalf("node %d outside Q selected", v)
		}
		inIS[v] = true
	}
	for _, e := range g.Edges() {
		if inIS[e.U] && inIS[e.V] {
			t.Fatalf("adjacent nodes %v both selected", e)
		}
	}
}

func TestLocalMinNodesIsolatedInQJoin(t *testing.T) {
	// A Q-node with no Q-neighbours is vacuously a local minimum.
	g := gen.Path(3)
	inQ := []bool{true, false, true}
	is := LocalMinNodes(g, inQ, func(v graph.NodeID) uint64 { return uint64(v) })
	if len(is) != 2 {
		t.Errorf("isolated-in-Q nodes not all selected: %v", is)
	}
}

func TestFieldAndFamilies(t *testing.T) {
	if EdgeField(100) != 64*10000 {
		t.Errorf("EdgeField(100) = %d", EdgeField(100))
	}
	if EdgeField(2) != 1024 {
		t.Errorf("EdgeField floor missing: %d", EdgeField(2))
	}
	pf := PairwiseFamily(100)
	if pf.K() != 2 || pf.P() < 64*10000 {
		t.Errorf("pairwise family wrong: k=%d p=%d", pf.K(), pf.P())
	}
	kf := KWiseFamily(100, 4)
	if kf.K() != 4 {
		t.Errorf("kwise family wrong: k=%d", kf.K())
	}
}

func TestSlotKeyDisjoint(t *testing.T) {
	n := 50
	p := EdgeField(n)
	// Different slots map disjoint ranges, all below the field size.
	maxKey := uint64(n)*uint64(n) - 1
	for slot := 0; slot < SlotMax; slot++ {
		lo := SlotKey(0, slot, n)
		hi := SlotKey(maxKey, slot, n)
		if hi >= p {
			t.Fatalf("slot %d key %d exceeds field %d", slot, hi, p)
		}
		if slot > 0 {
			prevHi := SlotKey(maxKey, slot-1, n)
			if lo <= prevHi {
				t.Fatalf("slot %d overlaps slot %d", slot, slot-1)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("SlotKey out-of-range slot did not panic")
		}
	}()
	SlotKey(0, SlotMax, n)
}
