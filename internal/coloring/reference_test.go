package coloring

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/intmath"
)

// referenceLinial is the original serial Linial: a per-colour polynomial
// map in every round and a map-based compaction.
func referenceLinial(g *graph.Graph) *Result {
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
	for {
		q, d := linialParams(numColors, maxDeg)
		next := int(q * q)
		if next >= numColors {
			break
		}
		colors = referenceLinialRound(g, colors, q, d)
		numColors = next
		rounds++
	}
	for v := 0; v < n; v++ {
		if g.Degree(graph.NodeID(v)) == 0 {
			colors[v] = 0
		}
	}
	colors, numColors = referenceCompact(colors)
	return &Result{Colors: colors, NumColors: numColors, Rounds: rounds}
}

func referenceLinialRound(g *graph.Graph, colors []int, q uint64, d int) []int {
	n := g.N()
	next := make([]int, n)
	polys := map[int][]uint64{}
	digitsOf := func(c int) []uint64 {
		if p, ok := polys[c]; ok {
			return p
		}
		p := make([]uint64, d+1)
		cc := uint64(c)
		for t := 0; t <= d; t++ {
			p[t] = cc % q
			cc /= q
		}
		polys[c] = p
		return p
	}
	eval := func(p []uint64, x uint64) uint64 {
		acc := p[len(p)-1] % q
		for t := len(p) - 2; t >= 0; t-- {
			acc = (intmath.MulMod(acc, x, q) + p[t]) % q
		}
		return acc
	}
	for v := 0; v < n; v++ {
		pv := digitsOf(colors[v])
		nbrs := g.Neighbors(graph.NodeID(v))
		chosen := int64(-1)
		for x := uint64(0); x < q; x++ {
			val := eval(pv, x)
			ok := true
			for _, u := range nbrs {
				if colors[u] == colors[v] {
					panic("coloring: input colouring not proper")
				}
				if eval(digitsOf(colors[u]), x) == val {
					ok = false
					break
				}
			}
			if ok {
				chosen = int64(x*q + val)
				break
			}
		}
		if chosen < 0 {
			panic("coloring: no evaluation point found")
		}
		next[v] = int(chosen)
	}
	return next
}

func referenceCompact(colors []int) ([]int, int) {
	seen := map[int]int{}
	out := make([]int, len(colors))
	for v, c := range colors {
		id, ok := seen[c]
		if !ok {
			id = len(seen)
			seen[c] = id
		}
		out[v] = id
	}
	return out, len(seen)
}

// TestLinialMatchesReference pins the flat, sharded Linial against the
// map-based reference, bit for bit, on G, G² and the line graph L(G) at
// several worker counts. Colouring G itself runs several rounds (n colours
// against a small Δ), so the ping-pong buffers are exercised past round 1.
func TestLinialMatchesReference(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"regular4": gen.RandomRegular(4096, 4, 1),
		"regular6": gen.RandomRegular(2048, 6, 2),
		"gnm":      gen.GNM(1500, 3000, 3),
		"powerlaw": gen.PowerLaw(800, 2400, 2.1, 4),
		"star":     gen.Star(40),
		"path":     gen.Path(5000),
		"edgeless": graph.Empty(7),
	} {
		lg, _ := g.LineGraph()
		for kind, h := range map[string]*graph.Graph{"G": g, "G2": g.Square(), "LG": lg, "LG2": lg.Square()} {
			want := referenceLinial(h)
			for _, workers := range []int{1, 2, 8} {
				got := LinialW(h, nil, workers)
				if got.NumColors != want.NumColors || got.Rounds != want.Rounds || !slices.Equal(got.Colors, want.Colors) {
					t.Errorf("%s/%s workers=%d: got %d colours in %d rounds, reference %d in %d (colours equal: %v)",
						name, kind, workers, got.NumColors, got.Rounds, want.NumColors, want.Rounds, slices.Equal(got.Colors, want.Colors))
				}
			}
		}
	}
}

// TestLinialMultiRoundCovered guards TestLinialMatchesReference's premise
// that some fixture runs more than one round.
func TestLinialMultiRoundCovered(t *testing.T) {
	if r := Linial(gen.Path(5000), nil).Rounds; r < 2 {
		t.Fatalf("path colouring ran %d rounds, want >= 2", r)
	}
}

// panicMessage runs f and returns the message it panics with ("" if none).
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestFailureReportDeterministic pins the failure reports of the sharded
// checks to the serial scan's first violation — lowest v, then lowest u —
// at every worker count: an improper input to a Linial round and a
// distance-2 clash handed to VerifyDistance2W.
func TestFailureReportDeterministic(t *testing.T) {
	g := gen.RandomRegular(3000, 4, 7)
	n := g.N()

	// Improper Linial input: several clashing edges spread over many
	// shards; the lowest endpoint pair must be named.
	colors := make([]int, n)
	for v := range colors {
		colors[v] = v
	}
	clashes := []graph.NodeID{2900, 1700, 901, 45}
	for _, v := range clashes {
		u := g.Neighbors(v)[len(g.Neighbors(v))-1]
		colors[u] = colors[v]
	}
	wantV := graph.NodeID(n)
	var wantU graph.NodeID
	for v := 0; v < n && wantV == graph.NodeID(n); v++ {
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			if colors[u] == colors[v] {
				wantV, wantU = graph.NodeID(v), u
				break
			}
		}
	}
	want := fmt.Sprintf("coloring: input colouring not proper: nodes %d and %d share colour %d", wantV, wantU, colors[wantV])
	q, d := linialParams(n, g.MaxDegree())
	for _, workers := range []int{1, 2, 8} {
		next := make([]int, n)
		digits := make([]uint64, n*(d+1))
		got := panicMessage(func() { linialRound(g, colors, next, digits, q, d, workers) })
		if got != want {
			t.Errorf("linialRound workers=%d: panic %q, want %q", workers, got, want)
		}
	}

	// Distance-2 clashes: node 500 shares a colour with two nodes two hops
	// away and node 2000 with one; the lowest pair is reported.
	colors = make([]int, n)
	for v := range colors {
		colors[v] = v
	}
	twoHop := func(v graph.NodeID) []graph.NodeID {
		var out []graph.NodeID
		for _, u := range g.Neighbors(v) {
			for _, w := range g.Neighbors(u) {
				if w != v && !g.HasEdge(v, w) {
					out = append(out, w)
				}
			}
		}
		slices.Sort(out)
		return out
	}
	for _, v := range []graph.NodeID{2000, 500} {
		far := twoHop(v)
		for _, w := range []graph.NodeID{far[len(far)-1], far[len(far)/2]} {
			if w > v {
				colors[w] = colors[v]
			}
		}
	}
	var wantErr string
	for v := 0; v < n && wantErr == ""; v++ {
		ball := g.Ball(graph.NodeID(v), 2)
		for _, u := range ball {
			if u != graph.NodeID(v) && colors[u] == colors[v] {
				wantErr = fmt.Sprintf("nodes %d and %d within distance 2 share colour %d", v, u, colors[v])
				break
			}
		}
	}
	if wantErr == "" {
		t.Fatal("fixture planted no distance-2 clash")
	}
	for _, workers := range []int{1, 2, 8} {
		err := VerifyDistance2W(g, colors, workers)
		if err == nil || err.Error() != wantErr {
			t.Errorf("VerifyDistance2W workers=%d: %v, want %q", workers, err, wantErr)
		}
	}
	if !strings.Contains(wantErr, "nodes 500 ") {
		t.Errorf("fixture's lowest clash is %q, want it at node 500", wantErr)
	}
}
