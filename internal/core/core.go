// Package core holds the shared vocabulary of the paper's algorithms: the
// parameter set (ε, δ = ε/8, concentration slack, search thresholds), the
// degree-class partition C_1, …, C_{1/δ} of Section 3, the good-node set X
// (matching) from Luby's analysis, and the deterministic
// local-minimum selection rules shared by the matching and MIS steps.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/hashfam"
	"repro/internal/intmath"
	"repro/internal/parallel"
)

// Params are the knobs of the deterministic algorithms. The zero value is
// not meaningful; start from DefaultParams.
type Params struct {
	// Epsilon is the space exponent: S = Θ(n^ε) words per machine.
	Epsilon float64
	// InvDelta is 1/δ (the paper requires 1/δ ∈ N). DefaultParams sets
	// ceil(8/ε) so that δ <= ε/8, the setting that makes the 2-hop
	// neighbourhoods of the sparsified graph fit one machine.
	InvDelta int
	// KWise is the independence c of the hash family used by the stage
	// subsampling (Lemma 9 requires an even constant >= 4).
	KWise int
	// Slack multiplies the concentration deviation terms in the machine
	// goodness predicates and invariant checks. The paper's constants only
	// bind asymptotically; Slack = 4 keeps the predicates meaningful at
	// laptop scale.
	Slack float64
	// ThresholdFrac is the fraction of the proven expectation bound used as
	// the seed-search threshold. 1.0 demands the full probabilistic-method
	// bound; 0.5 (default) makes qualifying seeds plentiful while keeping
	// per-iteration progress within a factor 2 of the theorem's.
	ThresholdFrac float64
	// MaxSeedsPerSearch caps each derandomization scan; on exhaustion the
	// best seed seen is used (progress is then whatever that seed achieves,
	// so the algorithms remain unconditionally correct).
	MaxSeedsPerSearch int
	// Parallelism is the host-side worker count used by the shared
	// internal/parallel pool for seed evaluation, per-vertex scans, and
	// graph rebuilds: 0 (default) means GOMAXPROCS, 1 means serial, larger
	// values pin an explicit worker count. Results are bit-identical at any
	// setting (the determinism contract; see internal/parallel).
	Parallelism int
	// Done, when non-nil, reports whether the enclosing request has been
	// abandoned (context canceled, deadline exceeded). The round loops poll
	// it ONLY at round boundaries and between condexp seed batches — never
	// inside a seed evaluation or a selection scan — so a solve that runs to
	// completion is bit-identical to one with Done == nil, and cancellation
	// latency is bounded by one round's work. Once Done returns true it must
	// keep returning true (context semantics); the loops re-check it at
	// their own boundaries rather than trusting a single observation.
	Done func() bool
	// Observe, when non-nil, receives one RoundEvent per completed round of
	// the outer derandomization loops. Events are emitted from the solve's
	// coordinating goroutine, strictly in round order, after the round's
	// seed search and peel have finished — host parallelism lives inside a
	// round, never across rounds, so the event stream is identical at every
	// Parallelism setting. Observation never changes outputs: the only extra
	// work an observer costs is the live-node count of each round.
	Observe func(RoundEvent)
}

// RoundEvent is one completed round of a derandomized solve, as delivered to
// Params.Observe: which algorithm and strategy ran it, how much of the graph
// was still live when the round started, and what the seed search did. The
// stream is deterministic — same input, options and code produce the same
// events in the same order at any Parallelism.
type RoundEvent struct {
	// Algorithm is "matching" or "mis". The Section 5 matching runs MIS on
	// the line graph; its events carry Algorithm "matching" with the live
	// counts of the line graph it actually iterates on.
	Algorithm string
	// Strategy is "sparsify" (Sections 3/4) or "lowdeg" (Section 5).
	Strategy string
	// Round is the 1-based emission index within the solve.
	Round int
	// LiveNodes / LiveEdges measure the shrinking graph at round start:
	// non-isolated nodes for the matching path, surviving (alive) nodes for
	// the MIS paths, and the current edge count.
	LiveNodes int
	LiveEdges int
	// SeedsTried / SeedFound report the round's conditional-expectations
	// search; Selected is the number of edges (matching) or nodes (MIS) the
	// selected seed committed this round.
	SeedsTried int
	SeedFound  bool
	Selected   int
	// Batches, only on observed solves, breaks the round's selection search
	// down into its charged seed batches, in evaluation (enumeration)
	// order: the seed-batch-granular sub-events of the observer seam. It is
	// nil when no observer is attached — unobserved solves never build it —
	// and empty when the round ran no search batch. The stage searches
	// inside the sparsification chain are not included; the batches sum to
	// SeedsTried above. Each event owns its slice (never reused across
	// rounds), so observers may retain it.
	Batches []SeedBatchStat
	// CostRounds, CostSeedBatches and CostPeakMachineWords export the
	// solve's simcost accounting incrementally: the cumulative charged MPC
	// rounds, charged seed batches and peak per-machine words at the moment
	// this event was emitted. They are zero when cost tracking is off or no
	// observer is attached, and — like every other field — deterministic at
	// any Parallelism: the model's charges depend only on problem sizes and
	// batch shapes, never on host scheduling.
	CostRounds           int
	CostSeedBatches      int
	CostPeakMachineWords int
}

// SeedBatchStat is one charged seed batch of a round's conditional-
// expectations search, carried by RoundEvent.Batches. Its fields mirror
// condexp.BatchStat exactly (the round loops convert directly between the
// two).
type SeedBatchStat struct {
	// Batch is the 1-based batch index within the round's search.
	Batch int
	// Seeds is the number of candidate seeds the batch evaluated.
	Seeds int
	// SeedsTried is the cumulative candidate count including this batch.
	SeedsTried int
	// BestValue is the best objective value seen so far in the search.
	BestValue int64
	// Found reports that the batch contained the first qualifying seed.
	Found bool
}

// Canceled reports whether the solve's request has been abandoned. It is the
// single polling point of the cancellation checks (nil Done means "never").
func (p Params) Canceled() bool { return p.Done != nil && p.Done() }

// Emit delivers a round event to the observer, if any.
func (p Params) Emit(ev RoundEvent) {
	if p.Observe != nil {
		p.Observe(ev)
	}
}

// Workers resolves Parallelism to a concrete worker count.
func (p Params) Workers() int { return parallel.Workers(p.Parallelism) }

// DefaultParams returns the parameterisation used throughout the experiment
// suite: ε = 0.5 (S = √n), δ = 1/16, 4-wise independence, slack 4,
// half-expectation thresholds.
func DefaultParams() Params {
	return Params{
		Epsilon:           0.5,
		InvDelta:          16,
		KWise:             4,
		Slack:             4.0,
		ThresholdFrac:     0.5,
		MaxSeedsPerSearch: 1 << 14,
		Parallelism:       0, // auto: GOMAXPROCS workers
	}
}

// WithEpsilon returns params with Epsilon = eps and InvDelta = ceil(8/eps),
// the paper's δ = ε/8 coupling. It does not validate: Check rejects an eps
// outside (0, 1], and one so small that 1/δ reaches SlotMax (InvDelta is
// capped at MaxInt32 so a tiny eps cannot overflow it).
func (p Params) WithEpsilon(eps float64) Params {
	p.Epsilon = eps
	if eps > 0 {
		p.InvDelta = int(math.Min(math.Ceil(8/eps), math.MaxInt32))
	}
	return p
}

// Delta returns δ = 1/InvDelta.
func (p Params) Delta() float64 { return 1 / float64(p.InvDelta) }

// Check reports the first nonsensical parameter, or nil. It is the single
// definition of a valid parameter set: the public API maps its error to
// repro.ErrInvalidOptions, and Validate panics on it for internal callers.
// NaN fails every range check.
func (p Params) Check() error {
	switch {
	case !(p.Epsilon > 0 && p.Epsilon <= 1):
		return fmt.Errorf("epsilon %v outside (0, 1]", p.Epsilon)
	case p.InvDelta < 1 || p.InvDelta >= SlotMax:
		return fmt.Errorf("1/delta = %d outside [1, %d): epsilon %v too small", p.InvDelta, SlotMax, p.Epsilon)
	case p.KWise < 2:
		return fmt.Errorf("kwise %d < 2", p.KWise)
	case !(p.Slack > 0):
		return fmt.Errorf("slack %v <= 0", p.Slack)
	case !(p.ThresholdFrac > 0 && p.ThresholdFrac <= 1):
		return fmt.Errorf("threshold_frac %v outside (0, 1]", p.ThresholdFrac)
	case p.Parallelism < 0:
		return fmt.Errorf("parallelism %d < 0", p.Parallelism)
	}
	return nil
}

// Validate panics on nonsensical parameters (programmer error).
func (p Params) Validate() {
	if err := p.Check(); err != nil {
		panic("core: " + err.Error())
	}
}

// DegreeClasses is the partition C_1..C_K of Section 3: class i holds the
// nodes with b_{i-1} <= d(v) < b_i where b_i = ceil(n^{i/K}) (b_0 = 1).
// Isolated nodes (d = 0) get class 0, outside the partition.
type DegreeClasses struct {
	N      int
	K      int
	Bounds []uint64 // Bounds[i] = ceil(n^{i/K}) for i = 0..K; Bounds[0] = 1
}

// dcCache memoises the most recent DegreeClasses. The boundaries are a pure
// function of (n, k), n is the (round-invariant) id-space size and k the
// configured 1/δ, so the round loops ask for the same table every iteration
// — and computing it runs math/big exponentiations that would otherwise
// dominate a warm solve's allocations. A single-slot atomic cache suffices:
// the value is immutable after construction, so racing solves at worst
// recompute.
var dcCache atomic.Pointer[DegreeClasses]

// NewDegreeClasses precomputes class boundaries for an n-node graph with
// K = 1/δ classes.
func NewDegreeClasses(n, k int) *DegreeClasses {
	if n < 1 || k < 1 {
		panic("core: NewDegreeClasses requires n, k >= 1")
	}
	if c := dcCache.Load(); c != nil && c.N == n && c.K == k {
		return c
	}
	bounds := make([]uint64, k+1)
	bounds[0] = 1
	for i := 1; i <= k; i++ {
		bounds[i] = intmath.CeilPow(uint64(n), i, k)
		if bounds[i] <= bounds[i-1] {
			bounds[i] = bounds[i-1] + 1 // keep bands non-degenerate at tiny n
		}
	}
	dc := &DegreeClasses{N: n, K: k, Bounds: bounds}
	dcCache.Store(dc)
	return dc
}

// Class returns the class index in [1, K] of a node with degree d, or 0 for
// d <= 0 (isolated).
func (c *DegreeClasses) Class(d int) int {
	if d <= 0 {
		return 0
	}
	for i := 1; i <= c.K; i++ {
		if uint64(d) < c.Bounds[i] {
			return i
		}
	}
	return c.K
}

// StageCount returns the number of subsampling stages for class i: the
// paper's i-4 for i >= 5, otherwise 0 (Sections 3.2 and 4.2).
func StageCount(i int) int {
	if i <= 4 {
		return 0
	}
	return i - 4
}

// GroupSize returns the machine-group size γ = ceil(n^{4δ}) used when a
// node's incident edges (or neighbours) are spread over type-A/B machines.
func (c *DegreeClasses) GroupSize() int {
	g := intmath.CeilPow(uint64(c.N), 4, c.K)
	if g < 2 {
		g = 2
	}
	return int(g)
}

// NDelta returns ceil(n^δ): the per-stage subsampling denominator.
func (c *DegreeClasses) NDelta() uint64 {
	v := intmath.CeilPow(uint64(c.N), 1, c.K)
	if v < 2 {
		v = 2
	}
	return v
}

// StageThreshold returns the field threshold t such that h(x) < t samples x
// with probability floor(p·n^{-δ})/p, i.e. as close to exactly n^{-δ} as the
// field admits (the paper's h(e) <= n^{3-δ} over range n³). Using the exact
// real-valued rate instead of ceil(n^δ) matters at laptop scale: rounding
// the rate down compounds over i-4 stages and can empty the sample.
func StageThreshold(p uint64, n, k int) uint64 {
	rate := math.Pow(float64(n), -1/float64(k))
	t := uint64(rate * float64(p))
	if t < 1 {
		t = 1
	}
	if t > p {
		t = p
	}
	return t
}

// DevTerm returns the concentration deviation n^{0.1δ}·√ex used by the
// goodness predicates of Sections 3.2 and 4.2 (as a float; callers multiply
// by Params.Slack).
func (c *DegreeClasses) DevTerm(ex int) float64 {
	n01d := math.Pow(float64(c.N), 0.1/float64(c.K))
	return n01d * math.Sqrt(float64(ex))
}

// ComputeXInto writes the good-node indicator of Luby's matching analysis
// (Lemma 3) into dst (length N): v ∈ X iff at least d(v)/3 neighbours u
// have d(u) <= d(v). deg must be the degree slice of g. It is sharded over
// vertex ranges on up to `workers` host workers; each vertex's indicator is
// independent, and every slot is assigned, so neither the worker count nor
// a dirty destination can reach the result.
func ComputeXInto(dst []bool, g *graph.Graph, deg []int, workers int) []bool {
	if len(dst) != g.N() {
		panic("core: ComputeXInto length mismatch")
	}
	parallel.ForEach(workers, g.N(), func(v int) {
		dv := deg[v]
		if dv == 0 {
			dst[v] = false
			return
		}
		cnt := 0
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			if deg[u] <= dv {
				cnt++
			}
		}
		dst[v] = 3*cnt >= dv
	})
	return dst
}

// XWeight returns Σ_{v∈X} d(v) (Lemma 3 lower-bounds it by |E|, summing each
// edge from both sides; the per-class corollary divides it by 1/δ).
func XWeight(x []bool, deg []int) int64 {
	var w int64
	for v, in := range x {
		if in {
			w += int64(deg[v])
		}
	}
	return w
}

// ZKey orders candidates deterministically by (hash value, id): the paper's
// "z_v < z_u" comparisons with the measure-zero ties broken by id so that
// candidate sets are well defined at any scale.
type ZKey struct {
	Z  uint64
	ID uint64
}

// Less reports strict precedence of a over b.
func (a ZKey) Less(b ZKey) bool {
	if a.Z != b.Z {
		return a.Z < b.Z
	}
	return a.ID < b.ID
}

// EdgeMinScratch is the reusable working state of the edge selections: the
// per-node minimum tables, the per-edge key buffer, and the output buffer.
// Seed searches evaluate the selection once per candidate seed, so pooling
// this state (one per worker, inside each EdgeSink) removes the dominant
// per-seed allocations of the matching path. Every call wipes the minimum
// table over its plan's id space before merging, so prior contents never
// reach a result. The zero value is ready to use.
type EdgeMinScratch struct {
	min1  []ZKey   // struct path: per-node minimum incident key
	pmin1 []uint64 // packed path: same, (z, id) fused into one word
	keys  []ZKey
	pkeys []uint64
	sel   EdgeSel // wrapper-owned per-call plan of LocalMinEdgesZ
	out   []graph.Edge
}

// NextEpoch advances a stamp table's generation counter and returns the new
// live generation (used by the lowdeg objective's per-seed membership
// marks): on uint32 wrap the stamp array is cleared over its FULL capacity
// — entries parked beyond the current id space must not resurface with a
// recycled generation — and the counter restarts at 1, so zero is never a
// live generation and freshly allocated (zeroed) stamp segments are stale
// by construction.
func NextEpoch(stamp []uint32, epoch *uint32) uint32 {
	*epoch++
	if *epoch == 0 {
		clear(stamp[:cap(stamp)])
		*epoch = 1
	}
	return *epoch
}

// EdgeSel is the seed-independent half of a Section 3.3 selection round:
// the edge list with its canonical id keys and the packed-representation
// decision. Seed searches build it once per round (EdgeSelInit) and then
// evaluate thousands of candidate seeds through LocalMinEdgesSel, so the
// per-edge e.Key(n) computation and the packed-path feasibility check are
// paid once instead of once per seed. After Init an EdgeSel is read-only
// and safe to share across concurrent per-seed evaluations.
type EdgeSel struct {
	edges  []graph.Edge
	ekeys  []uint64 // ekeys[idx] = edges[idx].Key(n)
	n      int
	idBits uint
	packed bool
}

// EdgeSelInit fills sel for one round: edges is the round's canonical edge
// list over an n-id graph, ekeys is the caller's key buffer (typically a
// scratch checkout; it is appended into from [:0] and retained), and zMax
// is an inclusive upper bound on every z value later passed to
// LocalMinEdgesSel — the field size minus one for hash-kernel callers. The
// packed single-word fast path is taken iff every (z, id) pair fits one
// uint64 under that bound, decided here in O(1) instead of by an O(m) scan
// per seed. Each selection wipes an n-word table, so seed searches pass
// their edge list relabelled onto its endpoints (n <= 2|edges|); any
// id-order-preserving relabel selects the same edges.
func EdgeSelInit(sel *EdgeSel, n int, edges []graph.Edge, ekeys []uint64, zMax uint64) {
	sel.edges = edges
	sel.n = n
	ekeys = ekeys[:0]
	for _, e := range edges {
		ekeys = append(ekeys, e.Key(n))
	}
	sel.ekeys = ekeys
	sel.idBits, sel.packed = 0, false
	if n >= 2 {
		sel.idBits = uint(bits.Len64(uint64(n)*uint64(n) - 1))
		sel.packed = zMax>>(64-sel.idBits) == 0
	}
}

// packedEdgeBits reports whether every z value fits above an id field of
// idBits bits in one uint64, i.e. whether the (z, id) lexicographic order
// can be represented as single-word order z<<idBits | id. The hash fields
// of this repository are ~SlotMax·n², so for laptop-scale n the packed
// comparison replaces the two-branch ZKey.Less on the selection hot path;
// full-width z values (e.g. the randomized baselines' raw detrand draws)
// fall back to the struct path. Kernel callers know their field and decide
// via EdgeSelInit's zMax in O(1); this OR-reduction is the wrapper fallback
// for callers without a bound.
func packedEdgeBits(n int, z []uint64) (idBits uint, ok bool) {
	if n < 2 {
		return 0, false
	}
	idBits = uint(bits.Len64(uint64(n)*uint64(n) - 1))
	var all uint64
	for _, zv := range z {
		all |= zv
	}
	return idBits, all>>(64-idBits) == 0
}

// LocalMinEdges returns the candidate matching E_h of Section 3.3: the edges
// of estar whose (z, key) is strictly smaller than every adjacent edge's.
// zOf supplies z values (typically a bound hash function); edges is the
// canonical edge list of estar. The result is always a matching. It is the
// closure form of LocalMinEdgesZ for cold callers without a precomputed z
// vector.
func LocalMinEdges(estar *graph.Graph, edges []graph.Edge, zOf func(graph.Edge) uint64) []graph.Edge {
	z := make([]uint64, len(edges))
	for idx, e := range edges {
		z[idx] = zOf(e)
	}
	return LocalMinEdgesZ(new(EdgeMinScratch), estar, edges, z)
}

// LocalMinEdgesZ is the kernel form of the Section 3.3 selection: z[idx] is
// the precomputed hash value of edges[idx] (one hashfam.Evaluator.EvalKeys
// pass over the round's SlotKeysInto vector), so the scan is two cache-
// friendly passes with no per-edge closure call. It is LocalMinEdgesSel
// with a per-call plan (packed decision by OR-scan, id keys recomputed) for
// callers without per-round state — the hot seed searches build an EdgeSel
// once per round instead. The returned slice aliases s.out and is valid
// until the next call with the same scratch.
func LocalMinEdgesZ(s *EdgeMinScratch, estar *graph.Graph, edges []graph.Edge, z []uint64) []graph.Edge {
	if len(z) != len(edges) {
		panic("core: LocalMinEdgesZ z/edges length mismatch")
	}
	n := estar.N()
	s.sel.edges = edges
	s.sel.n = n
	ekeys := graph.Grow(s.sel.ekeys, len(edges))[:0]
	for _, e := range edges {
		ekeys = append(ekeys, e.Key(n))
	}
	s.sel.ekeys = ekeys
	s.sel.idBits, s.sel.packed = packedEdgeBits(n, z)
	return LocalMinEdgesSel(s, &s.sel, z)
}

// LocalMinEdgesSel runs one selection against a per-round EdgeSel plan:
// z[idx] is the hash value of sel's edge idx under the candidate seed. An
// edge is in the candidate matching iff its (z, key) is the minimum at BOTH
// endpoints — keys are unique per edge, so "strictly smaller than every
// adjacent edge" is exactly "argmin at each end", and a single min table
// suffices. The call wipes the n-word table, merges every edge into both
// endpoint slots, and keeps the edges that are the argmin at both ends. The
// returned slice aliases s.out and is valid until the next call with the
// same scratch.
//
//det:hotpath
func LocalMinEdgesSel(s *EdgeMinScratch, sel *EdgeSel, z []uint64) []graph.Edge {
	edges, ekeys := sel.edges, sel.ekeys
	if len(z) != len(edges) {
		panic("core: LocalMinEdgesSel z/edges length mismatch")
	}
	if sel.packed {
		idBits := sel.idBits
		s.pmin1 = graph.Grow(s.pmin1, sel.n)
		s.pkeys = graph.Grow(s.pkeys, len(edges))
		min1, keys := s.pmin1, s.pkeys[:len(edges)]
		// An all-ones slot reads as "no incident key yet": no packed key
		// exceeds it, so the merge is a plain load–min–store per endpoint,
		// which the compiler lowers to conditional moves.
		intmath.Fill64(min1, ^uint64(0))
		for idx, e := range edges {
			k := z[idx]<<idBits | ekeys[idx]
			keys[idx] = k
			u, v := e.U, e.V
			mu := min1[u]
			if k < mu {
				mu = k
			}
			min1[u] = mu
			mv := min1[v]
			if k < mv {
				mv = k
			}
			min1[v] = mv
		}
		// Output pass: an edge is selected iff its key is the minimum at
		// both endpoints. Compaction is branchless — the edge is stored
		// unconditionally and the cursor advances by a flag derived from
		// the two equality checks, because "is this edge an argmin" is
		// random enough that a conditional append mispredicts on a large
		// fraction of edges (every distinct endpoint has one argmin).
		outBuf := graph.Grow(s.out, len(edges))[:len(edges)]
		cnt := 0
		for idx, e := range edges {
			k := keys[idx]
			d := (min1[e.U] ^ k) | (min1[e.V] ^ k)
			outBuf[cnt] = e
			cnt += int(1 ^ (d|-d)>>63)
		}
		s.out = outBuf[:cnt]
		return s.out
	}
	s.min1 = graph.Grow(s.min1, sel.n)
	s.keys = graph.Grow(s.keys, len(edges))
	min1, keys := s.min1, s.keys[:len(edges)]
	// The all-ones sentinel sits above every real key: ids are below n².
	for v := range min1 {
		min1[v] = ZKey{^uint64(0), ^uint64(0)}
	}
	for idx, e := range edges {
		k := ZKey{z[idx], ekeys[idx]}
		keys[idx] = k
		if k.Less(min1[e.U]) {
			min1[e.U] = k
		}
		if k.Less(min1[e.V]) {
			min1[e.V] = k
		}
	}
	out := s.out[:0]
	for idx, e := range edges {
		if k := keys[idx]; min1[e.U] == k && min1[e.V] == k {
			out = append(out, e) //det:allow hotalloc arena-backed s.out reuses prior-round capacity, growth only on cold solves
		}
	}
	s.out = out
	return out
}

// LocalMinNodes returns the candidate independent set I_h of Section 4.3:
// nodes of q (restricted to inQ) whose (z, id) is strictly smaller than
// every q-neighbour's. The result is always independent in q. It is the
// closure form for cold callers; the seed searches precompute z vectors.
func LocalMinNodes(q *graph.Graph, inQ []bool, zOf func(graph.NodeID) uint64) []graph.NodeID {
	var out []graph.NodeID
	for v := 0; v < q.N(); v++ {
		if !inQ[v] {
			continue
		}
		kv := ZKey{zOf(graph.NodeID(v)), uint64(v)}
		isMin := true
		for _, u := range q.Neighbors(graph.NodeID(v)) {
			if !inQ[u] {
				continue
			}
			ku := ZKey{zOf(u), uint64(u)}
			if !kv.Less(ku) {
				isMin = false
				break
			}
		}
		if isMin {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

// LocalMinNodesZ is the kernel form of the Section 4.3 selection: z[v] is
// the precomputed hash value of node v (one hashfam.Evaluator.EvalKeys pass
// over a NodeSlotKeysInto vector), so each node's z is read once per
// incidence instead of re-evaluated through a closure. Results are
// bit-identical to LocalMinNodes with zOf(v) == z[v].
func LocalMinNodesZ(dst []graph.NodeID, q *graph.Graph, inQ []bool, z []uint64) []graph.NodeID {
	n := q.N()
	if len(z) < n {
		panic("core: LocalMinNodesZ z vector shorter than node count")
	}
	// Packed fast path, as in LocalMinNodesSel: when every z fits above an
	// id field of Len(n-1) bits, (z, id) comparisons are single-word.
	if n >= 2 {
		idBits := uint(bits.Len64(uint64(n) - 1))
		var all uint64
		for _, zv := range z[:n] {
			all |= zv
		}
		if all>>(64-idBits) == 0 {
			out := dst[:0]
			for v := 0; v < n; v++ {
				if !inQ[v] {
					continue
				}
				kv := z[v]<<idBits | uint64(v)
				isMin := true
				for _, u := range q.Neighbors(graph.NodeID(v)) {
					if inQ[u] && kv >= z[u]<<idBits|uint64(u) {
						isMin = false
						break
					}
				}
				if isMin {
					out = append(out, graph.NodeID(v))
				}
			}
			return out
		}
	}
	out := dst[:0]
	for v := 0; v < n; v++ {
		if !inQ[v] {
			continue
		}
		kv := ZKey{z[v], uint64(v)}
		isMin := true
		for _, u := range q.Neighbors(graph.NodeID(v)) {
			if !inQ[u] {
				continue
			}
			ku := ZKey{z[u], uint64(u)}
			if !kv.Less(ku) {
				isMin = false
				break
			}
		}
		if isMin {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

// NodeSel is the seed-independent half of a Section 4.3 selection round:
// the round's candidates as an ascending list of the solve's node ids, and
// their hash-key vector. The round selects on the subgraph induced on the
// candidates relabelled onto compact ids (graph.InducedNodesInto), whose
// node i is Live()[i]: a candidate seed costs one kernel pass over Keys()
// and one LocalMinNodesSel scan, both of length |live|, never the solve's
// full id space. After Init a NodeSel is read-only and safe to share across
// concurrent per-seed evaluations. The zero value is ready to use.
type NodeSel struct {
	live   []graph.NodeID
	keys   []uint64
	idBits uint
	packed bool
}

// Init fills sel for one round: ids lists the candidates (ascending,
// duplicate-free; copied, so the caller may reuse it), keyOf supplies each
// candidate's seed-independent hash key, and zMax is an inclusive upper
// bound on every z value later passed to LocalMinNodesSel. The packed
// single-word path is taken iff every z under that bound fits above an id
// field of Len(|ids|-1) bits.
func (sel *NodeSel) Init(ids []graph.NodeID, keyOf func(graph.NodeID) uint64, zMax uint64) {
	live := graph.Grow(sel.live, len(ids))
	keys := graph.Grow(sel.keys, len(ids))
	copy(live, ids)
	for i, v := range ids {
		keys[i] = keyOf(v)
	}
	sel.live, sel.keys = live, keys
	sel.idBits, sel.packed = 0, false
	if n := len(ids); n >= 2 {
		sel.idBits = uint(bits.Len64(uint64(n) - 1))
		sel.packed = zMax>>(64-sel.idBits) == 0
	}
}

// Live returns the candidate ids in ascending order — compact node i of the
// round's selection graph is Live()[i] — valid until the next Init.
func (sel *NodeSel) Live() []graph.NodeID { return sel.live }

// Keys returns the candidates' hash-key vector, parallel to Live(): the
// once-per-round input of the per-seed kernel passes.
func (sel *NodeSel) Keys() []uint64 { return sel.keys }

// LocalMinNodesSel is the per-round-plan form of the Section 4.3 selection
// on the round's compact selection graph q (q.N() == len(sel.Live())):
// z[v] is the hash value of compact node v under the candidate seed (one
// kernel pass over sel.Keys()). Node v joins I_h iff its (z, v) is strictly
// smaller than every q-neighbour's. Compact ids preserve the order of the
// solve's ids, so the result, mapped back through sel.Live(), is
// bit-identical to LocalMinNodesZ over the full id space with inQ the
// candidate mask. It returns compact ids, ascending.
//
//det:hotpath
func LocalMinNodesSel(dst []graph.NodeID, q *graph.Graph, sel *NodeSel, z []uint64) []graph.NodeID {
	n := len(sel.live)
	if q.N() != n {
		panic("core: LocalMinNodesSel graph is not the round's compact selection graph")
	}
	if len(z) < n {
		panic("core: LocalMinNodesSel z vector shorter than live set")
	}
	out := dst[:0]
	if sel.packed {
		idBits := sel.idBits
		for v := 0; v < n; v++ {
			kv := z[v]<<idBits | uint64(v)
			isMin := true
			for _, u := range q.Neighbors(graph.NodeID(v)) {
				if kv >= z[u]<<idBits|uint64(u) {
					isMin = false
					break
				}
			}
			if isMin {
				out = append(out, graph.NodeID(v)) //det:allow hotalloc appends into caller-grown dst, capacity reserved by the scratch arena
			}
		}
		return out
	}
	for v := 0; v < n; v++ {
		kv := ZKey{z[v], uint64(v)}
		isMin := true
		for _, u := range q.Neighbors(graph.NodeID(v)) {
			if !kv.Less(ZKey{z[u], uint64(u)}) {
				isMin = false
				break
			}
		}
		if isMin {
			out = append(out, graph.NodeID(v)) //det:allow hotalloc appends into caller-grown dst, capacity reserved by the scratch arena
		}
	}
	return out
}

// NodeSink is the selection half of a node objective's seed-search sink
// (condexp.Sink). It is a row sink: Begin hands the driver one row per seed
// of the group, indexed by compact id, that the kernel fills directly, and
// Select runs LocalMinNodesSel on it. An objective's sink embeds a NodeSink
// bound to its per-round plan and adds Value; a NodeSink belongs to one
// worker at a time.
type NodeSink struct {
	Sel  *NodeSel
	rows hashfam.Tile
	z    [][]uint64
	out  []graph.NodeID
}

// Begin starts a group of s seeds: one row per seed over the live set.
func (k *NodeSink) Begin(s int) [][]uint64 {
	k.z = k.rows.Rows(s, len(k.Sel.live))
	return k.z
}

// Fold is never called: Begin always returns rows.
func (k *NodeSink) Fold(s, lo, hi int, z []uint64) { panic("core: NodeSink is a row sink") }

// Select returns I_h (compact ids) over the round's compact graph q for
// seed s of the group, valid until the next Select.
func (k *NodeSink) Select(q *graph.Graph, s int) []graph.NodeID {
	k.out = LocalMinNodesSel(k.out, q, k.Sel, k.z[s])
	return k.out
}

// EdgeSink is NodeSink for the Section 3.3 edge selection: the driver fills
// one row per seed over the plan's edge list, and Select runs
// LocalMinEdgesSel on it.
type EdgeSink struct {
	Sel  *EdgeSel
	rows hashfam.Tile
	z    [][]uint64
	lm   EdgeMinScratch
}

// Begin starts a group of s seeds: one row per seed over the edge list.
func (k *EdgeSink) Begin(s int) [][]uint64 {
	k.z = k.rows.Rows(s, len(k.Sel.edges))
	return k.z
}

// Fold is never called: Begin always returns rows.
func (k *EdgeSink) Fold(s, lo, hi int, z []uint64) { panic("core: EdgeSink is a row sink") }

// Select returns E_h for seed s of the group, valid until the next Select.
func (k *EdgeSink) Select(s int) []graph.Edge {
	return LocalMinEdgesSel(&k.lm, k.Sel, k.z[s])
}

// SlotMax is the number of domain-separation slots in the hash input space
// (see SlotKey).
const SlotMax = 64

// EdgeField returns the hash family field used for a graph with n nodes:
// the least prime at least max(SlotMax·n², 1024). The n² covers node ids
// and canonical edge keys; the SlotMax factor leaves room for the
// domain-separation slots that give every subsampling stage fresh
// independent values even when the seed search lands on the same seed (the
// paper's [n³] range plays the same role: it decouples the per-stage hash
// values). Ties are broken by id (ZKey).
func EdgeField(n int) uint64 {
	min := SlotMax * uint64(n) * uint64(n)
	if min < 1024 {
		min = 1024
	}
	return min
}

// SlotKey maps a raw key (< n²) into domain-separation slot `slot`:
// different slots never collide, so h(SlotKey(x, j)) for j = 1, 2, ... are
// independent values even under one seed. Slot 0 is the identity and is
// used by the matching/MIS selection steps; stage j uses slot j.
func SlotKey(x uint64, slot, n int) uint64 {
	if slot < 0 || slot >= SlotMax {
		panic("core: slot out of range")
	}
	return x + uint64(slot)*uint64(n)*uint64(n)
}

// SlotKeysInto appends the slot-separated hash key of every edge to dst[:0]
// and returns it: the once-per-round key vector the batched seed searches
// evaluate candidate seeds against (hashfam.Evaluator.EvalKeys), instead of
// recomputing e.Key(n) + slot offset for every (seed, edge) pair. dst is
// typically checked out of a scratch.Context.
func SlotKeysInto(dst []uint64, edges []graph.Edge, slot, n int) []uint64 {
	if slot < 0 || slot >= SlotMax {
		panic("core: slot out of range")
	}
	off := uint64(slot) * uint64(n) * uint64(n)
	dst = dst[:0]
	for _, e := range edges {
		dst = append(dst, e.Key(n)+off)
	}
	return dst
}

// NodeSlotKeysInto is SlotKeysInto for the vertex key space: it appends the
// slot-separated key of every node id 0..n-1 to dst[:0] and returns it.
func NodeSlotKeysInto(dst []uint64, slot, n int) []uint64 {
	if slot < 0 || slot >= SlotMax {
		panic("core: slot out of range")
	}
	off := uint64(slot) * uint64(n) * uint64(n)
	dst = dst[:0]
	for v := 0; v < n; v++ {
		dst = append(dst, uint64(v)+off)
	}
	return dst
}

// PairwiseFamily returns the 2-wise independent family over the graph's
// field (used by the matching/MIS selection steps, Lemma 13/21 need only
// pairwise independence).
func PairwiseFamily(n int) hashfam.Family {
	return hashfam.New(EdgeField(n), 2)
}

// KWiseFamily returns the c-wise independent family over the graph's field
// (used by the stage subsampling, Lemma 9).
func KWiseFamily(n, c int) hashfam.Family {
	return hashfam.New(EdgeField(n), c)
}
