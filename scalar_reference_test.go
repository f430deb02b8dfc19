package repro

// Scalar-path reference tables. The seed-search objectives used to carry a
// per-item closure branch (hashfam.Family.Eval once per key per seed,
// selected by a production flag) as the bit-equivalence reference of the
// batched hash kernel. That branch is gone; what it computed is committed
// under testdata/scalar_reference.json instead, recorded from the closure
// path at Parallelism 1 on the last tree that still had it: for every
// (workload, strategy) case the matching and MIS outputs (length plus a
// SHA-256 digest of the canonical encoding) and the full seed-search
// trajectory of both solves. The tables below re-run today's single
// block-major pipeline at Parallelism ∈ {1, 2, 8} and demand the identical
// record, so a divergence inside any one candidate evaluation shows up as a
// changed seeds-tried count or objective even when the outputs agree.
//
// The expectations are fixed data, not regenerable from this tree: a
// deliberate output change must also update them, case by case, with the
// reason in the change description.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lowdeg"
	"repro/internal/matching"
	"repro/internal/mis"
)

const scalarReferencePath = "testdata/scalar_reference.json"

// refSearch is one seed search of a solve: the sparsify rounds report their
// objective value, the lowdeg phases only whether the threshold was met.
type refSearch struct {
	SeedsTried int   `json:"seeds_tried"`
	SeedFound  bool  `json:"seed_found"`
	Objective  int64 `json:"objective,omitempty"`
	Selected   int   `json:"selected"`
}

// refCase is the recorded outcome of one (workload, strategy) case.
type refCase struct {
	MatchingEdges    int         `json:"matching_edges"`
	MatchingSHA256   string      `json:"matching_sha256"`
	MatchingSearches []refSearch `json:"matching_searches"`
	MISNodes         int         `json:"mis_nodes"`
	MISSHA256        string      `json:"mis_sha256"`
	MISSearches      []refSearch `json:"mis_searches"`
}

type refWorkload struct {
	family string
	n      int
	avgDeg int
	seed   uint64
}

func digestEdges(edges []graph.Edge) string {
	h := sha256.New()
	var buf [8]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint32(buf[:4], uint32(e.U))
		binary.LittleEndian.PutUint32(buf[4:], uint32(e.V))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestNodes(nodes []graph.NodeID) string {
	h := sha256.New()
	var buf [4]byte
	for _, v := range nodes {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// recordCase solves g with both problems on the given strategy's internal
// solver and records the outcome.
func recordCase(g *graph.Graph, strat Strategy, p core.Params) refCase {
	var rc refCase
	var mm []graph.Edge
	var is []graph.NodeID
	if strat == StrategySparsify {
		m := matching.Deterministic(g, p, nil)
		i := mis.Deterministic(g, p, nil)
		mm, is = m.Matching, i.IndependentSet
		for _, it := range m.Iterations {
			rc.MatchingSearches = append(rc.MatchingSearches, refSearch{it.SeedsTried, it.SeedFound, it.ObjectiveValue, it.MatchedEdges})
		}
		for _, it := range i.Iterations {
			rc.MISSearches = append(rc.MISSearches, refSearch{it.SeedsTried, it.SeedFound, it.ObjectiveValue, it.Selected})
		}
	} else {
		m := lowdeg.MaximalMatching(g, p, nil)
		i := lowdeg.MIS(g, p, nil)
		mm, is = m.Matching, i.IndependentSet
		for _, ph := range m.MIS.Phases {
			rc.MatchingSearches = append(rc.MatchingSearches, refSearch{ph.SeedsTried, ph.SeedFound, 0, ph.Selected})
		}
		for _, ph := range i.Phases {
			rc.MISSearches = append(rc.MISSearches, refSearch{ph.SeedsTried, ph.SeedFound, 0, ph.Selected})
		}
	}
	rc.MatchingEdges, rc.MatchingSHA256 = len(mm), digestEdges(mm)
	rc.MISNodes, rc.MISSHA256 = len(is), digestNodes(is)
	return rc
}

func loadScalarReference(t *testing.T) map[string]refCase {
	t.Helper()
	data, err := os.ReadFile(scalarReferencePath)
	if err != nil {
		t.Fatal(err)
	}
	var ref map[string]refCase
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatal(err)
	}
	return ref
}

// checkScalarReference runs every workload under every strategy as a
// subtest of t (named "<family>/n=<n>/<strategy>", or "<family>/n=<n>" when
// the table pins one strategy) and compares each Parallelism level's record
// with the committed one.
func checkScalarReference(t *testing.T, workloads []refWorkload, strategies []Strategy) {
	ref := loadScalarReference(t)
	for _, w := range workloads {
		for _, strat := range strategies {
			name := fmt.Sprintf("%s/n=%d", w.family, w.n)
			if len(strategies) > 1 {
				name += "/" + string(strat)
			}
			t.Run(name, func(t *testing.T) {
				want, ok := ref[t.Name()]
				if !ok {
					t.Fatalf("no recorded expectation for %s in %s", t.Name(), scalarReferencePath)
				}
				g, err := Generate(w.family, w.n, w.avgDeg, w.seed)
				if err != nil {
					t.Fatal(err)
				}
				for _, par := range parallelismLevels {
					p := core.DefaultParams()
					p.Parallelism = par
					got := recordCase(g, strat, p)
					compareRefCase(t, par, got, want)
				}
			})
		}
	}
}

func compareRefCase(t *testing.T, par int, got, want refCase) {
	t.Helper()
	for _, s := range []struct {
		what      string
		got, want []refSearch
	}{
		{"matching", got.MatchingSearches, want.MatchingSearches},
		{"MIS", got.MISSearches, want.MISSearches},
	} {
		if len(s.got) != len(s.want) {
			t.Fatalf("Parallelism=%d: %s ran %d searches, scalar path %d", par, s.what, len(s.got), len(s.want))
		}
		for i := range s.got {
			if s.got[i] != s.want[i] {
				t.Fatalf("Parallelism=%d: %s search %d is %+v, scalar path %+v", par, s.what, i, s.got[i], s.want[i])
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Parallelism=%d: outputs differ from the scalar path:\n got  matching %d edges %s, MIS %d nodes %s\n want matching %d edges %s, MIS %d nodes %s",
			par, got.MatchingEdges, got.MatchingSHA256, got.MISNodes, got.MISSHA256,
			want.MatchingEdges, want.MatchingSHA256, want.MISNodes, want.MISSHA256)
	}
}

var bothStrategies = []Strategy{StrategySparsify, StrategyLowDegree}

// TestHashKernelMatchesScalarPath pins the batched hash kernel (precomputed
// key vectors, block-major multi-seed evaluation, z-vector selection) to
// the recorded closure path on the determinism workloads, for both
// strategies.
func TestHashKernelMatchesScalarPath(t *testing.T) {
	var ws []refWorkload
	for _, w := range determinismWorkloads {
		ws = append(ws, refWorkload(w))
	}
	checkScalarReference(t, ws, bothStrategies)
}

// TestBlockedKernelMatchesScalarPath pins the block-major seed evaluation
// on workloads sized so that seed batches end in ragged tails (batch length
// not a multiple of condexp.BlockSeeds) and key vectors straddle key-block
// boundaries.
func TestBlockedKernelMatchesScalarPath(t *testing.T) {
	checkScalarReference(t, []refWorkload{
		{"gnm", 600, 9, 11},
		{"powerlaw", 520, 7, 13},
		{"regular", 450, 6, 17},
		{"grid", 529, 4, 19},
	}, bothStrategies)
}

// TestLowDegObjectiveKernelVsScalar pins the incident-count form of the
// Section 5 objective (Σ_{w∈R} d(w) minus the R-internal correction, over
// R = I_h ∪ N(I_h)) to the recorded full-graph scan it replaced, for MIS
// and matching-via-line-graph: same seeds tried, same phase boundaries,
// same output sets.
func TestLowDegObjectiveKernelVsScalar(t *testing.T) {
	checkScalarReference(t, []refWorkload{
		{"regular", 384, 8, 5},
		{"regular", 256, 12, 3},
		{"grid", 400, 4, 2},
		{"powerlaw", 320, 5, 7},
	}, []Strategy{StrategyLowDegree})
}
