package repro

// Worker-count-independence tests: the determinism contract of the shared
// parallel-execution subsystem (internal/parallel) says every public result
// is bit-identical at any Options.Parallelism. These tables exercise the
// contract end to end on several generated families and both strategies;
// CI runs them under -race so that a scheduling-dependent write is flagged
// even when it happens to produce the right bits.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/hashfam"
	"repro/internal/luby"
)

var determinismWorkloads = []struct {
	family string
	n      int
	avgDeg int
	seed   uint64
}{
	{"gnm", 512, 8, 1},
	{"gnm", 400, 24, 7},
	{"powerlaw", 512, 6, 3},
	{"regular", 384, 8, 5},
	{"grid", 400, 4, 2},
	{"star", 256, 2, 4},
}

var parallelismLevels = []int{1, 2, 8}

func TestMaximalMatchingWorkerCountIndependence(t *testing.T) {
	for _, w := range determinismWorkloads {
		for _, strat := range []Strategy{StrategySparsify, StrategyLowDegree} {
			t.Run(fmt.Sprintf("%s/n=%d/%s", w.family, w.n, strat), func(t *testing.T) {
				g, err := Generate(w.family, w.n, w.avgDeg, w.seed)
				if err != nil {
					t.Fatal(err)
				}
				var ref *MatchingResult
				for _, par := range parallelismLevels {
					res, err := MaximalMatching(g, &Options{Strategy: strat, Parallelism: par})
					if err != nil {
						t.Fatalf("Parallelism=%d: %v", par, err)
					}
					if ref == nil {
						ref = res
						continue
					}
					if len(res.Edges) != len(ref.Edges) {
						t.Fatalf("Parallelism=%d: %d edges, want %d", par, len(res.Edges), len(ref.Edges))
					}
					for i := range res.Edges {
						if res.Edges[i] != ref.Edges[i] {
							t.Fatalf("Parallelism=%d: edge %d is %v, want %v", par, i, res.Edges[i], ref.Edges[i])
						}
					}
					if res.Iterations != ref.Iterations {
						t.Fatalf("Parallelism=%d: %d iterations, want %d", par, res.Iterations, ref.Iterations)
					}
				}
			})
		}
	}
}

func TestMaximalIndependentSetWorkerCountIndependence(t *testing.T) {
	for _, w := range determinismWorkloads {
		for _, strat := range []Strategy{StrategySparsify, StrategyLowDegree} {
			t.Run(fmt.Sprintf("%s/n=%d/%s", w.family, w.n, strat), func(t *testing.T) {
				g, err := Generate(w.family, w.n, w.avgDeg, w.seed)
				if err != nil {
					t.Fatal(err)
				}
				var ref *MISResult
				for _, par := range parallelismLevels {
					res, err := MaximalIndependentSet(g, &Options{Strategy: strat, Parallelism: par})
					if err != nil {
						t.Fatalf("Parallelism=%d: %v", par, err)
					}
					if ref == nil {
						ref = res
						continue
					}
					if len(res.Nodes) != len(ref.Nodes) {
						t.Fatalf("Parallelism=%d: %d nodes, want %d", par, len(res.Nodes), len(ref.Nodes))
					}
					for i := range res.Nodes {
						if res.Nodes[i] != ref.Nodes[i] {
							t.Fatalf("Parallelism=%d: node %d is %d, want %d", par, i, res.Nodes[i], ref.Nodes[i])
						}
					}
					if res.Iterations != ref.Iterations {
						t.Fatalf("Parallelism=%d: %d iterations, want %d", par, res.Iterations, ref.Iterations)
					}
				}
			})
		}
	}
}

// TestEngineReuseWorkerCountIndependence runs the worker-count-independence
// tables against a WARM reused Engine: at each Parallelism level the engine
// is warmed on a different graph first (so the solve under test runs on
// dirty, recycled buffers) and then solves the workload twice. Both solves
// must be bit-identical across all Parallelism levels and to the one-shot
// free function — scratch reuse changes memory lifetimes, never values.
// CI runs this under -race via the dedicated engine-race job (make
// race-engine).
func TestEngineReuseWorkerCountIndependence(t *testing.T) {
	for _, w := range determinismWorkloads {
		for _, strat := range []Strategy{StrategySparsify, StrategyLowDegree} {
			t.Run(fmt.Sprintf("%s/n=%d/%s", w.family, w.n, strat), func(t *testing.T) {
				g, err := Generate(w.family, w.n, w.avgDeg, w.seed)
				if err != nil {
					t.Fatal(err)
				}
				warmup, err := Generate("gnm", w.n+77, 12, w.seed+13)
				if err != nil {
					t.Fatal(err)
				}
				refMM, err := MaximalMatching(g, &Options{Strategy: strat})
				if err != nil {
					t.Fatal(err)
				}
				refIS, err := MaximalIndependentSet(g, &Options{Strategy: strat})
				if err != nil {
					t.Fatal(err)
				}
				for _, par := range parallelismLevels {
					eng := NewEngine(&Options{Strategy: strat, Parallelism: par})
					if _, err := eng.MaximalMatching(warmup); err != nil {
						t.Fatalf("Parallelism=%d warmup: %v", par, err)
					}
					if _, err := eng.MaximalIndependentSet(warmup); err != nil {
						t.Fatalf("Parallelism=%d warmup: %v", par, err)
					}
					for round := 0; round < 2; round++ {
						mm, err := eng.MaximalMatching(g)
						if err != nil {
							t.Fatalf("Parallelism=%d round %d: %v", par, round, err)
						}
						if len(mm.Edges) != len(refMM.Edges) || mm.Iterations != refMM.Iterations {
							t.Fatalf("Parallelism=%d round %d: matching %d edges/%d iters, want %d/%d",
								par, round, len(mm.Edges), mm.Iterations, len(refMM.Edges), refMM.Iterations)
						}
						for i := range mm.Edges {
							if mm.Edges[i] != refMM.Edges[i] {
								t.Fatalf("Parallelism=%d round %d: edge %d is %v, want %v",
									par, round, i, mm.Edges[i], refMM.Edges[i])
							}
						}
						is, err := eng.MaximalIndependentSet(g)
						if err != nil {
							t.Fatalf("Parallelism=%d round %d: %v", par, round, err)
						}
						if len(is.Nodes) != len(refIS.Nodes) || is.Iterations != refIS.Iterations {
							t.Fatalf("Parallelism=%d round %d: MIS %d nodes/%d iters, want %d/%d",
								par, round, len(is.Nodes), is.Iterations, len(refIS.Nodes), refIS.Iterations)
						}
						for i := range is.Nodes {
							if is.Nodes[i] != refIS.Nodes[i] {
								t.Fatalf("Parallelism=%d round %d: node %d is %d, want %d",
									par, round, i, is.Nodes[i], refIS.Nodes[i])
							}
						}
					}
				}
			})
		}
	}
}

// TestEvalKeysShardedMatchesSerial is the sharded-vs-serial equality table
// for the hash kernel: EvalKeysW must be byte-identical to EvalKeys for
// every worker count, key-vector length (below and above the shard
// threshold), family width and field size, on dirty output buffers.
func TestEvalKeysShardedMatchesSerial(t *testing.T) {
	families := []hashfam.Family{
		core.PairwiseFamily(1 << 12),
		core.KWiseFamily(1<<12, 4),
		hashfam.New(97, 2),
		hashfam.New(1<<33, 3), // wide-reduction path (p > 2^32)
	}
	sizes := []int{1, 100, 4095, 8192, 40000}
	for _, fam := range families {
		ev := hashfam.NewEvaluator(fam)
		enum := fam.Enumerate()
		for s := 0; s < 3 && enum.Next(); s++ {
			seed := append([]uint64(nil), enum.Seed()...)
			for _, size := range sizes {
				keys := make([]uint64, size)
				for i := range keys {
					keys[i] = (uint64(i)*0x9E3779B9 + 7) % fam.P()
				}
				want := ev.EvalKeys(seed, keys, make([]uint64, size))
				for _, workers := range parallelismLevels {
					out := make([]uint64, size)
					for i := range out {
						out[i] = ^uint64(0) // dirty
					}
					got := ev.EvalKeysW(seed, keys, out, workers)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("p=%d k=%d size=%d workers=%d: slot %d = %d, serial %d",
								fam.P(), fam.K(), size, workers, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestLubyBaselinesWorkerCountIndependence covers the randomized baselines'
// sharded candidate evaluation: same detrand seed, different worker counts,
// identical outputs.
func TestLubyBaselinesWorkerCountIndependence(t *testing.T) {
	for _, w := range determinismWorkloads[:3] {
		g, err := Generate(w.family, w.n, w.avgDeg, w.seed)
		if err != nil {
			t.Fatal(err)
		}
		refIS := luby.MISW(g, detrand.New(42), 1)
		refMM := luby.MaximalMatchingW(g, detrand.New(42), 1)
		for _, workers := range parallelismLevels[1:] {
			is := luby.MISW(g, detrand.New(42), workers)
			if len(is.IndependentSet) != len(refIS.IndependentSet) {
				t.Fatalf("%s: MIS size differs at workers=%d", w.family, workers)
			}
			for i := range is.IndependentSet {
				if is.IndependentSet[i] != refIS.IndependentSet[i] {
					t.Fatalf("%s: MIS node %d differs at workers=%d", w.family, i, workers)
				}
			}
			mm := luby.MaximalMatchingW(g, detrand.New(42), workers)
			if len(mm.Matching) != len(refMM.Matching) {
				t.Fatalf("%s: matching size differs at workers=%d", w.family, workers)
			}
			for i := range mm.Matching {
				if mm.Matching[i] != refMM.Matching[i] {
					t.Fatalf("%s: matching edge %d differs at workers=%d", w.family, i, workers)
				}
			}
		}
	}
}
