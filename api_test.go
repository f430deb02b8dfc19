package repro

import (
	"context"
	"errors"
	"testing"

	"repro/internal/check"
)

func TestMaximalMatchingDefaults(t *testing.T) {
	g, err := Generate("gnm", 1024, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MaximalMatching(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := check.IsMaximalMatching(g, res.Edges); !ok {
		t.Fatal(reason)
	}
	if res.Costs == nil || res.Costs.Rounds == 0 {
		t.Error("cost tracking missing by default")
	}
	if res.Strategy != StrategySparsify && res.Strategy != StrategyLowDegree {
		t.Errorf("strategy = %q", res.Strategy)
	}
}

func TestMaximalIndependentSetDefaults(t *testing.T) {
	g, err := Generate("powerlaw", 1024, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MaximalIndependentSet(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := check.IsMaximalIS(g, res.Nodes); !ok {
		t.Fatal(reason)
	}
	if res.Iterations == 0 {
		t.Error("no iterations recorded")
	}
}

func TestAutoDispatch(t *testing.T) {
	// Grid (Δ=4) must take the low-degree path; a dense G(n,m) must take
	// the sparsification path.
	grid, _ := Generate("grid", 1024, 4, 1)
	res, err := MaximalIndependentSet(grid, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyLowDegree {
		t.Errorf("grid dispatched to %q, want lowdeg", res.Strategy)
	}
	dense, _ := Generate("gnm", 1024, 64, 1)
	res, err = MaximalIndependentSet(dense, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategySparsify {
		t.Errorf("dense graph dispatched to %q, want sparsify", res.Strategy)
	}
}

func TestForcedStrategies(t *testing.T) {
	g, _ := Generate("gnm", 512, 8, 3)
	for _, s := range []Strategy{StrategySparsify, StrategyLowDegree} {
		mm, err := MaximalMatching(g, &Options{Strategy: s})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if ok, reason := check.IsMaximalMatching(g, mm.Edges); !ok {
			t.Errorf("%s: %s", s, reason)
		}
		is, err := MaximalIndependentSet(g, &Options{Strategy: s})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if ok, reason := check.IsMaximalIS(g, is.Nodes); !ok {
			t.Errorf("%s: %s", s, reason)
		}
	}
}

func TestUnknownStrategy(t *testing.T) {
	g, _ := Generate("path", 10, 2, 1)
	if _, err := MaximalMatching(g, &Options{Strategy: "nope"}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := MaximalIndependentSet(g, &Options{Strategy: "nope"}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestNilGraph(t *testing.T) {
	if _, err := MaximalMatching(nil, nil); err != ErrNilGraph {
		t.Errorf("err = %v", err)
	}
	if _, err := MaximalIndependentSet(nil, nil); err != ErrNilGraph {
		t.Errorf("err = %v", err)
	}
}

func TestSkipCostTracking(t *testing.T) {
	g, _ := Generate("gnm", 256, 6, 5)
	res, err := MaximalMatching(g, &Options{SkipCostTracking: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Costs != nil {
		t.Error("costs reported despite SkipCostTracking")
	}
}

func TestOptionsPropagate(t *testing.T) {
	g, _ := Generate("gnm", 512, 16, 7)
	res, err := MaximalIndependentSet(g, &Options{Epsilon: 0.75, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Costs == nil {
		t.Fatal("costs missing")
	}
	// ε = 0.75 gives S = ceil(512^0.75) = 108.
	if res.Costs.SpacePerMachine < 100 || res.Costs.SpacePerMachine > 120 {
		t.Errorf("S = %d, want ~108 for eps=0.75", res.Costs.SpacePerMachine)
	}
}

func TestBuilderRoundTrip(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	res, err := MaximalMatching(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Edges) != 2 && len(res.Edges) != 1 {
		t.Errorf("P4 matching size %d", len(res.Edges))
	}
	h := FromEdges(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if h.M() != 2 {
		t.Errorf("FromEdges m = %d", h.M())
	}
}

func TestGenerateUnknownFamily(t *testing.T) {
	if _, err := Generate("bogus", 10, 2, 1); err == nil {
		t.Error("unknown family accepted")
	}
}

func TestDeterministicAcrossCalls(t *testing.T) {
	g, _ := Generate("gnm", 512, 10, 11)
	a, err := MaximalIndependentSet(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MaximalIndependentSet(g, &Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatal("parallel vs serial differ")
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatal("results differ across calls")
		}
	}
}

// TestInvalidOptionsTypedError pins the single validation rule set
// (core.Params.Check) at the API: out-of-range values — including an
// epsilon small enough that 1/δ = ceil(8/ε) reaches the hash slot space —
// fail with ErrInvalidOptions from the free functions, the Engine, a
// per-solve override and CheckOptions alike, and never panic.
func TestInvalidOptionsTypedError(t *testing.T) {
	g, err := Generate("gnm", 64, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name string
		opts Options
		over SolveOption
	}{
		{"epsilon=0.12", Options{Epsilon: 0.12}, WithEpsilon(0.12)},
		{"epsilon=0.1", Options{Epsilon: 0.1}, WithEpsilon(0.1)},
		{"epsilon=1e-9", Options{Epsilon: 1e-9}, WithEpsilon(1e-9)},
		{"epsilon=-0.5", Options{Epsilon: -0.5}, WithEpsilon(-0.5)},
		{"epsilon=2", Options{Epsilon: 2}, WithEpsilon(2)},
		{"slack=-1", Options{Slack: -1}, WithSlack(-1)},
		{"threshold_frac=1.5", Options{ThresholdFrac: 1.5}, WithThresholdFrac(1.5)},
		{"parallelism=-2", Options{Parallelism: -2}, WithParallelism(-2)},
	}
	for _, c := range bad {
		t.Run(c.name, func(t *testing.T) {
			if _, err := MaximalIndependentSet(g, &c.opts); !errors.Is(err, ErrInvalidOptions) {
				t.Errorf("MaximalIndependentSet: err = %v, want ErrInvalidOptions", err)
			}
			if _, err := MaximalMatching(g, &c.opts); !errors.Is(err, ErrInvalidOptions) {
				t.Errorf("MaximalMatching: err = %v, want ErrInvalidOptions", err)
			}
			eng := NewEngine(nil)
			if _, err := eng.MaximalMatchingCtx(context.Background(), g, c.over); !errors.Is(err, ErrInvalidOptions) {
				t.Errorf("Engine override: err = %v, want ErrInvalidOptions", err)
			}
			if err := eng.CheckOptions(c.over); !errors.Is(err, ErrInvalidOptions) {
				t.Errorf("CheckOptions: err = %v, want ErrInvalidOptions", err)
			}
			if _, err := NewEngine(&c.opts).MaximalIndependentSet(g); !errors.Is(err, ErrInvalidOptions) {
				t.Errorf("Engine base options: err = %v, want ErrInvalidOptions", err)
			}
		})
	}
	// The smallest epsilon whose 1/δ still fits the slot space solves.
	if _, err := MaximalIndependentSet(g, &Options{Epsilon: 0.13}); err != nil {
		t.Errorf("epsilon=0.13: %v", err)
	}
	if err := NewEngine(nil).CheckOptions(WithEpsilon(0.13)); err != nil {
		t.Errorf("CheckOptions(epsilon=0.13): %v", err)
	}
}
