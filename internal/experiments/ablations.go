package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph/gen"
	"repro/internal/matching"
	"repro/internal/simcost"
	"repro/internal/sparsify"
	"repro/internal/tablefmt"
)

// Ablations A1-A4 probe the laptop-scale parameter choices of
// core.DefaultParams: the threshold fraction of the seed search, the space
// exponent ε, the independence order c of the stage hash family, and the
// concentration slack. They are registered alongside the reproduction experiments.

func init() {
	registry["A1"] = RunA1
	registry["A2"] = RunA2
	registry["A3"] = RunA3
	registry["A4"] = RunA4
}

// RunA1 sweeps ThresholdFrac: how hard the derandomization pushes each
// iteration. Higher fractions demand more progress per iteration (fewer
// iterations) at the price of scanning more seeds per search; at 1.0 the
// search demands the full probabilistic-method bound.
func RunA1(cfg Config) []*tablefmt.Table {
	n := 1 << 12
	if cfg.Quick {
		n = 1 << 11
	}
	g := gen.GNM(n, 8*n, cfg.Seed)
	t := &tablefmt.Table{
		ID:      "A1",
		Title:   fmt.Sprintf("Ablation: seed-search threshold fraction (matching, G(%d,%d))", n, g.M()),
		Columns: []string{"threshold frac", "iterations", "avg seeds/search", "thresholds met", "matching size"},
	}
	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
		p := core.DefaultParams()
		p.ThresholdFrac = frac
		res := matching.Deterministic(g, p, nil)
		seeds, met := 0, 0
		for _, it := range res.Iterations {
			seeds += it.SeedsTried
			if it.SeedFound {
				met++
			}
		}
		t.AddRow(frac, len(res.Iterations),
			float64(seeds)/float64(len(res.Iterations)),
			fmt.Sprintf("%d/%d", met, len(res.Iterations)),
			len(res.Matching))
	}
	t.Notes = append(t.Notes,
		"reading: if the bounds were tight, higher fractions would cost more seeds or fall back; in practice",
		"even frac=1.0 finds a qualifying seed in the first batch — the Lemma 13 constant (1/109) is loose at this scale")
	return []*tablefmt.Table{t}
}

// RunA2 sweeps the space exponent ε: smaller machines mean more of them,
// deeper aggregation trees (more rounds per primitive) and tighter 2-hop
// budgets. Correctness is unaffected; the cost profile shifts.
func RunA2(cfg Config) []*tablefmt.Table {
	n := 1 << 12
	if cfg.Quick {
		n = 1 << 11
	}
	g := gen.GNM(n, 8*n, cfg.Seed)
	t := &tablefmt.Table{
		ID:      "A2",
		Title:   fmt.Sprintf("Ablation: space exponent ε (matching, G(%d,%d))", n, g.M()),
		Columns: []string{"eps", "S", "machines", "iterations", "MPC rounds", "peak machine words", "violations"},
	}
	for _, eps := range []float64{0.25, 0.375, 0.5, 0.75} {
		p := core.DefaultParams().WithEpsilon(eps)
		model := simcost.New(g.N(), g.M(), eps)
		res := matching.Deterministic(g, p, model)
		st := model.Stats()
		t.AddRow(eps, st.S, st.Machines, len(res.Iterations), st.Rounds,
			st.PeakMachineWords, len(st.Violations))
	}
	t.Notes = append(t.Notes,
		"expected: rounds grow as ε shrinks (deeper trees, more stages since δ=ε/8 shrinks the classes);",
		"violations appear when ε is too small for the 2-hop balls at this n — the fully-scalable regime needs n^ε above the degree bound")
	return []*tablefmt.Table{t}
}

// RunA3 sweeps the independence order c of the stage-subsampling family.
// Lemma 9 needs an even constant c >= 4; pairwise (c=2) weakens the
// concentration while larger c costs longer seeds (more Horner terms per
// evaluation). The invariants' worst ratios quantify the difference.
func RunA3(cfg Config) []*tablefmt.Table {
	n := 1 << 12
	if cfg.Quick {
		n = 1 << 11
	}
	g := gen.GNM(n, 48*n, cfg.Seed)
	t := &tablefmt.Table{
		ID:    "A3",
		Title: fmt.Sprintf("Ablation: k-wise independence of stage subsampling (G(%d,%d))", n, g.M()),
		Columns: []string{"c", "stages", "all seeds found", "Lem10 worst", "Lem10 viol",
			"Lem11 worst", "Lem11 viol", "E* maxdeg"},
	}
	for _, c := range []int{2, 4, 8} {
		p := core.DefaultParams()
		p.KWise = c
		res := sparsify.SparsifyEdges(g, p, nil)
		worstI, worstII := 0.0, 0.0
		violI, violII := 0, 0
		found := true
		for _, st := range res.Stages {
			if st.InvariantI.WorstRatio > worstI {
				worstI = st.InvariantI.WorstRatio
			}
			if st.InvariantII.WorstRatio > worstII {
				worstII = st.InvariantII.WorstRatio
			}
			violI += st.InvariantI.Violated
			violII += st.InvariantII.Violated
			found = found && st.SeedFound
		}
		t.AddRow(c, len(res.Stages), found, worstI, violI, worstII, violII, res.EStar.MaxDegree())
	}
	t.Notes = append(t.Notes,
		"expected: ratios comparable across c at laptop scale (the polynomial families are all exactly k-wise",
		"independent; Lemma 9's advantage for c >= 4 is an asymptotic tail bound)")
	return []*tablefmt.Table{t}
}

// RunA4 sweeps the concentration slack: with slack 1 the goodness
// predicates demand the paper's literal deviation terms (often unsatisfiable
// at laptop scale — searches fall back to best seeds); large slack accepts
// everything. The invariants measure what each setting actually delivers.
func RunA4(cfg Config) []*tablefmt.Table {
	n := 1 << 12
	if cfg.Quick {
		n = 1 << 11
	}
	g := gen.GNM(n, 48*n, cfg.Seed)
	t := &tablefmt.Table{
		ID:    "A4",
		Title: fmt.Sprintf("Ablation: concentration slack in machine goodness (G(%d,%d))", n, g.M()),
		Columns: []string{"slack", "stages", "stage seeds tried", "all found",
			"Lem10 worst", "Lem11 worst", "E* edges"},
	}
	for _, slack := range []float64{1, 2, 4, 8} {
		p := core.DefaultParams()
		p.Slack = slack
		p.MaxSeedsPerSearch = 2048
		res := sparsify.SparsifyEdges(g, p, nil)
		seeds := 0
		found := true
		worstI, worstII := 0.0, 0.0
		for _, st := range res.Stages {
			seeds += st.SeedsTried
			found = found && st.SeedFound
			if st.InvariantI.WorstRatio > worstI {
				worstI = st.InvariantI.WorstRatio
			}
			if st.InvariantII.WorstRatio > worstII {
				worstII = st.InvariantII.WorstRatio
			}
		}
		t.AddRow(slack, len(res.Stages), seeds, found, worstI, worstII, res.EStar.M())
	}
	t.Notes = append(t.Notes,
		"note: invariant ratios are relative to slack-adjusted bounds, so they are not comparable across rows;",
		"the operative columns are seeds tried and all-found: small slack exhausts the search budget (falls back),",
		"large slack accepts the first seed — the paper's predicates are asymptotic, hence the Slack factor on their deviation terms")
	return []*tablefmt.Table{t}
}
