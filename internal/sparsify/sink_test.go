package sparsify

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/condexp"
	"repro/internal/core"
	"repro/internal/hashfam"
)

// countGoodEdges is the full-row reference of the edge-stage objective:
// every group counts its sub-threshold keys and is good when the count lies
// in [lo, hi].
func countGoodEdges(z []uint64, groups []edgeGroup, th uint64, gLo, gHi []float64) int64 {
	var good int64
	for gi, gr := range groups {
		zc := 0
		for t := gr.start; t < gr.end; t++ {
			if z[t] < th {
				zc++
			}
		}
		if float64(zc) >= gLo[gi] && float64(zc) <= gHi[gi] {
			good++
		}
	}
	return good
}

// countGoodNodes is the full-row reference of the node-stage objective:
// type-Q groups (kind 0) bound their sub-threshold count from above, type-B
// groups (kind 1) their sub-threshold weight sum from below.
func countGoodNodes(z []uint64, groups []edgeGroup, th uint64, weightsOf, gLo, gHi []float64) int64 {
	var good int64
	for gi, gr := range groups {
		if gr.kind == 0 {
			zc := 0
			for t := gr.start; t < gr.end; t++ {
				if z[t] < th {
					zc++
				}
			}
			if float64(zc) <= gHi[gi] {
				good++
			}
			continue
		}
		var zw float64
		for t := gr.start; t < gr.end; t++ {
			if z[t] < th {
				zw += weightsOf[t]
			}
		}
		if zw >= gLo[gi] {
			good++
		}
	}
	return good
}

// TestStageSinkMatchesCountGood pins the stage sink — per-seed group
// cursors carried across key blocks — fed through the seed-search driver,
// to the full-row goodness count on z[t] = Family.Eval(seed, keys[t]), for
// edge-stage (count, two-sided) and node-stage (count above, weight below)
// groups. Groups of 1..60 keys tile a key vector spanning several blocks,
// so groups straddle block boundaries; acceptance windows sit near the
// mean so both outcomes occur.
func TestStageSinkMatchesCountGood(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fam := core.KWiseFamily(1000, 4)
	ev := hashfam.NewEvaluator(fam)
	th := fam.P() / 3
	for _, nodeStage := range []bool{false, true} {
		keys := make([]uint64, 1700)
		weightsOf := make([]float64, len(keys))
		for i := range keys {
			keys[i] = rng.Uint64() % fam.P()
			weightsOf[i] = 1 / float64(1+rng.Intn(50))
		}
		var groups []edgeGroup
		for lo := 0; lo < len(keys); {
			hi := min(lo+1+rng.Intn(60), len(keys))
			groups = append(groups, edgeGroup{start: lo, end: hi, kind: uint8(rng.Intn(2))})
			lo = hi
		}
		gLo := make([]float64, len(groups))
		gHi := make([]float64, len(groups))
		for gi, gr := range groups {
			ex := float64(gr.end - gr.start)
			gLo[gi], gHi[gi] = ex/3-1, ex/3+1
			if nodeStage && gr.kind == 0 {
				gLo[gi] = math.Inf(-1)
			} else if nodeStage {
				var total float64
				for t := gr.start; t < gr.end; t++ {
					total += weightsOf[t]
				}
				gLo[gi], gHi[gi] = total/3-0.05, math.Inf(1)
			}
		}
		f := &stageFold{groups: groups, th: th, lo: gLo, hi: gHi}
		if nodeStage {
			f.weightsOf = weightsOf
		}
		driver := condexp.NewBlockSearch(ev, 2, func() condexp.Sink { return &stageSink{f: f} })
		seeds := make([][]uint64, 19)
		for i := range seeds {
			seeds[i] = make([]uint64, fam.SeedLen())
			for j := range seeds[i] {
				seeds[i][j] = rng.Uint64() % fam.P()
			}
		}
		values := make([]int64, len(seeds))
		driver.Objective(keys)(seeds, values)
		z := make([]uint64, len(keys))
		for i, seed := range seeds {
			for t, k := range keys {
				z[t] = fam.Eval(seed, k)
			}
			want := countGoodEdges(z, groups, th, gLo, gHi)
			if nodeStage {
				want = countGoodNodes(z, groups, th, weightsOf, gLo, gHi)
			}
			if values[i] != want || want == 0 || want == int64(len(groups)) {
				t.Fatalf("node stage %v: seed %d: sink %d good groups, full-row reference %d of %d",
					nodeStage, i, values[i], want, len(groups))
			}
		}
	}
}
