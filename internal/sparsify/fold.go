package sparsify

import (
	"math/bits"

	"repro/internal/condexp"
	"repro/internal/core"
	"repro/internal/hashfam"
	"repro/internal/simcost"
)

// groupCursor carries one seed's in-progress goodness accumulation across
// evaluated key blocks: the index of the group the scan is inside, the
// partial count / weight sums of that group, and the finished-group tally.
// Because the flattened groups tile [0, len(keys)) contiguously in order
// (appendGroups invariant), a left-to-right walk over key blocks visits every
// group's keys in exactly the order a scan of a full z row does — including
// the float additions of weighted groups — so the fold is bit-identical to
// scoring a full z row.
type groupCursor struct {
	gi   int     // group currently being accumulated
	zc   int     // sub-threshold count of the open group
	zw   float64 // sub-threshold weight sum (weighted groups)
	good int64   // finished groups that passed the stage's goodness test
}

// stageFold scores evaluated key blocks against a stage's flattened groups
// without materialising a full z row per seed: absorb consumes one evaluated
// block at a time, closing (and judging) every group that ends inside it and
// carrying the partial sums of the group that straddles the boundary. A group
// passes when its statistic — the sub-threshold count, or for weighted groups
// the sub-threshold weight sum — lands in [lo[gi], hi[gi]]. The intervals are
// precomputed once per stage: every stage bound depends only on the group's
// fixed size (and, for weighted groups, its fixed total weight), so the
// math.Pow-heavy deviation terms are paid per group, not per group per seed.
// weightsOf is nil for stages whose type-B groups are also count-based (the
// edge stage).
type stageFold struct {
	groups    []edgeGroup
	th        uint64
	weightsOf []float64 // aligned with the key vector; nil = count all kinds
	lo, hi    []float64 // per-group acceptance interval on the statistic
}

// absorb folds the evaluated values z of keys[lo:hi] (z[t-lo] is key t's
// value) into c. Blocks must arrive left to right per cursor, which
// condexp.BlockSearch guarantees. Whether a key clears the threshold is
// data-random, so both accumulations are branchless: the count adds the
// unsigned-compare borrow bit, the weighted sum multiplies the weight by it
// (w·1 = w and zw + w·0 = zw exactly — the weights are finite and the sum
// starts at +0 — so the float result is bit-identical to the branchy form).
func (f *stageFold) absorb(c *groupCursor, z []uint64, lo, hi int) {
	t := lo
	for t < hi {
		gr := f.groups[c.gi]
		end := gr.end
		if end > hi {
			end = hi
		}
		counted := f.weightsOf == nil || gr.kind == 0
		seg := z[t-lo : end-lo]
		if counted {
			zc := c.zc
			for _, v := range seg {
				_, below := bits.Sub64(v, f.th, 0)
				zc += int(below)
			}
			c.zc = zc
		} else {
			w := f.weightsOf[t:end]
			zw := c.zw
			for i, v := range seg {
				_, below := bits.Sub64(v, f.th, 0)
				zw += w[i] * float64(below)
			}
			c.zw = zw
		}
		t = end
		if t == gr.end {
			v := c.zw
			if counted {
				v = float64(c.zc)
			}
			if v >= f.lo[c.gi] && v <= f.hi[c.gi] {
				c.good++
			}
			c.gi++
			c.zc, c.zw = 0, 0
		}
	}
}

// stageSink is one worker's condexp.Sink of a stage search: a group cursor
// per seed of the current seed group, fed block by block and valued as its
// good-group tally.
type stageSink struct {
	f       *stageFold
	cursors []groupCursor
}

func (k *stageSink) Begin(s int) [][]uint64 {
	if cap(k.cursors) < s {
		k.cursors = make([]groupCursor, s)
	}
	k.cursors = k.cursors[:s]
	clear(k.cursors)
	return nil
}

func (k *stageSink) Fold(s, lo, hi int, z []uint64) { k.f.absorb(&k.cursors[s], z, lo, hi) }

func (k *stageSink) Value(s int) int64 { return k.cursors[s].good }

// searchStage finds a stage seed under which every group of f is good (or,
// failing that within the scan bound, the seed with the most good groups):
// one BlockSearch over the stage's flattened key vector. Result.Value is
// the selected seed's good-group count.
func searchStage(ev *hashfam.Evaluator, keys []uint64, f *stageFold, p core.Params, model *simcost.Model) condexp.Result {
	driver := condexp.NewBlockSearch(ev, p.Workers(), func() condexp.Sink {
		return &stageSink{f: f}
	})
	res, err := condexp.SearchAtLeastBatch(ev.Family(), driver.Objective(keys), int64(len(f.groups)), condexp.Options{
		Model:     model,
		Label:     "sparsify.seed",
		MaxSeeds:  p.MaxSeedsPerSearch,
		BatchSize: batchSize(model),
		Done:      p.Done,
	})
	if err != nil {
		// Only possible for an empty family, which cannot happen (p >= 2).
		panic(err)
	}
	return res
}
