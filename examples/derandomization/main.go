// Derandomization walkthrough: the method of conditional expectations
// (Section 2.4 of the paper) made visible on a family small enough to
// enumerate. We take a toy objective — how many nodes of a graph hash below
// a sampling threshold — and find a seed achieving at least the family mean
// three ways:
//
//  1. exact chunk-by-chunk conditional expectations (the textbook method);
//  2. the batched deterministic scan the library uses at scale;
//  3. brute-force enumeration of the whole family (ground truth).
//
// Run with: go run ./examples/derandomization
package main

import (
	"fmt"

	"repro/internal/condexp"
	"repro/internal/graph/gen"
	"repro/internal/hashfam"
)

func main() {
	g := gen.Cycle(24)
	fam := hashfam.New(13, 2) // 13² = 169 seeds: fully enumerable
	th := hashfam.Threshold(fam.P(), 1, 2)
	fmt.Printf("family: degree-1 polynomials over F_%d (%d seeds), threshold %d (p≈1/2)\n",
		fam.P(), 169, th)

	// Objective: number of nodes sampled (hash value < threshold), the
	// shape of the paper's sub-sampling steps.
	obj := func(seed []uint64) int64 {
		var count int64
		for v := 0; v < g.N(); v++ {
			if fam.Eval(seed, uint64(v)) < th {
				count++
			}
		}
		return count
	}

	mean, err := condexp.FamilyMean(fam, obj)
	if err != nil {
		panic(err)
	}
	fmt.Printf("family mean of the objective: %.3f (exact, by full enumeration)\n\n", mean)

	// 1. The real method of conditional expectations: fix one coefficient
	// at a time, keeping the conditional expectation maximal.
	seed, condExp, err := condexp.SearchConditional(fam, obj)
	if err != nil {
		panic(err)
	}
	fmt.Printf("conditional expectations: seed %v -> objective %d (final cond. exp. %.3f)\n",
		seed, obj(seed), condExp)

	// 2. The batched scan (what runs inside the MPC algorithms): first
	// seed in enumeration order meeting the mean, 16 candidates per batch.
	batch := func(seeds [][]uint64, values []int64) {
		for i, seed := range seeds {
			values[i] = obj(seed)
		}
	}
	res, err := condexp.SearchAtLeastBatch(fam, batch, int64(mean), condexp.Options{BatchSize: 16})
	if err != nil {
		panic(err)
	}
	fmt.Printf("batched scan:             seed %v -> objective %d (%d seeds in %d batches)\n",
		res.Seed, res.Value, res.SeedsTried, res.Batches)

	// 3. Ground truth: the best seed in the family.
	e := fam.Enumerate()
	bestVal := int64(-1)
	var bestSeed []uint64
	for e.Next() {
		if v := obj(e.Seed()); v > bestVal {
			bestVal = v
			bestSeed = append(bestSeed[:0], e.Seed()...)
		}
	}
	fmt.Printf("exhaustive maximum:       seed %v -> objective %d\n\n", bestSeed, bestVal)

	fmt.Println("the probabilistic method guarantees max >= mean, so both deterministic")
	fmt.Println("procedures must land at or above the mean — and they do, in O(1) charged")
	fmt.Println("MPC rounds per batch. This is the engine inside every sparsification stage")
	fmt.Println("and every Luby-step selection of the paper's algorithms.")
}
