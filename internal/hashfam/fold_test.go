package hashfam

import (
	"math/rand"
	"testing"
)

// foldAll runs EvalSeedsBlockedFold over dirty tile rows and reassembles the
// blocks handed to the callback into full rows, checking on the way that the
// blocks are [0, len(keys)) in ascending order with blockKeyGrain-aligned
// boundaries. It reports the reassembled rows and whether the callback ran.
func foldAll(t *testing.T, ev *Evaluator, seeds [][]uint64, keys []uint64, dirty uint64) ([][]uint64, bool) {
	t.Helper()
	S, n := len(seeds), len(keys)
	var tile Tile
	for _, row := range tile.Rows(S, blockKeyGrain) {
		for i := range row {
			row[i] = dirty // prior contents must not leak
		}
	}
	got := make([][]uint64, S)
	for s := range got {
		got[s] = make([]uint64, n)
	}
	prevHi, called := 0, false
	ev.EvalSeedsBlockedFold(seeds, keys, &tile, func(lo, hi int, z [][]uint64) {
		called = true
		if lo != prevHi || hi <= lo || hi > n || hi-lo > blockKeyGrain || (hi < n && hi-lo != blockKeyGrain) {
			t.Fatalf("S=%d n=%d: bad block [%d,%d) after hi=%d", S, n, lo, hi, prevHi)
		}
		prevHi = hi
		for s := 0; s < S; s++ {
			copy(got[s][lo:hi], z[s][:hi-lo])
		}
	})
	if called && prevHi != n {
		t.Fatalf("S=%d n=%d: fold stopped at %d", S, n, prevHi)
	}
	return got, called
}

// TestEvalSeedsBlockedFoldMatchesBlocked pins the fused kernel's contract:
// the blocks handed to the callback reassemble to exactly Family.Eval of
// every (seed, key) pair, and the full-row EvalSeedsBlocked wrapper writes
// the same values. Key counts straddle the grain (empty, below, exact
// multiple, ragged tail), S covers the EvalPoly2x4 groups plus
// remainders, and every shape runs once more with all coefficients and keys
// at p-1.
func TestEvalSeedsBlockedFoldMatchesBlocked(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, tc := range evaluatorFamilies {
		f := New(tc.minField, tc.k)
		ev := NewEvaluator(f)
		for _, S := range []int{0, 1, 3, 4, 8, 11} {
			for _, n := range []int{0, 1, 7, 511, 512, 513, 1400} {
				for _, adversarial := range []bool{false, true} {
					seeds, keys := blockedCase(rng, f, S, n, adversarial)
					got, called := foldAll(t, ev, seeds, keys, ^uint64(0))
					if called != (S > 0 && n > 0) {
						t.Fatalf("S=%d n=%d: callback invoked = %v", S, n, called)
					}
					rows := make([][]uint64, S)
					for s := range rows {
						rows[s] = make([]uint64, n)
					}
					ev.EvalSeedsBlocked(seeds, keys, rows, new(Tile))
					for s := 0; s < S; s++ {
						for i := 0; i < n; i++ {
							want := f.Eval(seeds[s], keys[i])
							if got[s][i] != want || rows[s][i] != want {
								t.Fatalf("p=%d k=%d S=%d n=%d adversarial=%v: seed %d key %d: fold = %d, blocked = %d, Eval = %d",
									f.P(), f.K(), S, n, adversarial, s, i, got[s][i], rows[s][i], want)
							}
						}
					}
				}
			}
		}
	}
}

func TestEvalSeedsBlockedFoldPanics(t *testing.T) {
	f := New(97, 2)
	ev := NewEvaluator(f)
	keys := []uint64{0, 1, 2}
	noop := func(lo, hi int, z [][]uint64) {}
	var tile Tile
	for name, fn := range map[string]func(){
		"short seed": func() {
			ev.EvalSeedsBlockedFold([][]uint64{{1}}, keys, &tile, noop)
		},
		"long seed": func() {
			ev.EvalSeedsBlockedFold([][]uint64{{1, 2}, {1, 2, 3}}, keys, &tile, noop)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// FuzzEvalSeedsBlockedFoldMatchesBlocked drives the fused kernel with
// arbitrary fields (the reducer's boundary regimes: near 1, near 2^32, near
// 2^63, near 2^64, and both sides of the shared-power bound), S in {1, 3,
// 8}, and ragged key counts that leave partial tail blocks; adversarial sets
// every coefficient and key to p-1. Reassembled blocks must match per-seed
// EvalKeys byte for byte. Tile rows start dirty.
func FuzzEvalSeedsBlockedFoldMatchesBlocked(f *testing.F) {
	f.Add(uint64(1), 2, 1, uint64(12345), 513, false)
	f.Add((uint64(1)<<32)-1, 2, 8, uint64(99), 1025, false)
	f.Add((uint64(1)<<32)+1, 4, 3, uint64(7), 70, false)
	f.Add((uint64(1)<<63)+29, 2, 8, ^uint64(0), 512, false)
	f.Add(^uint64(0)-58, 9, 3, uint64(424242), 600, false)
	// The shared-power kernel's boundaries: 2^31-1 (shared, near the
	// bound), the smallest prime past the k = 4 bound (Horner), k = 3 and
	// k = 8 over a shared-size field, ragged last blocks, and every
	// coefficient and key at p-1.
	f.Add((uint64(1)<<31)-1, 4, 8, uint64(31), 1100, false)
	f.Add((uint64(1)<<31)-1, 4, 3, uint64(0), 515, true)
	f.Add(uint64(2479700537), 4, 8, uint64(5), 700, false)
	f.Add(uint64(1)<<20, 3, 8, uint64(3), 1029, false)
	f.Add(uint64(1)<<20, 8, 3, uint64(8), 513, true)
	f.Fuzz(func(t *testing.T, minField uint64, k, S int, base uint64, n int, adversarial bool) {
		if k < 1 || k > 12 {
			return
		}
		switch S {
		case 1, 3, 8:
		default:
			return
		}
		if n < 0 || n > 2048 {
			return
		}
		if minField > ^uint64(0)-58 {
			minField = ^uint64(0) - 58 // 2^64-59 is the largest uint64 prime
		}
		fam := New(minField, k)
		ev := NewEvaluator(fam)
		x := base
		next := func() uint64 {
			x = x*6364136223846793005 + 1442695040888963407
			return x
		}
		seeds := make([][]uint64, S)
		for s := range seeds {
			seeds[s] = make([]uint64, k)
			for i := range seeds[s] {
				seeds[s][i] = next()
				if adversarial {
					seeds[s][i] = fam.P() - 1
				}
			}
		}
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = next() % fam.P()
			if adversarial {
				keys[i] = fam.P() - 1
			}
		}
		got, _ := foldAll(t, ev, seeds, keys, base)
		want := make([]uint64, n)
		for s := 0; s < S; s++ {
			ev.EvalKeys(seeds[s], keys, want)
			for i := 0; i < n; i++ {
				if got[s][i] != want[i] {
					t.Fatalf("p=%d k=%d S=%d n=%d: seed %d key %d: fold %d, per-seed %d",
						fam.P(), k, S, n, s, i, got[s][i], want[i])
				}
			}
		}
	})
}
