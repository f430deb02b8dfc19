package hashfam

import (
	"math/rand"
	"testing"
)

// evaluatorFamilies covers both reducer regimes (field below and above 2^32)
// and both family shapes the algorithms use (pairwise, 4-wise), plus k = 1
// and a degree large enough to spill the Evaluator's stack coefficients.
// The 4-wise rows straddle the shared-power kernel's exactness bound
// (shared marks the rows that take it): a small field, 2^31-1 just below
// the bound, and the smallest prime past it, which stays on Horner; k = 3
// and k = 8 over a field where the bound would hold stay on Horner too.
var evaluatorFamilies = []struct {
	minField uint64
	k        int
	shared   bool
}{
	{2, 1, false},
	{97, 2, false},
	{1 << 20, 2, false},
	{1 << 20, 3, false},
	{1 << 20, 4, true},
	{1 << 20, 8, false},
	{(1 << 31) - 1, 4, true},
	{2479700537, 4, false},    // smallest prime with 3(p-1)² + (p-1) >= 2^64
	{(1 << 32) + 1, 2, false}, // wide reducer path
	{(1 << 33) + 5, 4, false},
	{1 << 10, 9, false}, // k beyond the stack coefficient buffer
}

// TestEvaluatorMatchesEval is the kernel's contract: EvalKeys over a dirty
// output buffer is byte-identical to per-key Family.Eval.
func TestEvaluatorMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range evaluatorFamilies {
		f := New(tc.minField, tc.k)
		ev := NewEvaluator(f)
		if ev.Family() != f {
			t.Fatalf("Family() mismatch")
		}
		if ev.shared != tc.shared {
			t.Fatalf("p=%d k=%d: shared-power kernel = %v, want %v", f.P(), f.K(), ev.shared, tc.shared)
		}
		seed := make([]uint64, f.SeedLen())
		keys := make([]uint64, 513)
		out := make([]uint64, len(keys))
		for trial := 0; trial < 20; trial++ {
			for i := range seed {
				seed[i] = rng.Uint64() % f.P()
			}
			for i := range keys {
				keys[i] = rng.Uint64() % f.P()
			}
			keys[0], keys[1] = 0, f.P()-1
			for i := range out {
				out[i] = ^uint64(0) // dirty prior contents must not leak
			}
			got := ev.EvalKeys(seed, keys, out)
			if len(got) != len(keys) {
				t.Fatalf("p=%d k=%d: EvalKeys returned %d values, want %d", f.P(), f.K(), len(got), len(keys))
			}
			for i, x := range keys {
				want := f.Eval(seed, x)
				if got[i] != want {
					t.Fatalf("p=%d k=%d: key %d: EvalKeys = %d, Eval = %d", f.P(), f.K(), x, got[i], want)
				}
				if s := ev.Eval(seed, x); s != want {
					t.Fatalf("p=%d k=%d: key %d: Evaluator.Eval = %d, Family.Eval = %d", f.P(), f.K(), x, s, want)
				}
			}
		}
	}
}

// TestEvaluatorUnreducedSeed pins the seed-reduction semantics: EvalKeys
// reduces coefficients mod p exactly like Eval does, so out-of-range seeds
// (legal for Eval) agree too.
func TestEvaluatorUnreducedSeed(t *testing.T) {
	f := New(1<<20, 4)
	ev := NewEvaluator(f)
	seed := []uint64{^uint64(0), f.P(), f.P() + 1, 3*f.P() + 17}
	keys := []uint64{0, 1, 12345, f.P() - 1}
	out := make([]uint64, len(keys))
	ev.EvalKeys(seed, keys, out)
	for i, x := range keys {
		if want := f.Eval(seed, x); out[i] != want {
			t.Fatalf("key %d: EvalKeys = %d, Eval = %d", x, out[i], want)
		}
	}
}

func TestEvalKeysPanics(t *testing.T) {
	f := New(97, 2)
	ev := NewEvaluator(f)
	for name, fn := range map[string]func(){
		"short seed":   func() { ev.EvalKeys([]uint64{1}, []uint64{0}, make([]uint64, 1)) },
		"short output": func() { ev.EvalKeys([]uint64{1, 2}, []uint64{0, 1}, make([]uint64, 1)) },
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

// FuzzEvalKeysMatchesEval drives random families, seeds and keys through
// both paths; any byte difference between the scalar fallback and the
// batched kernel fails.
func FuzzEvalKeysMatchesEval(f *testing.F) {
	f.Add(uint64(1024), 2, uint64(12345), uint64(99))
	f.Add(uint64(1)<<33, 4, uint64(1)<<40, ^uint64(0))
	f.Add(uint64(2), 1, uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, minField uint64, k int, seedBase, keyBase uint64) {
		if k < 1 || k > 12 {
			return
		}
		if minField > 1<<40 {
			minField = 1 << 40
		}
		fam := New(minField, k)
		ev := NewEvaluator(fam)
		seed := make([]uint64, k)
		for i := range seed {
			seed[i] = (seedBase*uint64(2*i+1) + 0x9E3779B9) % fam.P()
		}
		keys := make([]uint64, 64)
		for i := range keys {
			keys[i] = (keyBase*uint64(i+1) + uint64(i)*seedBase) % fam.P()
		}
		out := make([]uint64, len(keys))
		for i := range out {
			out[i] = keyBase // dirty
		}
		ev.EvalKeys(seed, keys, out)
		for i, x := range keys {
			if want := fam.Eval(seed, x); out[i] != want {
				t.Fatalf("p=%d k=%d key=%d: kernel %d, scalar %d", fam.P(), k, x, out[i], want)
			}
		}
	})
}

// TestEvalSeedsBlockedMatchesEvalKeys is the blocked kernel's contract:
// evaluating the whole seed matrix block-major over dirty tile rows is
// byte-identical to S independent seed-major EvalKeys sweeps. Key counts
// straddle the block grain (empty, below, exact multiple, ragged tail), S
// covers the EvalPoly2x4 groups plus remainders, and every shape runs once
// more with all coefficients and keys at p-1.
func TestEvalSeedsBlockedMatchesEvalKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range evaluatorFamilies {
		f := New(tc.minField, tc.k)
		ev := NewEvaluator(f)
		for _, S := range []int{0, 1, 3, 4, 8, 11} {
			for _, n := range []int{0, 1, 7, 511, 512, 513, 1400} {
				for _, adversarial := range []bool{false, true} {
					seeds, keys := blockedCase(rng, f, S, n, adversarial)
					got := make([][]uint64, S)
					want := make([][]uint64, S)
					for s := 0; s < S; s++ {
						got[s] = make([]uint64, n)
						want[s] = make([]uint64, n)
						for i := 0; i < n; i++ {
							got[s][i] = ^uint64(0) // dirty prior contents must not leak
						}
						ev.EvalKeys(seeds[s], keys, want[s])
					}
					ev.EvalSeedsBlocked(seeds, keys, got, new(Tile))
					for s := 0; s < S; s++ {
						for i := 0; i < n; i++ {
							if got[s][i] != want[s][i] {
								t.Fatalf("p=%d k=%d S=%d n=%d adversarial=%v: seed %d key %d: blocked = %d, EvalKeys = %d",
									f.P(), f.K(), S, n, adversarial, s, i, got[s][i], want[s][i])
							}
						}
					}
				}
			}
		}
	}
}

// blockedCase draws the inputs of one blocked-kernel table case: S
// unreduced seeds (the kernels Mod them like EvalKeys) and n keys with 0
// and p-1 up front. adversarial sets every coefficient and every key to
// p-1 instead: the largest inputs, and the ones that push the shared-power
// kernel's unreduced sum and Horner's corrections to their edges.
func blockedCase(rng *rand.Rand, f Family, S, n int, adversarial bool) ([][]uint64, []uint64) {
	seeds := make([][]uint64, S)
	for s := range seeds {
		seeds[s] = make([]uint64, f.SeedLen())
		for i := range seeds[s] {
			seeds[s][i] = rng.Uint64()
			if adversarial {
				seeds[s][i] = f.P() - 1
			}
		}
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64() % f.P()
		if adversarial {
			keys[i] = f.P() - 1
		}
	}
	if n > 1 && !adversarial {
		keys[0], keys[1] = 0, f.P()-1
	}
	return seeds, keys
}

func TestEvalSeedsBlockedPanics(t *testing.T) {
	f := New(97, 2)
	ev := NewEvaluator(f)
	keys := []uint64{0, 1, 2}
	for name, fn := range map[string]func(){
		"short seed": func() {
			ev.EvalSeedsBlocked([][]uint64{{1}}, keys, [][]uint64{make([]uint64, 3)}, new(Tile))
		},
		"missing row": func() {
			ev.EvalSeedsBlocked([][]uint64{{1, 2}, {3, 4}}, keys, [][]uint64{make([]uint64, 3)}, new(Tile))
		},
		"short row": func() {
			ev.EvalSeedsBlocked([][]uint64{{1, 2}}, keys, [][]uint64{make([]uint64, 2)}, new(Tile))
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

// FuzzEvalSeedsBlockedMatchesEvalKeys drives the blocked kernel with
// arbitrary fields (pinned to the reducer's boundary regimes: near 1, near
// 2^32, near 2^63, near 2^64, and both sides of the shared-power bound), S
// in {1, 3, 8}, and ragged key counts that leave partial tail blocks;
// adversarial sets every coefficient and key to p-1. Any byte difference
// from the per-seed kernel fails. Buffers start dirty.
func FuzzEvalSeedsBlockedMatchesEvalKeys(f *testing.F) {
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
		got := make([][]uint64, S)
		want := make([][]uint64, S)
		for s := 0; s < S; s++ {
			got[s] = make([]uint64, n)
			want[s] = make([]uint64, n)
			for i := 0; i < n; i++ {
				got[s][i] = base // dirty
			}
			ev.EvalKeys(seeds[s], keys, want[s])
		}
		ev.EvalSeedsBlocked(seeds, keys, got, new(Tile))
		for s := 0; s < S; s++ {
			for i := 0; i < n; i++ {
				if got[s][i] != want[s][i] {
					t.Fatalf("p=%d k=%d S=%d n=%d: seed %d key %d: blocked %d, per-seed %d",
						fam.P(), k, S, n, s, i, got[s][i], want[s][i])
				}
			}
		}
	})
}

func BenchmarkEvalScalar(b *testing.B) {
	f := New(1<<28, 2)
	seed := []uint64{12345, 67890}
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = uint64(i) * 65537 % f.P()
	}
	out := make([]uint64, len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, x := range keys {
			out[j] = f.Eval(seed, x)
		}
	}
	sink = out[0]
}

func BenchmarkEvalKeysKernel(b *testing.B) {
	f := New(1<<28, 2)
	ev := NewEvaluator(f)
	seed := []uint64{12345, 67890}
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = uint64(i) * 65537 % f.P()
	}
	out := make([]uint64, len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.EvalKeys(seed, keys, out)
	}
	sink = out[0]
}

// BenchmarkEvalSeedsBlocked is the blocked kernel under the production
// shape: condexp.BlockSeeds pairwise seeds over a T7-sized key vector.
// Compare against 8x BenchmarkEvalKeysKernel for the seed-major baseline.
func BenchmarkEvalSeedsBlocked(b *testing.B) {
	f := New(1<<28, 2)
	ev := NewEvaluator(f)
	const S = 8
	seeds := make([][]uint64, S)
	for s := range seeds {
		seeds[s] = []uint64{uint64(s)*12345 + 1, uint64(s)*67890 + 3}
	}
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = uint64(i) * 65537 % f.P()
	}
	out := make([][]uint64, S)
	for s := range out {
		out[s] = make([]uint64, len(keys))
	}
	var tile Tile
	b.SetBytes(int64(S * len(keys) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.EvalSeedsBlocked(seeds, keys, out, &tile)
	}
	sink = out[0][0]
}

var sink uint64
