package intmath

import (
	"math/big"
	"math/rand"
	"testing"
)

// reducerModuli is the boundary set the Reducer's two regimes pivot on: the
// small/wide switch at 2^32, the normalization shift hitting 0 at 2^63, and
// the extremes of the uint64 range.
var reducerModuli = []uint64{
	1, 2, 3, 5, 7, 1024,
	(1 << 32) - 5, (1 << 32) - 1, 1 << 32, (1 << 32) + 1, (1 << 32) + 15,
	(1 << 33) + 3,
	(1 << 63) - 259, (1 << 63) - 1, 1 << 63, (1 << 63) + 29,
	^uint64(0) - 58, ^uint64(0), // 2^64-59 is the largest uint64 prime
}

func TestReducerMulModMatchesMulMod(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range reducerModuli {
		r := NewReducer(m)
		if r.M() != m {
			t.Fatalf("m=%d: M() = %d", m, r.M())
		}
		check := func(a, b uint64) {
			t.Helper()
			if got, want := r.MulMod(a, b), MulMod(a, b, m); got != want {
				t.Fatalf("m=%d: Reducer.MulMod(%d, %d) = %d, want %d", m, a, b, got, want)
			}
			if got, want := r.AddMod(a, b), AddMod(a, b, m); got != want {
				t.Fatalf("m=%d: Reducer.AddMod(%d, %d) = %d, want %d", m, a, b, got, want)
			}
		}
		// Boundary operands: 0, 1, m-1, m/2 and neighbours.
		bounds := []uint64{0, 1, 2, m / 2, m - 1}
		if m == 1 {
			bounds = []uint64{0}
		}
		for _, a := range bounds {
			for _, b := range bounds {
				if a < m && b < m {
					check(a, b)
				}
			}
		}
		for i := 0; i < 2000; i++ {
			check(rng.Uint64()%m, rng.Uint64()%m)
		}
	}
}

func TestReducerModMatchesPercent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, m := range reducerModuli {
		r := NewReducer(m)
		ns := []uint64{0, 1, m - 1, m, m + 1, 2*m - 1, 2 * m, ^uint64(0), ^uint64(0) - 1}
		for i := 0; i < 2000; i++ {
			ns = append(ns[:9], rng.Uint64())
			for _, n := range ns {
				if got, want := r.Mod(n), n%m; got != want {
					t.Fatalf("m=%d: Mod(%d) = %d, want %d", m, n, got, want)
				}
			}
		}
	}
}

// TestReducerEvalPolyMatchesScalar checks the batched Horner loops against
// the scalar MulMod/AddMod composition on every boundary modulus, for the
// degrees the repository uses (pairwise and 4-wise) plus an odd higher one.
func TestReducerEvalPolyMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range reducerModuli {
		r := NewReducer(m)
		keys := make([]uint64, 257)
		for i := range keys {
			keys[i] = rng.Uint64() % m
		}
		keys[0], keys[len(keys)-1] = 0, m-1
		for _, k := range []int{2, 4, 5} {
			c := make([]uint64, k)
			for i := range c {
				c[i] = rng.Uint64() % m
			}
			out := make([]uint64, len(keys))
			for i := range out {
				out[i] = 0xDEADBEEF // dirty: every slot must be rewritten
			}
			if k == 2 {
				r.EvalPoly2(c[0], c[1], keys, out)
			} else {
				r.EvalPoly(c, keys, out)
			}
			for i, x := range keys {
				want := c[k-1]
				for j := k - 2; j >= 0; j-- {
					want = AddMod(MulMod(want, x, m), c[j], m)
				}
				if out[i] != want {
					t.Fatalf("m=%d k=%d: key %d: got %d, want %d", m, k, x, out[i], want)
				}
			}
		}
	}
}

// Boundaries of the shared-power kernel's exactness test for k = 4:
// (m-1) + 3(m-1)² < 2^64 holds for lazyMaxPrime4 and fails for
// lazyMinFailPrime4, the next prime up.
const (
	lazyMaxPrime4     = 2479700513
	lazyMinFailPrime4 = 2479700537
)

// TestLazyDotExactMatchesBound pins LazyDotExact to the exact-integer form
// of its bound, (m-1) + (k-1)(m-1)² < 2^64, on the moduli the k = 4 kernel
// pivots on and on every reducer boundary modulus.
func TestLazyDotExactMatchesBound(t *testing.T) {
	moduli := append([]uint64{(1 << 31) - 1, 1073741827, lazyMaxPrime4, lazyMaxPrime4 + 12, lazyMinFailPrime4}, reducerModuli...)
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	for _, m := range moduli {
		r := NewReducer(m)
		for _, k := range []int{1, 2, 3, 4, 8} {
			a := new(big.Int).SetUint64(m - 1)
			sum := new(big.Int).Mul(a, a)
			sum.Mul(sum, big.NewInt(int64(k-1)))
			sum.Add(sum, a)
			want := k >= 2 && sum.Cmp(two64) < 0
			if got := r.LazyDotExact(k); got != want {
				t.Fatalf("m=%d k=%d: LazyDotExact = %v, want %v", m, k, got, want)
			}
		}
	}
	if !NewReducer(lazyMaxPrime4).LazyDotExact(4) || NewReducer(lazyMinFailPrime4).LazyDotExact(4) {
		t.Fatal("k = 4 bound does not fall between lazyMaxPrime4 and lazyMinFailPrime4")
	}
}

// TestPowerRowsLazySumMatchesEvalPoly pins the shared-power kernel to the
// Horner loop: PowerRows against PowMod for every row of a degree-7 family,
// and PowerRows + EvalPoly4Lazy against EvalPoly for 4-wise seeds, on
// moduli up to the k = 4 exactness bound, over ragged lengths, with dirty
// outputs. The adversarial case sets every coefficient and key to m-1; a
// final direct EvalPoly4Lazy call with every power row at m-1 as well hits
// the maximal sum (m-1) + 3(m-1)², which is what the bound is about.
func TestPowerRowsLazySumMatchesEvalPoly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range []uint64{2, 3, 97, 1048583, 1073741827, (1 << 31) - 1, lazyMaxPrime4} {
		r := NewReducer(m)
		if !r.LazyDotExact(4) {
			t.Fatalf("m=%d: outside the k = 4 bound", m)
		}
		for _, n := range []int{0, 1, 7, 512, 513} {
			for _, adversarial := range []bool{false, true} {
				keys := make([]uint64, n)
				c := make([]uint64, 4)
				for i := range keys {
					keys[i] = rng.Uint64() % m
				}
				for i := range c {
					c[i] = rng.Uint64() % m
				}
				if n > 1 {
					keys[0], keys[1] = 0, m-1
				}
				if adversarial {
					for i := range keys {
						keys[i] = m - 1
					}
					for i := range c {
						c[i] = m - 1
					}
				}
				pow := make([][]uint64, 6)
				for j := range pow {
					pow[j] = make([]uint64, n+3) // longer than keys: the tail is never touched
					for i := range pow[j] {
						pow[j][i] = ^uint64(0)
					}
				}
				r.PowerRows(keys, pow)
				for j, row := range pow {
					for i, x := range keys {
						if want := PowMod(x, uint64(j+2), m); row[i] != want {
							t.Fatalf("m=%d n=%d: key %d: power row x^%d = %d, want %d", m, n, x, j+2, row[i], want)
						}
					}
					if row[n] != ^uint64(0) {
						t.Fatalf("m=%d n=%d: power row x^%d written past len(keys)", m, n, j+2)
					}
				}
				want := make([]uint64, n)
				r.EvalPoly(c, keys, want)
				got := make([]uint64, n)
				for i := range got {
					got[i] = 0xDEADBEEF
				}
				r.EvalPoly4Lazy((*[4]uint64)(c), keys, pow[0], pow[1], got)
				for i, x := range keys {
					if got[i] != want[i] {
						t.Fatalf("m=%d n=%d adversarial=%v: key %d: lazy sum = %d, EvalPoly = %d", m, n, adversarial, x, got[i], want[i])
					}
				}
			}
		}
		// Maximal sum: every operand at m-1, powers included.
		top := []uint64{m - 1}
		var out [1]uint64
		r.EvalPoly4Lazy(&[4]uint64{m - 1, m - 1, m - 1, m - 1}, top, top, top, out[:])
		a := new(big.Int).SetUint64(m - 1)
		sum := new(big.Int).Mul(a, a)
		sum.Mul(sum, big.NewInt(3))
		sum.Add(sum, a)
		if want := sum.Mod(sum, new(big.Int).SetUint64(m)).Uint64(); out[0] != want {
			t.Fatalf("m=%d: maximal lazy sum reduced to %d, want %d", m, out[0], want)
		}
	}
}

func TestNewReducerZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewReducer(0) did not panic")
		}
	}()
	NewReducer(0)
}

// FuzzReducer cross-checks both Reducer operations against the generic
// bits.Div64-based originals on arbitrary (m, a, b).
func FuzzReducer(f *testing.F) {
	f.Add(uint64(3), uint64(1), uint64(2))
	f.Add(uint64(1)<<32, uint64(1<<31), uint64((1<<32)-1))
	f.Add((uint64(1)<<63)+29, uint64(1)<<62, (uint64(1)<<63)+28)
	f.Add(^uint64(0), ^uint64(0)-1, ^uint64(0)-2)
	f.Fuzz(func(t *testing.T, m, a, b uint64) {
		if m == 0 {
			return
		}
		a, b = a%m, b%m
		r := NewReducer(m)
		if got, want := r.MulMod(a, b), MulMod(a, b, m); got != want {
			t.Fatalf("m=%d: MulMod(%d, %d) = %d, want %d", m, a, b, got, want)
		}
		if got, want := r.AddMod(a, b), AddMod(a, b, m); got != want {
			t.Fatalf("m=%d: AddMod(%d, %d) = %d, want %d", m, a, b, got, want)
		}
		if got, want := r.Mod(a+b), (a+b)%m; a+b >= a && got != want {
			t.Fatalf("m=%d: Mod(%d) = %d, want %d", m, a+b, got, want)
		}
		// EvalPoly2 with c0 = a, c1 = b over keys derived from the inputs:
		// covers whichever of the three regimes (small Barrett, Montgomery
		// medium, wide Möller–Granlund) m selects.
		keys := []uint64{0, a, b, m - 1, (a ^ b) % m, (a + b) % m}
		out := make([]uint64, len(keys))
		r.EvalPoly2(a, b, keys, out)
		for i, x := range keys {
			if want := AddMod(MulMod(b, x, m), a, m); out[i] != want {
				t.Fatalf("m=%d: EvalPoly2 c0=%d c1=%d key %d = %d, want %d", m, a, b, x, out[i], want)
			}
		}
	})
}

func BenchmarkMulModDiv64(b *testing.B) {
	const m = 1<<63 - 259
	acc := uint64(12345)
	for i := 0; i < b.N; i++ {
		acc = MulMod(acc, acc|1, m)
	}
	sinkU64 = acc
}

func BenchmarkReducerMulModWide(b *testing.B) {
	r := NewReducer(1<<63 - 259)
	acc := uint64(12345)
	for i := 0; i < b.N; i++ {
		acc = r.MulMod(acc, acc|1)
	}
	sinkU64 = acc
}

func BenchmarkReducerMulModSmall(b *testing.B) {
	r := NewReducer(1<<31 - 1)
	acc := uint64(12345)
	for i := 0; i < b.N; i++ {
		acc = r.MulMod(acc, acc|1)
	}
	sinkU64 = acc
}

var sinkU64 uint64
