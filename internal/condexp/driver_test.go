package condexp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hashfam"
)

// countSink counts, per seed, the values below th.
type countSink struct {
	th     uint64
	counts []int64
}

func (k *countSink) Begin(s int) [][]uint64 {
	k.counts = make([]int64, s)
	return nil
}

func (k *countSink) Fold(s, lo, hi int, z []uint64) {
	for _, v := range z {
		if v < k.th {
			k.counts[s]++
		}
	}
}

func (k *countSink) Value(s int) int64 { return k.counts[s] }

// digestSink folds every value with its key index into an order-sensitive
// per-seed digest and checks that blocks arrive contiguous and ascending:
// a dropped, repeated, misplaced or reordered block changes the value.
type digestSink struct {
	vals []int64
	next []int
}

const brokenBlocks = -1 << 62

func (k *digestSink) Begin(s int) [][]uint64 {
	k.vals = make([]int64, s)
	k.next = make([]int, s)
	return nil
}

func (k *digestSink) Fold(s, lo, hi int, z []uint64) {
	if lo != k.next[s] || hi-lo != len(z) || k.vals[s] == brokenBlocks {
		k.vals[s] = brokenBlocks
		return
	}
	k.next[s] = hi
	v := k.vals[s]
	for i, x := range z {
		v = (v*1000003 ^ int64(x)) + int64(lo+i)
	}
	k.vals[s] = v
}

func (k *digestSink) Value(s int) int64 { return k.vals[s] }

// rowDigestSink is digestSink as a row sink: the driver fills its rows
// (pre-dirtied, one slot longer than the key vector) and Value digests
// them, so a missed, shifted or overrunning write changes the value.
type rowDigestSink struct {
	nKeys *int
	rows  [][]uint64
}

func (k *rowDigestSink) Begin(s int) [][]uint64 {
	k.rows = make([][]uint64, s)
	for i := range k.rows {
		k.rows[i] = make([]uint64, *k.nKeys+1)
		for j := range k.rows[i] {
			k.rows[i][j] = 0xdead
		}
	}
	return k.rows
}

func (k *rowDigestSink) Fold(s, lo, hi int, z []uint64) { panic("Fold called on a row sink") }

func (k *rowDigestSink) Value(s int) int64 {
	var v int64
	for i, x := range k.rows[s] {
		v = (v*1000003 ^ int64(x)) + int64(i)
	}
	return v
}

// plainValues is the reference: z[i] = fam.Eval(seed, keys[i]) by a plain
// loop, fed to a fresh sink per seed as one block or, for a row sink, as
// its row.
func plainValues(fam hashfam.Family, newSink func() Sink, seeds [][]uint64, keys []uint64) []int64 {
	out := make([]int64, len(seeds))
	z := make([]uint64, len(keys))
	for i, seed := range seeds {
		for t, key := range keys {
			z[t] = fam.Eval(seed, key)
		}
		k := newSink()
		if rows := k.Begin(1); rows != nil {
			copy(rows[0], z)
		} else if len(keys) > 0 {
			k.Fold(0, 0, len(keys), z)
		}
		out[i] = k.Value(0)
	}
	return out
}

func randomSeedsKeys(rng *rand.Rand, fam hashfam.Family, nSeeds, nKeys int) ([][]uint64, []uint64) {
	seeds := make([][]uint64, nSeeds)
	for s := range seeds {
		seeds[s] = make([]uint64, fam.SeedLen())
		for i := range seeds[s] {
			seeds[s][i] = rng.Uint64() % fam.P()
		}
	}
	keys := make([]uint64, nKeys)
	for i := range keys {
		keys[i] = rng.Uint64() % fam.P()
	}
	if nKeys > 1 {
		keys[0], keys[1] = 0, fam.P()-1
	}
	return seeds, keys
}

// checkDriver compares the driver's per-seed values against plainValues on
// dirty value slots, reusing one driver for every call so pooled sinks and
// tiles carry state between batches.
func checkDriver(t *testing.T, label string, d *BlockSearch, fam hashfam.Family, newSink func() Sink, seeds [][]uint64, keys []uint64) {
	t.Helper()
	want := plainValues(fam, newSink, seeds, keys)
	got := make([]int64, len(seeds))
	for i := range got {
		got[i] = 12345 // dirty
	}
	d.Objective(keys)(seeds, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: seed %d of %d: driver %d, plain loop %d", label, i, len(seeds), got[i], want[i])
		}
	}
}

// driverFamilies covers pairwise and k-wise families in all three reducer
// regimes: Barrett (p <= 2^32), Montgomery (odd p in (2^32, 2^63)) and the
// wide 128-bit path (p > 2^63). 2^31-1 puts the 4-wise shared-power kernel
// near its exactness bound.
var driverFamilies = []struct {
	minField uint64
	k        int
}{
	{1 << 20, 2},
	{1 << 20, 4},
	{(1 << 31) - 1, 4},
	{(1 << 33) + 5, 2},
	{(1 << 33) + 5, 4},
	{(1 << 63) + 29, 2},
	{(1 << 63) + 29, 4},
}

// TestBlockSearchMatchesPlainLoop is the driver's contract: for fold and
// row sinks, every family shape and reducer regime, batch lengths that are and are not
// multiples of BlockSeeds, key vectors below, at and across the kernel's
// key-block size, and Workers 1/2/8, every per-seed value equals the sink
// fed a plainly computed z row.
func TestBlockSearchMatchesPlainLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, fc := range driverFamilies {
		fam := hashfam.New(fc.minField, fc.k)
		ev := hashfam.NewEvaluator(fam)
		th := fam.P() / 3
		var nKeys int
		sinks := map[string]func() Sink{
			"digest": func() Sink { return new(digestSink) },
			"count":  func() Sink { return &countSink{th: th} },
			"rows":   func() Sink { return &rowDigestSink{nKeys: &nKeys} },
		}
		for name, newSink := range sinks {
			for _, workers := range []int{1, 2, 8} {
				d := NewBlockSearch(ev, workers, newSink)
				for _, nSeeds := range []int{1, 7, 8, 13, 64} {
					for _, nKeys = range []int{0, 1, 511, 512, 513, 1100} {
						seeds, keys := randomSeedsKeys(rng, fam, nSeeds, nKeys)
						label := fmt.Sprintf("p=%d k=%d %s workers=%d seeds=%d keys=%d", fam.P(), fc.k, name, workers, nSeeds, nKeys)
						checkDriver(t, label, d, fam, newSink, seeds, keys)
					}
				}
			}
		}
	}
}

// FuzzBlockSearchMatchesPlainLoop drives the same contract with arbitrary
// fields, family widths, batch and key-vector lengths and worker counts;
// adversarial sets every coefficient and key to p-1.
func FuzzBlockSearchMatchesPlainLoop(f *testing.F) {
	f.Add(uint64(1<<20), 2, 13, 1100, 2, int64(1), false)
	f.Add(uint64(1<<33)+5, 4, 7, 513, 8, int64(2), false)
	f.Add(uint64(1<<63)+29, 2, 64, 512, 1, int64(3), false)
	f.Add(^uint64(0)-58, 3, 9, 70, 2, int64(4), false)
	// The shared-power kernel's boundaries: 2^31-1 (shared, near the
	// bound), the smallest prime past the k = 4 bound (Horner), k = 3 and
	// k = 8 over a shared-size field, ragged last blocks, and every
	// coefficient and key at p-1.
	f.Add(uint64(1<<31)-1, 4, 13, 1100, 2, int64(5), false)
	f.Add(uint64(1<<31)-1, 4, 8, 515, 1, int64(6), true)
	f.Add(uint64(2479700537), 4, 9, 700, 2, int64(7), false)
	f.Add(uint64(1<<20), 3, 8, 1029, 2, int64(8), false)
	f.Add(uint64(1<<20), 8, 5, 513, 1, int64(9), true)
	f.Fuzz(func(t *testing.T, minField uint64, k, nSeeds, nKeys, workers int, seed int64, adversarial bool) {
		if minField < 2 || k < 1 || k > 8 || nSeeds < 1 || nSeeds > 80 || nKeys < 0 || nKeys > 2048 || workers < 1 || workers > 8 {
			return
		}
		if minField > ^uint64(0)-58 {
			minField = ^uint64(0) - 58 // 2^64-59 is the largest uint64 prime
		}
		fam := hashfam.New(minField, k)
		seeds, keys := randomSeedsKeys(rand.New(rand.NewSource(seed)), fam, nSeeds, nKeys)
		if adversarial {
			for _, s := range seeds {
				for i := range s {
					s[i] = fam.P() - 1
				}
			}
			for i := range keys {
				keys[i] = fam.P() - 1
			}
		}
		for _, newSink := range []func() Sink{
			func() Sink { return new(digestSink) },
			func() Sink { return &rowDigestSink{nKeys: &nKeys} },
		} {
			d := NewBlockSearch(hashfam.NewEvaluator(fam), workers, newSink)
			checkDriver(t, fmt.Sprintf("p=%d k=%d", fam.P(), k), d, fam, newSink, seeds, keys)
		}
	})
}
