package hashfam

import (
	"fmt"

	"repro/internal/intmath"
	"repro/internal/parallel"
)

// Evaluator is the key-major batched evaluation kernel of the seed searches:
// it binds a Family to a precomputed intmath.Reducer for p and evaluates the
// family polynomial over a whole precomputed key vector per candidate seed.
// Compared with calling Family.Eval once per key it (a) replaces every
// per-coefficient 128/64-bit division with Barrett-style reciprocal
// multiplication, (b) reduces the seed's coefficients once per EvalKeys call
// instead of once per key, (c) unrolls Horner for the ubiquitous pairwise
// (k = 2) family of the matching/MIS selection steps, and (d) in the
// block-major multi-seed kernels, evaluates the 4-wise stage families
// against key powers shared by the whole seed group, with one deferred
// Barrett reduction per key·seed, whenever the field is small enough for
// the unreduced sum to be exact (intmath.Reducer.LazyDotExact, checked
// once here at construction; otherwise Horner).
//
// EvalKeys(seed, keys, out) is byte-identical to out[i] = Eval(seed, keys[i])
// — the kernel is a speed change only, so every seed search that adopts it
// stays inside the repository's bit-identical determinism contract (the
// equivalence is fuzz-tested in evaluator_test.go).
//
// An Evaluator is immutable after construction and safe for concurrent use;
// the per-worker objective states of the solvers share one per search.
type Evaluator struct {
	fam Family
	red intmath.Reducer
	// shared selects the shared-power block kernel: a 4-wise family over a
	// field where the unreduced dot product is exact (see evalBlocks).
	shared bool
}

// NewEvaluator returns the evaluation kernel bound to f.
func NewEvaluator(f Family) *Evaluator {
	if f.k < 1 {
		panic("hashfam: NewEvaluator on zero Family")
	}
	red := intmath.NewReducer(f.p)
	return &Evaluator{fam: f, red: red, shared: f.k == 4 && red.LazyDotExact(f.k)}
}

// Family returns the bound family.
func (e *Evaluator) Family() Family { return e.fam }

// EvalKeys writes out[i] = h_seed(keys[i]) for every key and returns
// out[:len(keys)]. len(seed) must equal the family's SeedLen, every key must
// be < P (the same contract as Eval), and len(out) must be at least
// len(keys). Output slots beyond len(keys) and any dirty prior contents of
// out are never read, so pooled per-worker buffers can be passed as-is.
//
//det:hotpath
func (e *Evaluator) EvalKeys(seed, keys, out []uint64) []uint64 {
	k := e.fam.k
	if len(seed) != k {
		panic(fmt.Sprintf("hashfam: seed length %d, want %d", len(seed), k))
	}
	if len(out) < len(keys) {
		panic("hashfam: EvalKeys output shorter than key vector")
	}
	out = out[:len(keys)]
	// Reduce the coefficients once per seed, not once per key. The stack
	// array covers every k used in this repository (pairwise selection,
	// KWise = 4 subsampling); larger families fall back to one allocation
	// per batch, amortised over the whole key vector.
	var cbuf [8]uint64
	e.evalReduced(e.reduceSeed(seed, &cbuf), keys, out)
	return out
}

// reduceSeed reduces the seed's coefficients mod p into cbuf (or a fresh
// slice for families wider than the stack array).
//
//det:hotpath
func (e *Evaluator) reduceSeed(seed []uint64, cbuf *[8]uint64) []uint64 {
	k := e.fam.k
	var c []uint64
	if k <= len(cbuf) {
		c = cbuf[:k]
	} else {
		c = make([]uint64, k) //det:allow hotalloc fallback for families wider than the stack array, amortised over the key vector
	}
	for i, s := range seed {
		c[i] = e.red.Mod(s)
	}
	return c
}

// evalReduced evaluates the family polynomial with pre-reduced coefficients
// over a key range. It is the shard body of EvalKeysW — out[i] depends only
// on keys[i] and c, so disjoint subranges can be evaluated concurrently.
//
//det:hotpath
func (e *Evaluator) evalReduced(c, keys, out []uint64) {
	red := e.red
	switch len(c) {
	case 1:
		for i := range keys {
			out[i] = c[0]
		}
	case 2:
		// Unrolled Horner for the pairwise family, coefficients in registers.
		red.EvalPoly2(c[0], c[1], keys, out)
	default:
		red.EvalPoly(c, keys, out)
	}
}

// blockKeyGrain is the key-block size of the block-major kernels: 512 keys
// = 4KB, comfortably inside L1 alongside one output row, so every seed
// after the first reads the block from cache instead of re-streaming the key
// vector from memory. Block boundaries derive from len(keys) and this
// constant alone, and each output element depends only on its own key and
// seed, so blocking is unobservable in the results.
const blockKeyGrain = 512

// Tile is the reusable scratch of the block-major kernel: the S×n output
// surface — S rows sharing ONE backing slab, so a warm tile costs zero
// allocations no matter how many rows a seed group asks for — plus the
// key-power rows of the shared-power kernel. EvalSeedsBlockedFold shapes
// the output to one key block per seed; callers that need full-length rows
// (the row sinks of the sparse selection rounds) shape it with Rows. The
// zero value is ready to use; a Tile belongs to one worker at a time.
type Tile struct {
	out slab
	pow slab
}

// Rows returns s row slices of n elements each, growing the backing slab and
// row headers only when the requested shape exceeds every prior request.
// Rows are disjoint views of one allocation (each capped at its own extent,
// so an append cannot bleed into the next row); contents are whatever the
// last user left — callers must fully overwrite.
func (t *Tile) Rows(s, n int) [][]uint64 { return t.out.shape(s, n) }

// slab is one reusable row surface of a Tile.
type slab struct {
	buf  []uint64
	rows [][]uint64
}

func (b *slab) shape(s, n int) [][]uint64 {
	if need := s * n; cap(b.buf) < need {
		b.buf = make([]uint64, need)
	}
	buf := b.buf[:cap(b.buf)]
	if cap(b.rows) < s {
		b.rows = make([][]uint64, s)
	}
	rows := b.rows[:s]
	for i := range rows {
		rows[i] = buf[i*n : (i+1)*n : (i+1)*n]
	}
	return rows
}

// EvalSeedsBlockedFold is the block-major multi-seed kernel of the seed
// searches. Where EvalKeys is seed-major (one seed re-streams the whole key
// vector), this walks the key vector once in cache-resident blocks of
// blockKeyGrain keys and evaluates all S candidate seeds against each block
// before advancing — the memory traffic of one pass, amortised over the
// group. Pairwise (k = 2) families run four seeds per inner loop through
// intmath.Reducer.EvalPoly2x4, which keeps four independent Barrett chains
// (or, on AVX2 hardware, four-key vector sweeps) in flight per block.
// 4-wise families over a field where intmath.Reducer.LazyDotExact(4) holds
// (every KWise = 4 stage field up to n ≈ 6200) share the key powers: x^2
// and x^3 are computed once per block into the tile's power rows, and each
// seed becomes a dot product c_0 + c_1·x + c_2·x^2 + c_3·x^3 summed
// unreduced and reduced by ONE Barrett step, instead of Horner's three
// chained ones. The Evaluator decides this once at construction from p and
// k; larger fields and every other k keep the per-seed Horner loop.
//
// Each evaluated block is handed to fold(lo, hi, z) while cache-resident:
// z[s][i] holds h_seeds[s](keys[lo+i]) for i < hi-lo. The rows live in tile
// and are overwritten by the next block, so the callback must consume them
// before returning. Blocks arrive in ascending key order on the calling
// goroutine, and every value is byte-identical to EvalKeys(seeds[s], keys)
// (fuzz-proven in evaluator_test.go and fold_test.go), so a fold that
// absorbs blocks left to right computes exactly what a full z row would
// give it. Every seed must have the family's SeedLen and every key must be
// < P. With no seeds or no keys the callback is never invoked.
//
//det:hotpath
func (e *Evaluator) EvalSeedsBlockedFold(seeds [][]uint64, keys []uint64, tile *Tile, fold func(lo, hi int, z [][]uint64)) {
	e.evalBlocks(seeds, keys, tile.Rows(len(seeds), min(len(keys), blockKeyGrain)), e.powers(tile), false, fold)
}

// EvalSeedsBlocked is EvalSeedsBlockedFold writing every block straight
// into full-length output rows: out[s][i] = h_seeds[s](keys[i]). Each of the
// first len(seeds) rows of out must have at least len(keys) entries; dirty
// contents and slots beyond len(keys) are never read. tile supplies the
// shared-power kernel's key-power rows (its output rows are not touched, so
// out may be shaped from the same tile's Rows). The seed searches' row
// sinks (sparse selection rounds) are filled through it.
func (e *Evaluator) EvalSeedsBlocked(seeds [][]uint64, keys []uint64, out [][]uint64, tile *Tile) {
	if len(out) < len(seeds) {
		panic("hashfam: EvalSeedsBlocked with fewer output rows than seeds")
	}
	for s := range seeds {
		if len(out[s]) < len(keys) {
			panic("hashfam: EvalSeedsBlocked output row shorter than key vector")
		}
	}
	e.evalBlocks(seeds, keys, out, e.powers(tile), true, nil)
}

// powers returns the tile's key-power rows x^2 … x^(k-1) for one block when
// the shared-power kernel applies, nil otherwise.
func (e *Evaluator) powers(tile *Tile) [][]uint64 {
	if !e.shared {
		return nil
	}
	return tile.pow.shape(e.fam.k-2, blockKeyGrain)
}

// evalBlocks is the one block loop of both kernel forms. Block [lo, hi) of
// seed s lands in rows[s][lo:hi] when full is set and in rows[s][:hi-lo]
// otherwise; fold, when non-nil, runs after every block. pow, when
// non-nil, selects the shared-power kernel and holds its power rows.
//
//det:hotpath
func (e *Evaluator) evalBlocks(seeds [][]uint64, keys []uint64, rows, pow [][]uint64, full bool, fold func(lo, hi int, z [][]uint64)) {
	k := e.fam.k
	S := len(seeds)
	for _, seed := range seeds {
		if len(seed) != k {
			panic(fmt.Sprintf("hashfam: seed length %d, want %d", len(seed), k))
		}
	}
	if S == 0 || len(keys) == 0 {
		return
	}
	// Reduce every seed's coefficients once up front (the per-seed analogue
	// of EvalKeys' single reduceSeed). The stack array covers the group
	// shapes the seed searches feed (S <= condexp.BlockSeeds, k <= 4);
	// larger requests fall back to one allocation amortised over S key
	// sweeps.
	var cstack [64]uint64
	var cs []uint64
	if S*k <= len(cstack) {
		cs = cstack[:S*k]
	} else {
		cs = make([]uint64, S*k) //det:allow hotalloc fallback for seed batches wider than the stack array, amortised over S key sweeps
	}
	for s, seed := range seeds {
		c := cs[s*k : (s+1)*k]
		for i, v := range seed {
			c[i] = e.red.Mod(v)
		}
	}
	for lo := 0; lo < len(keys); lo += blockKeyGrain {
		hi := min(lo+blockKeyGrain, len(keys))
		kb := keys[lo:hi]
		a, b := 0, hi-lo
		if full {
			a, b = lo, hi
		}
		s := 0
		switch {
		case pow != nil:
			e.red.PowerRows(kb, pow)
			for ; s < S; s++ {
				e.red.EvalPoly4Lazy((*[4]uint64)(cs[s*4:]), kb, pow[0], pow[1], rows[s][a:b])
			}
		case k == 2:
			for ; s+4 <= S; s += 4 {
				var c0, c1 [4]uint64
				for j := 0; j < 4; j++ {
					c0[j] = cs[(s+j)*2]
					c1[j] = cs[(s+j)*2+1]
				}
				e.red.EvalPoly2x4(&c0, &c1, kb,
					rows[s][a:b], rows[s+1][a:b], rows[s+2][a:b], rows[s+3][a:b])
			}
		}
		for ; s < S; s++ {
			e.evalReduced(cs[s*k:(s+1)*k], kb, rows[s][a:b])
		}
		if fold != nil {
			fold(lo, hi, rows)
		}
	}
}

// evalKeysShardGrain is the minimum number of keys a shard must carry for
// the EvalKeysW fan-out to pay for its goroutine handoffs. Shard boundaries
// derive from len(keys) and this constant alone — never from the worker
// count — per the repository's determinism contract (moot for EvalKeysW,
// whose slots are written independently, but kept structural anyway).
const evalKeysShardGrain = 4096

// EvalKeysW is EvalKeys with the key vector sharded over up to `workers`
// goroutines of the shared internal/parallel pool (0 = GOMAXPROCS, 1 =
// serial). It exists for the apply filters and final selections that
// evaluate ONE seed over a whole round's key vector, where no seed group is
// there to fill the pool. Output is byte-identical to EvalKeys at any worker count: the seed's
// coefficients are reduced once and shared read-only, and each shard writes
// only its own out range.
func (e *Evaluator) EvalKeysW(seed, keys, out []uint64, workers int) []uint64 {
	if parallel.Workers(workers) <= 1 || len(keys) < 2*evalKeysShardGrain {
		return e.EvalKeys(seed, keys, out)
	}
	if len(seed) != e.fam.k {
		panic(fmt.Sprintf("hashfam: seed length %d, want %d", len(seed), e.fam.k))
	}
	if len(out) < len(keys) {
		panic("hashfam: EvalKeys output shorter than key vector")
	}
	out = out[:len(keys)]
	var cbuf [8]uint64
	c := e.reduceSeed(seed, &cbuf)
	shards := parallel.Shards(len(keys), len(keys)/evalKeysShardGrain)
	parallel.RunShards(workers, len(shards), func(s int) {
		lo, hi := shards[s].Lo, shards[s].Hi
		e.evalReduced(c, keys[lo:hi], out[lo:hi])
	})
	return out
}

// Eval is the scalar form of EvalKeys: h_seed(x) through the bound reducer.
// It exists for one-off evaluations where building a key vector first would
// not pay for itself, and as the reducer-path scalar reference the
// equivalence tests pin against Family.Eval.
func (e *Evaluator) Eval(seed []uint64, x uint64) uint64 {
	k := e.fam.k
	if len(seed) != k {
		panic(fmt.Sprintf("hashfam: seed length %d, want %d", len(seed), k))
	}
	red := e.red
	x = red.Mod(x)
	acc := red.Mod(seed[k-1])
	for j := k - 2; j >= 0; j-- {
		acc = red.AddMod(red.MulMod(acc, x), red.Mod(seed[j]))
	}
	return acc
}
