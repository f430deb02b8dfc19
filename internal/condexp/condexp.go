// Package condexp implements the deterministic seed-selection procedures of
// Section 2.4 of the paper (the method of conditional expectations).
//
// The paper's setting: over a random hash function h from a k-wise
// independent family H, some objective q(h) = Σ_machines q_x(h) has
// E_h[q] >= Q, hence by the probabilistic method some h* in H has
// q(h*) >= Q. The MPC algorithm finds h* deterministically by fixing the
// O(log n)-bit seed in Θ(log S)-bit chunks, machines voting on each chunk
// with conditional expectations — O(1) rounds per chunk because local
// computation is free in the MPC model.
//
// On a laptop local computation is not free, so the default procedure is
// SearchAtLeastBatch: scan the family in its fixed enumeration order,
// evaluating batches of up to S candidate seeds per charged O(1)-round
// AllReduce (each machine evaluates every candidate on its local data; the
// summed vector tells everyone the first candidate meeting the threshold). The output is
// deterministic — the first seed in enumeration order with q(seed) >= Q —
// and termination is guaranteed whenever the expectation bound actually
// holds for the finite family. The scan stands in for the paper's
// chunk-by-chunk voting, which is also implemented (SearchConditional) and
// tested against SearchAtLeastBatch on small families.
//
// Every production objective scores its candidates through one driver,
// BlockSearch: the objective supplies its per-round key vector and a
// per-worker Sink, and the driver owns seed grouping, worker fan-out, the
// pooled evaluation tile and the block-major hash kernel.
package condexp

import (
	"errors"

	"repro/internal/hashfam"
	"repro/internal/parallel"
	"repro/internal/scratch"
	"repro/internal/simcost"
)

// Objective evaluates the global objective for a full seed: the per-seed
// form of the exact-method reference (SearchConditional, FamilyMean).
type Objective func(seed []uint64) int64

// BatchObjective evaluates one whole batch of candidate seeds against
// shared per-round state: it must set values[i] = q(seeds[i]) for every i,
// with slot i depending only on seeds[i]. Handing the whole batch over at
// once is what lets BlockSearch evaluate it block-major.
type BatchObjective func(seeds [][]uint64, values []int64)

// BlockSeeds is the seed-group width of BlockSearch: how many candidate
// seeds share one pass over the key vector. Eight pairwise seeds keep the
// S×block output tile at 8·4KB alongside the key block, inside L2 with room
// to spare, while amortising the key-vector read traffic 8 ways. It also
// sets the granularity groups fan out over workers at, so batch sizes (the
// default Options.BatchSize is 64) should be multiples of it for even
// worker utilisation — but any batch length works, the last group just runs
// short.
const BlockSeeds = 8

// Sink is one worker's objective state in a BlockSearch. For each group of
// up to BlockSeeds candidates the driver calls Begin(seeds), fills in the
// group's z values, and finally calls Value(s) for each seed s of the
// group. How the z values arrive is the sink's choice, made per group by
// what Begin returns:
//
//   - nil (a fold sink): Fold(s, lo, hi, z) for every key block in
//     ascending order, z[i] being the hash of keys[lo+i] under the group's
//     seed s, valid only during the call;
//   - one row per seed, each at least len(keys) long (a row sink): the
//     driver writes row[s][i] = hash of keys[i] straight into them and
//     never calls Fold.
//
// A sink must derive its values from this group's z values alone (reset
// per group in Begin), so results never depend on which worker held it
// before.
type Sink interface {
	Begin(seeds int) (rows [][]uint64)
	Fold(s, lo, hi int, z []uint64)
	Value(s int) int64
}

// BlockSearch is the block-major seed-search driver shared by every batch
// objective. A batch is split into contiguous groups of BlockSeeds seeds
// (the last may be shorter); each group takes a pooled worker — a Sink plus
// an evaluation tile — and makes ONE block-major pass over the key vector:
// through hashfam.Evaluator.EvalSeedsBlockedFold for a fold sink, folding
// every evaluated block into it while it is cache-resident, or through
// EvalSeedsBlocked straight into a row sink's rows. Group boundaries derive from
// the batch length and BlockSeeds alone, never from the worker count, and
// each group writes only its own value slots, so results are bit-identical
// at any worker count.
type BlockSearch struct {
	ev      *hashfam.Evaluator
	workers int
	pool    *scratch.PerWorker[*blockWorker]
}

type blockWorker struct {
	sink Sink
	tile hashfam.Tile
}

// NewBlockSearch returns a driver evaluating ev's family on up to workers
// goroutines (the parallel.Workers convention), creating one sink per
// worker with newSink. Sinks are reused across groups, batches and — when
// the driver lives that long — rounds; newSink's sinks typically hold a
// pointer to the objective's per-round state.
func NewBlockSearch(ev *hashfam.Evaluator, workers int, newSink func() Sink) *BlockSearch {
	return &BlockSearch{
		ev:      ev,
		workers: workers,
		pool:    scratch.NewPerWorker(func() *blockWorker { return &blockWorker{sink: newSink()} }),
	}
}

// Objective returns the BatchObjective scoring candidate seeds over keys:
// values[i] is the sink's Value for seeds[i] after folding every block of
// keys hashed under it.
func (b *BlockSearch) Objective(keys []uint64) BatchObjective {
	return func(seeds [][]uint64, values []int64) {
		groups := (len(seeds) + BlockSeeds - 1) / BlockSeeds
		parallel.RunShards(b.workers, groups, func(g int) {
			lo := g * BlockSeeds
			hi := min(lo+BlockSeeds, len(seeds))
			w := b.pool.Get()
			if rows := w.sink.Begin(hi - lo); rows != nil {
				b.ev.EvalSeedsBlocked(seeds[lo:hi], keys, rows, &w.tile)
			} else {
				b.ev.EvalSeedsBlockedFold(seeds[lo:hi], keys, &w.tile, func(klo, khi int, z [][]uint64) {
					for s := range hi - lo {
						w.sink.Fold(s, klo, khi, z[s][:khi-klo])
					}
				})
			}
			for s := lo; s < hi; s++ {
				values[s] = w.sink.Value(s - lo)
			}
			b.pool.Put(w)
		})
	}
}

// Options configure a search.
type Options struct {
	// BatchSize is the number of candidate seeds evaluated per charged
	// O(1)-round batch. Defaults to the model's S (or 64 without a model),
	// and is clamped to S when a model is present: a machine must be able
	// to hold the per-candidate partial objectives.
	BatchSize int
	// MaxSeeds bounds the scan. 0 means DefaultMaxSeeds. When the bound is
	// hit the best seed seen so far is returned with Found == false.
	MaxSeeds int
	// Model, when non-nil, is charged one seed batch per batch of
	// evaluations under Label.
	Model *simcost.Model
	// Label attributes charged rounds. Defaults to "condexp".
	Label string
	// Done, when non-nil, is polled once per batch boundary — before each
	// charged batch evaluation, never inside one — and a true return stops
	// the scan: the search returns the best seed seen so far with
	// Result.Canceled set and no error. Searches that run to completion are
	// bit-identical to Done == nil; this is the request-cancellation seam of
	// the round loops (core.Params.Done threads through here).
	Done func() bool
	// OnBatch, when non-nil, receives one BatchStat per charged batch
	// evaluation, synchronously from the search's coordinating goroutine and
	// in enumeration order — batches are flushed serially whatever the
	// objective's worker count, so the stat stream is bit-identical at any
	// worker count. It
	// is pure observation: the scan's selection rule, charges and results
	// are unchanged, and a nil OnBatch costs nothing. This is the
	// seed-batch-granular seam the observer API (core.RoundEvent.Batches)
	// threads through.
	OnBatch func(BatchStat)
}

// BatchStat describes one charged batch of a seed search, as delivered to
// Options.OnBatch immediately after the batch evaluated.
type BatchStat struct {
	// Batch is the 1-based index of the batch within this search.
	Batch int
	// Seeds is the number of candidate seeds the batch evaluated.
	Seeds int
	// SeedsTried is the cumulative candidate count including this batch.
	SeedsTried int
	// BestValue is the best objective value seen so far in the scan.
	BestValue int64
	// Found reports that this batch contained the first qualifying seed,
	// ending the search.
	Found bool
}

// DefaultMaxSeeds bounds seed scans when Options.MaxSeeds is 0. The theory
// guarantees a qualifying seed exists when the expectation bound holds; the
// cap exists so that mis-calibrated thresholds degrade to best-effort
// instead of hanging.
const DefaultMaxSeeds = 1 << 17

// Result reports the outcome of a search.
type Result struct {
	Seed       []uint64
	Value      int64
	Found      bool // Value >= the requested threshold
	SeedsTried int
	Batches    int
	// Canceled is set when Options.Done stopped the scan at a batch
	// boundary. Seed then holds the best candidate of the batches that DID
	// evaluate — or nil when cancellation hit before the first batch — so
	// callers must abandon the round rather than apply the seed.
	Canceled bool
}

// ErrEmptyFamily is returned when the family has no seeds to try.
var ErrEmptyFamily = errors.New("condexp: empty family")

func (o *Options) defaults() {
	if o.Label == "" {
		o.Label = "condexp"
	}
	if o.BatchSize <= 0 {
		if o.Model != nil {
			o.BatchSize = o.Model.S()
		}
		if o.BatchSize <= 0 {
			o.BatchSize = 64
		}
	}
	if o.Model != nil && o.BatchSize > o.Model.S() {
		o.BatchSize = o.Model.S()
	}
	if o.MaxSeeds <= 0 {
		o.MaxSeeds = DefaultMaxSeeds
	}
}

// SearchAtLeastBatch scans the family in its canonical enumeration order,
// evaluating candidates a whole batch at a time through obj, and returns
// the first seed whose objective is at least threshold. If no seed
// qualifies within MaxSeeds, the best seed seen is returned with
// Found == false (callers treat that as "take the progress you got", which
// keeps the outer algorithms unconditionally correct).
func SearchAtLeastBatch(fam hashfam.Family, obj BatchObjective, threshold int64, opts Options) (Result, error) {
	opts.defaults()
	enum := fam.Enumerate()
	best := Result{Value: -1 << 62}
	seedLen := fam.SeedLen()

	// One backing array serves every candidate seed of every batch (batch
	// slot i always reuses the same sub-slice), so the scan's allocation
	// cost is a small constant per search instead of one make per seed —
	// the searches run once per round of the outer algorithms, and the
	// Engine's allocation-flatness depends on them staying cheap.
	seedBuf := make([]uint64, opts.BatchSize*seedLen)
	batch := make([][]uint64, 0, opts.BatchSize)
	values := make([]int64, opts.BatchSize)
	tried := 0

	flush := func() (done bool) {
		if len(batch) == 0 {
			return false
		}
		if opts.Model != nil {
			opts.Model.ChargeSeedBatch(len(batch), opts.Label)
		}
		best.Batches++
		obj(batch, values[:len(batch)])
		for i, seed := range batch {
			v := values[i]
			if v > best.Value {
				best.Value = v
				best.Seed = append(best.Seed[:0], seed...)
			}
			if v >= threshold {
				// First qualifying seed in enumeration order wins.
				best.Value = v
				best.Seed = append(best.Seed[:0], seed...)
				best.Found = true
				break
			}
		}
		if opts.OnBatch != nil {
			// tried already counts this batch's seeds; all of them evaluated
			// even when the qualifying seed sits mid-batch (one AllReduce per
			// batch), so the cumulative count is exact.
			opts.OnBatch(BatchStat{
				Batch:      best.Batches,
				Seeds:      len(batch),
				SeedsTried: tried,
				BestValue:  best.Value,
				Found:      best.Found,
			})
		}
		if best.Found {
			return true
		}
		batch = batch[:0]
		return false
	}

	// The cancellation checkpoint: polled once per batch boundary, so a
	// search never stops mid-batch and a completed search is bit-identical
	// to an unobserved one.
	canceled := func() bool {
		if opts.Done != nil && opts.Done() {
			best.Canceled = true
			best.SeedsTried = tried - len(batch) // the pending batch never evaluated
			return true
		}
		return false
	}

	for tried < opts.MaxSeeds && enum.Next() {
		i := len(batch)
		seed := seedBuf[i*seedLen : (i+1)*seedLen : (i+1)*seedLen]
		copy(seed, enum.Seed())
		batch = append(batch, seed)
		tried++
		if len(batch) == opts.BatchSize {
			if canceled() {
				return best, nil
			}
			if flush() {
				best.SeedsTried = tried
				return best, nil
			}
		}
	}
	if canceled() {
		return best, nil
	}
	if flush() {
		best.SeedsTried = tried
		return best, nil
	}
	best.SeedsTried = tried
	if tried == 0 {
		return best, ErrEmptyFamily
	}
	return best, nil
}

// SearchConditional runs the textbook method of conditional expectations:
// fix the seed one field element at a time (one "chunk" of Θ(log p) bits,
// matching the paper's Θ(log S)-bit chunks); for each candidate value of the
// next element compute the *exact* conditional expectation of the objective
// by enumerating all completions, and keep the value with the maximum
// conditional expectation. The returned seed q satisfies
// q(seed) >= E_h[q(h)] by construction.
//
// Cost is Θ(p^k) objective evaluations, so this is only for small families;
// it exists to validate SearchAtLeastBatch against the real method (tests) and
// for the exact-derandomization experiment.
func SearchConditional(fam hashfam.Family, obj Objective) ([]uint64, float64, error) {
	k := fam.SeedLen()
	p := fam.P()
	if _, ok := fam.NumSeeds(); !ok {
		return nil, 0, errors.New("condexp: family too large for exact conditional expectations")
	}
	prefix := make([]uint64, 0, k)
	var condExp float64
	for pos := 0; pos < k; pos++ {
		bestVal := uint64(0)
		bestExp := 0.0
		first := true
		for v := uint64(0); v < p; v++ {
			exp := suffixAverage(fam, obj, append(prefix, v))
			if first || exp > bestExp {
				bestVal, bestExp, first = v, exp, false
			}
		}
		prefix = append(prefix, bestVal)
		condExp = bestExp
	}
	return prefix, condExp, nil
}

// suffixAverage returns the average objective over all completions of the
// given seed prefix.
func suffixAverage(fam hashfam.Family, obj Objective, prefix []uint64) float64 {
	k := fam.SeedLen()
	p := fam.P()
	free := k - len(prefix)
	seed := make([]uint64, k)
	copy(seed, prefix)
	if free == 0 {
		return float64(obj(seed))
	}
	var total float64
	var count float64
	var rec func(pos int)
	rec = func(pos int) {
		if pos == k {
			total += float64(obj(seed))
			count++
			return
		}
		for v := uint64(0); v < p; v++ {
			seed[pos] = v
			rec(pos + 1)
		}
	}
	rec(len(prefix))
	return total / count
}

// FamilyMean returns the exact mean of the objective over the whole family
// (test helper for validating expectation bounds; Θ(p^k) evaluations).
func FamilyMean(fam hashfam.Family, obj Objective) (float64, error) {
	if _, ok := fam.NumSeeds(); !ok {
		return 0, errors.New("condexp: family too large to average")
	}
	return suffixAverage(fam, obj, nil), nil
}
