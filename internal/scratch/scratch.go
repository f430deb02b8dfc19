// Package scratch is the reusable per-solve memory substrate of the solver
// engine. The paper's algorithms are iterative — O(log Δ + log log n) rounds
// of sparsify → derandomize → peel — and the per-round working set shrinks
// geometrically (cf. Ghaffari–Uitto, arXiv:1807.06251), so buffers sized on
// the first round dominate every later round. A Context therefore checks out
// typed, size-tagged slabs from free lists instead of calling make once per
// round, and hands the CSR graph rebuilds a pair of destination buffers to
// ping-pong between (internal/graph's Into variants).
//
// Contract:
//
//   - A Context belongs to exactly one solve at a time. Its methods are NOT
//     safe for concurrent use; the coordinating goroutine checks slabs out
//     and passes the resulting slices to internal/parallel shard bodies,
//     which write disjoint index ranges as usual. This composes with the
//     determinism contract because slab checkout happens before the fan-out
//     and every checked-out slab is zeroed, so reuse changes memory
//     lifetimes only, never any computed value.
//   - Reset returns every checked-out slab to the free lists. Callers
//     invoke it at round boundaries; slices obtained before a Reset must
//     not be read afterwards. Graph buffers (Loop, Stage) are not affected
//     by Reset — their lifetime is the ping-pong discipline itself.
//   - Contexts are cheap when cold and allocation-flat when warm, which is
//     what the public Engine pools them for (sync.Pool in the root
//     package).
package scratch

import (
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
)

// slab is a typed free list of reusable buffers. Checkout moves a buffer to
// the live list; release moves every live buffer back. Buffers are
// size-tagged by capacity and checkout is best-fit, so the n-sized slabs of
// round 1 serve the geometrically shrinking rounds that follow without
// fragmenting into one slab per distinct size.
type slab[T any] struct {
	free [][]T
	live [][]T
}

// take checks out a buffer with capacity at least n (best fit, or a fresh
// allocation) and records it as live. The returned slice has its full
// capacity as length; callers slice it down.
func (s *slab[T]) take(n int) []T {
	best := -1
	for i, b := range s.free {
		if cap(b) >= n && (best < 0 || cap(b) < cap(s.free[best])) {
			best = i
		}
	}
	var buf []T
	if best >= 0 {
		buf = s.free[best][:cap(s.free[best])]
		last := len(s.free) - 1
		s.free[best] = s.free[last]
		s.free[last] = nil
		s.free = s.free[:last]
	} else {
		buf = make([]T, n)
	}
	s.live = append(s.live, buf)
	return buf
}

// get checks out a zeroed slice of length n.
func (s *slab[T]) get(n int) []T {
	buf := s.take(n)[:n]
	clear(buf)
	return buf
}

// getCap checks out a zero-length slice with capacity at least n, for
// append-style fills. Appending beyond the capacity hint falls back to the
// runtime allocator (the original slab is still recycled), so callers should
// pass a true upper bound.
func (s *slab[T]) getCap(n int) []T {
	return s.take(n)[:0]
}

// release returns all live buffers to the free list.
func (s *slab[T]) release() {
	s.free = append(s.free, s.live...)
	for i := range s.live {
		s.live[i] = nil
	}
	s.live = s.live[:0]
}

// Context is the per-solve scratch state: one typed arena per element kind
// plus two CSR double-buffers (outer loop and sparsify stage chain). The
// zero value is ready to use; New exists for symmetry with the rest of the
// repository.
type Context struct {
	ints    slab[int]
	int32s  slab[int32]
	int64s  slab[int64]
	uint64s slab[uint64]
	floats  slab[float64]
	bools   slab[bool]
	edges   slab[graph.Edge]

	loop  BufPair
	stage BufPair

	edgeMin core.EdgeMinScratch
	nodeSel core.NodeSel
}

// New returns an empty Context.
func New() *Context { return &Context{} }

// Ints checks out a zeroed []int of length n, valid until the next Reset.
func (c *Context) Ints(n int) []int { return c.ints.get(n) }

// IntsCap checks out a zero-length []int with capacity at least n.
func (c *Context) IntsCap(n int) []int { return c.ints.getCap(n) }

// Int64s checks out a zeroed []int64 of length n.
func (c *Context) Int64s(n int) []int64 { return c.int64s.get(n) }

// Uint64s checks out a zeroed []uint64 of length n.
func (c *Context) Uint64s(n int) []uint64 { return c.uint64s.get(n) }

// Uint64sCap checks out a zero-length []uint64 with capacity at least n.
func (c *Context) Uint64sCap(n int) []uint64 { return c.uint64s.getCap(n) }

// Float64s checks out a zeroed []float64 of length n.
func (c *Context) Float64s(n int) []float64 { return c.floats.get(n) }

// Float64sCap checks out a zero-length []float64 with capacity at least n.
func (c *Context) Float64sCap(n int) []float64 { return c.floats.getCap(n) }

// Bools checks out a zeroed []bool of length n.
func (c *Context) Bools(n int) []bool { return c.bools.get(n) }

// NodeIDsCap checks out a zero-length []graph.NodeID with capacity >= n
// (NodeID is an int32 alias, so these share the int32 arena).
func (c *Context) NodeIDsCap(n int) []graph.NodeID { return c.int32s.getCap(n) }

// EdgesCap checks out a zero-length []graph.Edge with capacity at least n.
func (c *Context) EdgesCap(n int) []graph.Edge { return c.edges.getCap(n) }

// Reset returns every checked-out slab to the free lists. Call at round
// boundaries; slices checked out before the Reset must not be used after.
// The Loop/Stage graph buffers are unaffected (their contents follow the
// ping-pong discipline, not the round scope).
func (c *Context) Reset() {
	c.ints.release()
	c.int32s.release()
	c.int64s.release()
	c.uint64s.release()
	c.floats.release()
	c.bools.release()
	c.edges.release()
}

// Loop returns the CSR double-buffer for the solve's outer-loop graph (the
// shrinking G of the Luby-style iterations).
func (c *Context) Loop() *BufPair { return &c.loop }

// Stage returns the CSR double-buffer for the sparsification stage chain
// (E_0 → E_1 → … → E*), kept separate from Loop because the stage result
// must stay readable while the outer-loop graph is rebuilt.
func (c *Context) Stage() *BufPair { return &c.stage }

// EdgeMin returns the Context's persistent edge-selection scratch. Like the
// CSR double-buffers it survives Reset, so warm Engine re-solves reuse its
// min tables allocation-free; every selection wipes the table over its
// round's id space first, so prior contents are unobservable and the
// results are identical for any history of the Context.
func (c *Context) EdgeMin() *core.EdgeMinScratch { return &c.edgeMin }

// NodeSel returns the Context's persistent node-selection plan, with the
// same Reset-surviving lifetime as EdgeMin. Round loops re-Init it every
// round (overwriting every live slot) and share it read-only across
// concurrent per-seed evaluations.
func (c *Context) NodeSel() *core.NodeSel { return &c.nodeSel }

// BufPair is a pair of graph.CSR destination buffers used in alternation:
// each Next call returns the buffer NOT written by the previous call, so a
// chain of graph rebuilds can read the previous graph while writing the next
// one, with zero steady-state allocation. At most the two most recent graphs
// built through a pair are valid at any time.
type BufPair struct {
	bufs [2]graph.CSR
	cur  int
}

// Next flips the pair and returns the write target for the next rebuild.
func (p *BufPair) Next() *graph.CSR {
	p.cur ^= 1
	return &p.bufs[p.cur]
}

// PerWorker hands out per-goroutine scratch values around a sync.Pool; it is
// the companion of Context for state needed INSIDE concurrent objective
// evaluations (the seed-group fan-out of condexp.BlockSearch), where a single
// arena would race. Values must be fully overwritten (or reset) by each use
// so that results never depend on which worker previously held a value —
// that is what keeps pooled evaluation inside the determinism contract.
type PerWorker[T any] struct {
	pool sync.Pool
}

// NewPerWorker returns a pool whose values are created by newFn. T should be
// a pointer type so Get/Put do not allocate.
func NewPerWorker[T any](newFn func() T) *PerWorker[T] {
	p := &PerWorker[T]{}
	p.pool.New = func() any { return newFn() }
	return p
}

// Get checks a value out.
func (p *PerWorker[T]) Get() T { return p.pool.Get().(T) }

// Put returns a value for reuse.
func (p *PerWorker[T]) Put(v T) { p.pool.Put(v) }
