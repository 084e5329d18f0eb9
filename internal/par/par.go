// Package par provides the shared-memory parallel primitives used by every
// parallel matching algorithm in this repository: a statically and a
// dynamically scheduled parallel-for, run on fresh goroutines or on a
// resident Pool, and padded per-worker counters that avoid false sharing
// (the pure-Go stand-in for the paper's NUMA-aware, thread-pinned OpenMP
// runtime).
package par

import "runtime"

// DefaultWorkers returns the worker count used when an Options.Threads is
// zero: GOMAXPROCS at call time.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// clampWorkers normalizes a requested worker count.
func clampWorkers(p int) int {
	if p <= 0 {
		return DefaultWorkers()
	}
	return p
}

// For runs body over [0, n) split into contiguous blocks across p workers.
// body receives the worker id and a half-open range inside the block that
// worker owns. Blocks are statically scheduled (contiguous, near-equal),
// matching the level-synchronous structure of the algorithms where
// per-element work is small and uniform enough that dynamic scheduling
// overhead is not repaid.
//
// A worker panic is contained: the remaining workers are drained (workers
// that have not started yet are skipped) and the first panic is re-raised in
// the caller's goroutine as a *PanicError, never crashing the process from
// an unrecoverable goroutine. Use ForCtx to receive it as an error instead.
func For(p int, n int, body func(worker, lo, hi int)) {
	if err := ForCtx(nil, p, n, body); err != nil {
		panic(err) // a region without a context fails only by a *PanicError
	}
}

// ForDynamic runs body over [0, n) with dynamic chunk self-scheduling:
// workers repeatedly claim the next `grain`-sized block from a shared atomic
// cursor. Use when per-element cost is skewed (e.g. scanning vertices with
// power-law degrees). Worker panics are contained and re-raised in the
// caller as with For; sibling workers stop claiming chunks after a panic.
func ForDynamic(p int, n int, grain int, body func(worker, lo, hi int)) {
	if err := ForDynamicCtx(nil, p, n, grain, body); err != nil {
		panic(err)
	}
}

// cacheLine is the assumed cache line size for padding.
const cacheLine = 64

// Counter is a set of per-worker int64 cells padded to separate cache lines.
// Hot loops increment their own cell without synchronization; Sum is called
// after the parallel section (synchronized by the fork/join of the region).
type Counter struct {
	cells []paddedInt64
}

type paddedInt64 struct {
	v int64
	_ [cacheLine - 8]byte
}

// NewCounter returns a Counter with p cells.
func NewCounter(p int) *Counter {
	return &Counter{cells: make([]paddedInt64, clampWorkers(p))}
}

// Add adds delta to worker w's cell. Not atomic: each worker must only
// touch its own cell inside a parallel region.
func (c *Counter) Add(w int, delta int64) { c.cells[w].v += delta }

// Sum returns the total across workers. Call only outside parallel regions.
func (c *Counter) Sum() int64 {
	var s int64
	for i := range c.cells {
		s += c.cells[i].v
	}
	return s
}

// Reset zeroes all cells.
func (c *Counter) Reset() {
	for i := range c.cells {
		c.cells[i].v = 0
	}
}
