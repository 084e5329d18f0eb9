package par

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError wraps a panic recovered from a worker of a parallel region. The
// region's remaining workers are drained and the first panic is surfaced to
// the caller — as the error of a *Ctx variant, or re-panicked in the caller's
// goroutine by For/ForDynamic — instead of crashing the process from an
// unrecoverable goroutine or hanging the region's WaitGroup.
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // stack of the panicking worker, captured at recovery
}

func (e *PanicError) Error() string { return fmt.Sprintf("par: worker panic: %v", e.Value) }

// ctxGrain is the iteration granularity at which statically scheduled
// context-aware regions poll for cancellation: large enough that the
// per-block atomic load is invisible next to the block's work, small enough
// that cancellation latency stays in the microsecond range.
const ctxGrain = 4096

// gate coordinates early stop across the workers of one parallel region:
// a worker panic or an expired context flips stop, and workers cease
// claiming blocks at the next check.
type gate struct {
	ctx  context.Context // nil: the region cannot be cancelled
	stop atomic.Bool
	mu   sync.Mutex
	perr *PanicError
	cerr error
}

// stopped reports whether workers must stop claiming blocks, latching the
// context error on the first observation of an expired context.
func (g *gate) stopped() bool {
	if g.stop.Load() {
		return true
	}
	if g.ctx == nil {
		return false
	}
	select {
	case <-g.ctx.Done():
		g.mu.Lock()
		if g.cerr == nil {
			g.cerr = g.ctx.Err()
		}
		g.mu.Unlock()
		g.stop.Store(true)
		return true
	default:
		return false
	}
}

// guard recovers a worker panic into the gate; call via defer at worker entry.
func (g *gate) guard() {
	if v := recover(); v != nil {
		pe := &PanicError{Value: v, Stack: debug.Stack()}
		g.mu.Lock()
		if g.perr == nil {
			g.perr = pe
		}
		g.mu.Unlock()
		g.stop.Store(true)
	}
}

// err returns the region's outcome after the join: a worker panic takes
// precedence over cancellation, and nil means the region ran to completion.
func (g *gate) err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.perr != nil {
		return g.perr
	}
	return g.cerr
}

// ForCtx is For with cooperative cancellation and panic containment: workers
// poll ctx between blocks of at most ctxGrain iterations and stop claiming
// new blocks once it expires or a sibling panics. Blocks are never
// interrupted mid-body, so any invariant that holds at body boundaries holds
// when ForCtx returns. It returns nil on completion, the context's error on
// cancellation, or a *PanicError wrapping the first worker panic (which wins
// over cancellation); in every case all workers have exited.
func ForCtx(ctx context.Context, p int, n int, body func(worker, lo, hi int)) error {
	return forStatic(nil, ctx, p, n, body)
}

// ForDynamicCtx is ForDynamic with cooperative cancellation and panic
// containment, with the same contract as ForCtx: the gate is checked before
// every chunk claim, and an in-flight chunk always completes.
func ForDynamicCtx(ctx context.Context, p int, n int, grain int, body func(worker, lo, hi int)) error {
	return forDynamic(nil, ctx, p, n, grain, body)
}

// blocks executes body over [lo, hi) in sub-blocks of at most grain
// iterations, checking the gate between blocks and containing panics.
func (g *gate) blocks(w, lo, hi, grain int, body func(worker, lo, hi int)) {
	defer g.guard()
	for s := lo; s < hi; s += grain {
		if g.stopped() {
			return
		}
		body(w, s, min(s+grain, hi))
	}
}

// serial runs a one-worker region inline on the caller.
func serial(ctx context.Context, n, grain int, body func(worker, lo, hi int)) error {
	g := gate{ctx: ctx}
	g.blocks(0, 0, n, grain, body)
	return g.err()
}

// region is one fork/join parallel region of p > 1 slices. Every slice is
// launched — on a fresh goroutine when pool is nil, else submitted to the
// pool — and the caller only joins.
type region struct {
	gate
	pool      *Pool
	slice     func(w, lo, hi int) // runs one launched slice
	wg        sync.WaitGroup
	submitted []*poolTask // slices the pool accepted, for join to steal back
}

// launch starts slice (w, lo, hi), one of the p counted into r.wg. A slice
// the pool will not take (saturated or closed) runs inline on the caller.
func (r *region) launch(w, lo, hi int) {
	if r.pool == nil {
		go r.run(w, lo, hi)
		return
	}
	t := &poolTask{r: r, w: w, lo: lo, hi: hi}
	if r.pool.submit(t) {
		r.submitted = append(r.submitted, t)
		return
	}
	t.exec()
}

func (r *region) run(w, lo, hi int) {
	defer r.wg.Done()
	r.slice(w, lo, hi)
}

// join steals back every slice the pool has not started, waits for the ones
// a resident worker did start, and returns the region's outcome. A region
// therefore only ever waits on slices that are actively executing.
func (r *region) join() error {
	for _, t := range r.submitted {
		t.exec()
	}
	r.wg.Wait()
	return r.err()
}

// forStatic is the static contiguous split behind ForCtx and Pool.ForCtx:
// p near-equal blocks, each walked in ctxGrain sub-blocks.
func forStatic(pool *Pool, ctx context.Context, p, n int, body func(worker, lo, hi int)) error {
	if n <= 0 {
		return nil
	}
	p = min(clampWorkers(p), n)
	if p == 1 {
		return serial(ctx, n, ctxGrain, body)
	}
	r := &region{gate: gate{ctx: ctx}, pool: pool}
	r.wg.Add(p)
	r.slice = func(w, lo, hi int) { r.blocks(w, lo, hi, ctxGrain, body) }
	chunk, rem, lo := n/p, n%p, 0
	for w := 0; w < p; w++ {
		hi := lo + chunk
		if w < rem {
			hi++
		}
		r.launch(w, lo, hi)
		lo = hi
	}
	return r.join()
}

// forDynamic is the dynamic chunk claim behind ForDynamicCtx and
// Pool.ForDynamicCtx: p slices claim grain-sized chunks from a shared cursor.
func forDynamic(pool *Pool, ctx context.Context, p, n, grain int, body func(worker, lo, hi int)) error {
	if n <= 0 {
		return nil
	}
	grain = max(grain, 1)
	p = clampWorkers(p)
	if p == 1 {
		return serial(ctx, n, grain, body)
	}
	r := &region{gate: gate{ctx: ctx}, pool: pool}
	r.wg.Add(p)
	var cursor atomic.Int64
	r.slice = func(w, _, _ int) {
		defer r.guard()
		for !r.stopped() {
			lo := cursor.Add(int64(grain)) - int64(grain)
			if lo >= int64(n) {
				return
			}
			body(w, int(lo), int(min(lo+int64(grain), int64(n))))
		}
	}
	for w := 0; w < p; w++ {
		r.launch(w, 0, n)
	}
	return r.join()
}
