package par

import (
	"context"
	"sync"
	"sync/atomic"
)

// Scheduler abstracts where the workers of a parallel region come from. The
// package-level ForCtx/ForDynamicCtx spawn fresh goroutines per call — the
// right default for a single run that owns the machine. A Pool implements the
// same contract over a fixed set of resident workers shared by many
// concurrent runs, which is what a server needs: total parallelism stays
// bounded at the pool size no matter how many requests are in flight, instead
// of every request fanning out GOMAXPROCS goroutines of its own.
//
// Both methods keep the ForCtx/ForDynamicCtx contract exactly: body is
// invoked with a region-local worker id in [0, p), every invocation of a
// given id is sequential, bodies are never interrupted mid-block, and the
// return value is nil on completion, the context's error on cancellation, or
// a *PanicError for a contained worker panic.
type Scheduler interface {
	ForCtx(ctx context.Context, p, n int, body func(worker, lo, hi int)) error
	ForDynamicCtx(ctx context.Context, p, n, grain int, body func(worker, lo, hi int)) error
}

// spawnScheduler is the default Scheduler: per-call goroutine fan-out via the
// package-level primitives.
type spawnScheduler struct{}

func (spawnScheduler) ForCtx(ctx context.Context, p, n int, body func(worker, lo, hi int)) error {
	return ForCtx(ctx, p, n, body)
}

func (spawnScheduler) ForDynamicCtx(ctx context.Context, p, n, grain int, body func(worker, lo, hi int)) error {
	return ForDynamicCtx(ctx, p, n, grain, body)
}

// SchedulerOrSpawn returns s, or the default goroutine-spawning scheduler
// when s is nil — the seam every engine routes its parallel regions through.
func SchedulerOrSpawn(s Scheduler) Scheduler {
	if s == nil {
		return spawnScheduler{}
	}
	return s
}

// Pool is a Scheduler backed by a fixed set of resident worker goroutines.
// Regions submitted by concurrent callers interleave on the same workers, so
// a process serving many simultaneous runs keeps its total compute
// parallelism at the pool size instead of multiplying it per request.
//
// Deadlock freedom: a region never *requires* a pool worker. The caller
// enqueues every slice of a region; a slice that cannot be enqueued (pool
// saturated or closed) runs inline on the caller; and once every slice is
// launched the caller steals back each one the pool has not started yet
// (each slice carries a claim flag, so pool and caller race for it with a
// CAS and exactly one side runs it). A region therefore only ever waits on
// slices that are actively executing on a resident worker. Under overload
// execution degrades toward serial on the submitting goroutine — graceful
// degradation rather than queue collapse — and a closed or wedged pool still
// completes every region handed to it. This only works because region
// slices are independent (the ForCtx/ForDynamicCtx contract): a slice never
// blocks waiting for a sibling slice.
type Pool struct {
	workers int
	tasks   chan *poolTask
	stop    chan struct{} // closed by Close after the closed flag is set
	wg      sync.WaitGroup

	mu     sync.RWMutex // guards closed against concurrent submit/Close
	closed bool
}

// NewPool starts a pool of `workers` resident workers (0 means
// DefaultWorkers). Close it when done.
func NewPool(workers int) *Pool {
	workers = clampWorkers(workers)
	p := &Pool{
		workers: workers,
		// The buffer absorbs a burst of region slices without blocking
		// submitters; beyond it, slices run inline on their caller.
		tasks: make(chan *poolTask, 4*workers),
		stop:  make(chan struct{}),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case t := <-p.tasks:
			t.exec()
		case <-p.stop:
			// Drain tasks enqueued before Close flipped the flag; no new
			// sends can arrive (submit checks closed under the lock).
			for {
				select {
				case t := <-p.tasks:
					t.exec()
				default:
					return
				}
			}
		}
	}
}

// Workers returns the pool's resident worker count.
func (p *Pool) Workers() int { return p.workers }

// Close stops the resident workers after the tasks already submitted have
// run. Regions submitted after Close still complete, executed inline on
// their callers. Close is idempotent and safe to call concurrently with
// submissions.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.stop)
	p.mu.Unlock()
	p.wg.Wait()
}

// poolTask is one region slice handed to the pool. The claim flag arbitrates
// the race between a resident worker picking it off the queue and the
// submitting caller stealing it back: exactly one side wins the CAS and runs
// it, the other skips.
type poolTask struct {
	claimed   atomic.Bool
	r         *region
	w, lo, hi int
}

// exec runs the task if this call wins the claim.
func (t *poolTask) exec() {
	if t.claimed.CompareAndSwap(false, true) {
		t.r.run(t.w, t.lo, t.hi)
	}
}

// submit hands t to a resident worker, or reports false when the caller must
// run it inline (pool saturated or closed). Never blocks.
func (p *Pool) submit(t *poolTask) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	select {
	case p.tasks <- t:
		return true
	default:
		return false
	}
}

// ForCtx implements Scheduler over the resident workers with the static
// contiguous-block split of the package-level ForCtx.
func (p *Pool) ForCtx(ctx context.Context, pp, n int, body func(worker, lo, hi int)) error {
	return forStatic(p, ctx, pp, n, body)
}

// ForDynamicCtx implements Scheduler over the resident workers with the
// dynamic chunk claim of the package-level ForDynamicCtx.
func (p *Pool) ForDynamicCtx(ctx context.Context, pp, n, grain int, body func(worker, lo, hi int)) error {
	return forDynamic(p, ctx, pp, n, grain, body)
}
