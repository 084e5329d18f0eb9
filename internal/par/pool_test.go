package par

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolForCtxCoversRange checks the static split covers [0, n) exactly
// once with region-local worker ids, across pool sizes and region widths.
func TestPoolForCtxCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		pool := NewPool(workers)
		for _, p := range []int{1, 2, 3, 8} {
			for _, n := range []int{1, 7, 100, 4097} {
				hits := make([]atomic.Int32, n)
				err := pool.ForCtx(context.Background(), p, n, func(w, lo, hi int) {
					if w < 0 || w >= p {
						t.Errorf("worker id %d outside [0,%d)", w, p)
					}
					for i := lo; i < hi; i++ {
						hits[i].Add(1)
					}
				})
				if err != nil {
					t.Fatalf("pool(%d) ForCtx(p=%d,n=%d): %v", workers, p, n, err)
				}
				for i := range hits {
					if got := hits[i].Load(); got != 1 {
						t.Fatalf("pool(%d) p=%d n=%d: index %d visited %d times", workers, p, n, i, got)
					}
				}
			}
		}
		pool.Close()
	}
}

// TestPoolForDynamicCtxCoversRange is the dynamic-scheduling analog.
func TestPoolForDynamicCtxCoversRange(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	for _, p := range []int{1, 3, 8} {
		for _, grain := range []int{1, 16, 1000} {
			n := 2049
			hits := make([]atomic.Int32, n)
			err := pool.ForDynamicCtx(context.Background(), p, n, grain, func(w, lo, hi int) {
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			if err != nil {
				t.Fatalf("ForDynamicCtx(p=%d,grain=%d): %v", p, grain, err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("p=%d grain=%d: index %d visited %d times", p, grain, i, got)
				}
			}
		}
	}
}

// TestPoolSharedAcrossConcurrentRegions drives many regions through one pool
// at once — the serving workload — and checks each region's integrity.
func TestPoolSharedAcrossConcurrentRegions(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	const regions = 16
	var wg sync.WaitGroup
	errs := make([]error, regions)
	for r := 0; r < regions; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 500 + 37*r
			var sum atomic.Int64
			errs[r] = pool.ForCtx(context.Background(), 4, n, func(w, lo, hi int) {
				for i := lo; i < hi; i++ {
					sum.Add(int64(i))
				}
			})
			want := int64(n) * int64(n-1) / 2
			if got := sum.Load(); got != want {
				t.Errorf("region %d: sum %d, want %d", r, got, want)
			}
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("region %d: %v", r, err)
		}
	}
}

// TestPoolPanicContainment checks a panicking body surfaces as *PanicError
// on the submitting region only, and the pool survives to run later regions.
func TestPoolPanicContainment(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	err := pool.ForCtx(context.Background(), 4, 1000, func(w, lo, hi int) {
		if lo == 0 {
			panic("boom")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	// The pool must still work.
	if err := pool.ForCtx(context.Background(), 2, 100, func(w, lo, hi int) {}); err != nil {
		t.Fatalf("pool broken after contained panic: %v", err)
	}
}

// TestPoolCancellation checks an expired context stops the region and is
// reported, on both scheduling modes.
func TestPoolCancellation(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := pool.ForCtx(ctx, 4, 1<<20, func(w, lo, hi int) {})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForCtx on cancelled ctx: got %v", err)
	}
	err = pool.ForDynamicCtx(ctx, 4, 1<<20, 64, func(w, lo, hi int) {})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForDynamicCtx on cancelled ctx: got %v", err)
	}
}

// TestPoolClosedRunsInline checks regions submitted after Close still
// complete (inline on the caller), preserving the drain contract: work
// admitted during shutdown finishes instead of hanging.
func TestPoolClosedRunsInline(t *testing.T) {
	pool := NewPool(2)
	pool.Close()
	var sum atomic.Int64
	err := pool.ForCtx(context.Background(), 4, 1000, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			sum.Add(1)
		}
	})
	if err != nil || sum.Load() != 1000 {
		t.Fatalf("closed pool region: err=%v covered=%d", err, sum.Load())
	}
	pool.Close() // idempotent
}

// TestPoolSaturationDegradesNotDeadlocks wedges every resident worker on a
// slow region and checks another region still completes promptly: its
// caller steals back every slice the pool has not started.
func TestPoolSaturationDegradesNotDeadlocks(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()
	release := make(chan struct{})
	slowDone := make(chan error, 1)
	go func() {
		slowDone <- pool.ForCtx(context.Background(), 2, 2, func(w, lo, hi int) {
			if w == 0 {
				<-release
			}
		})
	}()
	// Give the slow region a moment to occupy the lone worker, then run a
	// fast region; it must finish without the pool's help.
	time.Sleep(10 * time.Millisecond)
	done := make(chan error, 1)
	go func() {
		done <- pool.ForCtx(context.Background(), 4, 100, func(w, lo, hi int) {})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("fast region: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fast region deadlocked behind saturated pool")
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow region: %v", err)
	}
}

// TestSchedulerOrSpawn pins the nil seam.
func TestSchedulerOrSpawn(t *testing.T) {
	s := SchedulerOrSpawn(nil)
	var n atomic.Int64
	if err := s.ForCtx(context.Background(), 2, 10, func(w, lo, hi int) {
		n.Add(int64(hi - lo))
	}); err != nil || n.Load() != 10 {
		t.Fatalf("spawn scheduler: err=%v n=%d", err, n.Load())
	}
	pool := NewPool(2)
	defer pool.Close()
	if got := SchedulerOrSpawn(pool); got != Scheduler(pool) {
		t.Fatal("non-nil scheduler not passed through")
	}
}
