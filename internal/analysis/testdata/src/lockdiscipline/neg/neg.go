// Package neg holds lock-discipline negative cases: disciplined lock usage
// the check must stay quiet about.
package neg

import "sync"

type guarded struct {
	mu sync.RWMutex
	n  int
}

// DeferUnlock: the canonical pattern.
func DeferUnlock(g *guarded) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

// StraightLine: explicit unlock on the single path.
func StraightLine(g *guarded) {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
}

// ReadLock: RLock/RUnlock balanced, including an early return under defer.
func ReadLock(g *guarded, bail bool) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if bail {
		return 0
	}
	return g.n
}

// BlockAfterUnlock: the send happens after the lock is released.
func BlockAfterUnlock(g *guarded, ch chan int) {
	g.mu.Lock()
	v := g.n
	g.mu.Unlock()
	ch <- v
}

// NonBlockingSelect: a select with a default never blocks, so holding the
// lock across it is fine.
func NonBlockingSelect(g *guarded, ch chan int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case ch <- g.n:
	default:
	}
}

// BalancedBranches: both arms lock and unlock; the merge point agrees.
func BalancedBranches(g *guarded, fast bool) {
	if fast {
		g.mu.Lock()
		g.n++
		g.mu.Unlock()
	} else {
		g.mu.Lock()
		g.n += 2
		g.mu.Unlock()
	}
	g.n--
}

// LiteralIndependence: the spawned literal blocks on the channel, but it
// runs on its own schedule — the outer function's lock state does not apply
// to it, and it holds no lock of its own.
func LiteralIndependence(g *guarded, ch chan int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	go func() {
		<-ch
	}()
	g.n++
}

// UnlockAroundRangeBody: each iteration drops the lock around the channel
// send and retakes it. The range binds a value, and the send is only ever
// reached with the lock released.
func UnlockAroundRangeBody(g *guarded, ch chan int, xs []int) {
	g.mu.Lock()
	for _, x := range xs {
		g.mu.Unlock()
		ch <- x
		g.mu.Lock()
	}
	g.mu.Unlock()
}
