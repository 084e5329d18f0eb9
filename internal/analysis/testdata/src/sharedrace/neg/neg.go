// Package neg holds shared-race negatives: consistently locked, joined, or
// single-threaded access patterns the check must stay quiet on.
package neg

import (
	"sync"
	"sync/atomic"
)

// Both sides hold the same mutex — including through the alias in getVia.
type store struct {
	mu    sync.Mutex
	cache map[string]int
}

func newStore() *store { return &store{cache: map[string]int{}} }

func (s *store) put(k string, v int) {
	s.mu.Lock()
	s.cache[k] = v
	s.mu.Unlock()
}

func (s *store) get(k string) int {
	m := &s.mu
	m.Lock()
	defer m.Unlock()
	return s.cache[k]
}

func Locked() int {
	s := newStore()
	go func() { s.put("a", 1) }()
	return s.get("a")
}

// Spawn-then-Wait: the read is ordered after the join.
func Joined() int {
	n := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		n = 41
		wg.Done()
	}()
	wg.Wait()
	return n + 1
}

// Construction before the spawn is single-threaded; the goroutine only
// reads afterwards.
type box struct {
	mu  sync.Mutex
	val int
}

func Constructed() {
	b := &box{}
	b.val = 40
	b.val++
	go func() {
		b.mu.Lock()
		b.val++
		b.mu.Unlock()
	}()
}

// Atomic counters are go test -race's domain, not a lockset race.
type meter struct {
	n int64
}

func Atomic() int64 {
	m := &meter{}
	go func() { atomic.AddInt64(&m.n, 1) }()
	return atomic.LoadInt64(&m.n)
}

// A synchronously joined pool region: the caller's read cannot overlap the
// worker bodies.
type WorkerPool struct{ width int }

func (p *WorkerPool) Run(f func(i int)) {
	for i := 0; i < p.width; i++ {
		f(i)
	}
}

func Pooled() int {
	sum := 0
	var mu sync.Mutex
	p := &WorkerPool{width: 4}
	p.Run(func(i int) {
		mu.Lock()
		sum += i
		mu.Unlock()
	})
	return sum
}
