// Package bitmap provides a concurrent bit vector with atomic test-and-set,
// the Go analog of the paper's __sync_fetch_and_or visited flags (§IV-A).
// One bit per vertex costs 32x less memory traffic than an int32 flag array,
// at the price of word-level contention between vertices sharing a cache
// line of bits; the engine exposes both so the trade-off is benchmarkable
// (see BenchmarkAblationVisited).
package bitmap

import (
	"math/bits"
	"sync/atomic"
)

const wordBits = 64

// Bitmap is a fixed-size concurrent bit vector. The zero value is unusable;
// call New.
type Bitmap struct {
	words []uint64
	n     int
}

// New returns a Bitmap holding n bits, all clear.
func New(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the number of bits.
func (b *Bitmap) Len() int { return b.n }

// Test reports whether bit i is set, with an atomic load (safe against
// concurrent TestAndSet).
func (b *Bitmap) Test(i int32) bool {
	w := atomic.LoadUint64(&b.words[i/wordBits])
	return w&(1<<(uint(i)%wordBits)) != 0
}

// TestAndSet sets bit i and reports whether this call changed it from 0 to
// 1 — i.e. whether the caller won the claim. Implemented as a fetch-and-or
// loop (the paper's __sync_fetch_and_or).
func (b *Bitmap) TestAndSet(i int32) bool {
	word := &b.words[i/wordBits]
	mask := uint64(1) << (uint(i) % wordBits)
	for {
		old := atomic.LoadUint64(word)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(word, old, old|mask) {
			return true
		}
	}
}

// Set sets bit i without claiming semantics (single-writer contexts).
func (b *Bitmap) Set(i int32) {
	word := &b.words[i/wordBits]
	mask := uint64(1) << (uint(i) % wordBits)
	for {
		old := atomic.LoadUint64(word)
		if old&mask != 0 || atomic.CompareAndSwapUint64(word, old, old|mask) {
			return
		}
	}
}

// Clear clears bit i atomically.
func (b *Bitmap) Clear(i int32) {
	word := &b.words[i/wordBits]
	mask := uint64(1) << (uint(i) % wordBits)
	for {
		old := atomic.LoadUint64(word)
		if old&mask == 0 || atomic.CompareAndSwapUint64(word, old, old&^mask) {
			return
		}
	}
}

// Words returns the number of 64-bit words backing the bitmap; bit i lives
// in word i/64.
func (b *Bitmap) Words() int { return len(b.words) }

// AppendClear appends the set bits of word k to dst in increasing order,
// clears the word, and returns dst. Not safe against concurrent mutation
// of word k.
func (b *Bitmap) AppendClear(dst []int32, k int) []int32 {
	w := b.words[k]
	b.words[k] = 0
	for w != 0 {
		dst = append(dst, int32(k*wordBits+bits.TrailingZeros64(w)))
		w &= w - 1
	}
	return dst
}

// Reset clears every bit. Not safe against concurrent mutation.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Count returns the number of set bits. Not safe against concurrent
// mutation.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}
