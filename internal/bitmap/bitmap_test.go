package bitmap

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestBasic(t *testing.T) {
	b := New(130) // spans three words
	if b.Len() != 130 {
		t.Fatalf("len = %d", b.Len())
	}
	for _, i := range []int32{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Test(i) {
			t.Fatalf("bit %d set initially", i)
		}
		if !b.TestAndSet(i) {
			t.Fatalf("first TestAndSet(%d) lost", i)
		}
		if !b.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
		if b.TestAndSet(i) {
			t.Fatalf("second TestAndSet(%d) won", i)
		}
	}
	if b.Count() != 8 {
		t.Fatalf("count = %d, want 8", b.Count())
	}
	b.Clear(64)
	if b.Test(64) || b.Count() != 7 {
		t.Fatalf("clear failed: count=%d", b.Count())
	}
	b.Clear(64) // double clear is a no-op
	b.Set(64)
	b.Set(64) // double set is a no-op
	if !b.Test(64) {
		t.Fatal("set failed")
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatalf("count after reset = %d", b.Count())
	}
}

// TestExactlyOneWinner: under contention, every bit is claimed exactly once.
func TestExactlyOneWinner(t *testing.T) {
	const n = 1 << 14
	const p = 8
	b := New(n)
	wins := make([]int32, n)
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func() {
			defer wg.Done()
			for i := int32(0); i < n; i++ {
				if b.TestAndSet(i) {
					atomic.AddInt32(&wins[i], 1)
				}
			}
		}()
	}
	wg.Wait()
	for i, c := range wins {
		if c != 1 {
			t.Fatalf("bit %d won %d times", i, c)
		}
	}
	if b.Count() != n {
		t.Fatalf("count = %d", b.Count())
	}
}

// TestCountMatchesModel compares against a map-based model.
func TestCountMatchesModel(t *testing.T) {
	f := func(idxs []uint16) bool {
		b := New(1 << 16)
		model := map[int32]bool{}
		for _, raw := range idxs {
			i := int32(raw)
			won := b.TestAndSet(i)
			if won == model[i] {
				return false // must win iff not already in model
			}
			model[i] = true
		}
		return b.Count() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendClear drains every word into one slice: the set bits come out
// in increasing order and the bitmap is left empty.
func TestAppendClear(t *testing.T) {
	b := New(200) // spans four words, the last partial
	want := []int32{0, 5, 63, 64, 100, 127, 128, 191, 192, 199}
	for _, i := range want {
		b.Set(i)
	}
	if b.Words() != 4 {
		t.Fatalf("words = %d, want 4", b.Words())
	}
	var got []int32
	for k := 0; k < b.Words(); k++ {
		got = b.AppendClear(got, k)
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if b.Count() != 0 {
		t.Fatalf("count after drain = %d", b.Count())
	}
}
