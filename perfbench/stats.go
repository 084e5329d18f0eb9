package main

import (
	"fmt"
	"sort"
)

// tailBeyond is how many samples must lie above a reported tail percentile.
const tailBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so that
// spreads computed here match the ones computed on the same values there.
// One sample yields that sample for both.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(j int) float64 {
		m := n + 1
		idx := j * m / 4
		delta := float64(j*m%4) / 4
		switch {
		case idx < 1:
			return s[0]
		case idx >= n:
			return s[n-1]
		}
		return s[idx-1] + (s[idx]-s[idx-1])*delta
	}
	return at(1), at(3)
}

// tail is a latency's upper percentile: the highest one with at least
// tailBeyond samples beyond it. With n samples that is the (n-10)th smallest
// value, at percentile 100*(n-10)/n; the percentile and the sample count are
// reported beside the value. Below 2*tailBeyond samples that percentile
// would lie under the median, which says nothing about a tail: OK is false
// and Value is the largest sample.
type tail struct {
	Value      float64
	Percentile float64
	Samples    int
	OK         bool
}

func tailOf(xs []float64) tail {
	n := len(xs)
	s := sorted(xs)
	if n < 2*tailBeyond {
		t := tail{Samples: n}
		if n > 0 {
			t.Value = s[n-1]
		}
		return t
	}
	k := n - tailBeyond // samples at or below the tail value
	return tail{
		Value:      s[k-1],
		Percentile: 100 * float64(k) / float64(n),
		Samples:    n,
		OK:         true,
	}
}

func (t tail) String() string {
	if !t.OK {
		return fmt.Sprintf("max of %d samples, too few for a tail percentile with %d beyond", t.Samples, tailBeyond)
	}
	return fmt.Sprintf("p%.1f of %d samples", t.Percentile, t.Samples)
}

// errorRate is failed ÷ attempted, the share of operations that did not
// produce a correct, complete answer. No attempts is a rate of 1: a run that
// did nothing has not shown that anything works.
func errorRate(attempted, failed int64) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}
