package main

import (
	"errors"
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Fatalf("median = %v, want 5.5", m)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 := quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q3 != 12 {
		t.Fatalf("quartiles = %v, %v; want 1.5, 12", q1, q3)
	}
}

func TestTailPercentileSelection(t *testing.T) {
	for _, tc := range []struct {
		n       int
		want    float64 // value: samples are 1..n
		pct     float64
		ok      bool
		samples int
	}{
		{n: 100, want: 90, pct: 90, ok: true},
		{n: 1000, want: 990, pct: 99, ok: true},
		{n: 20, want: 10, pct: 50, ok: true},
		{n: 30, want: 20, pct: 200.0 / 3, ok: true},
		{n: 19, want: 19, ok: false}, // the percentile would sit under the median
		{n: 10, want: 10, ok: false},
		{n: 0, want: 0, ok: false},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[len(xs)-1-i] = float64(i + 1) // descending: tailOf must sort
		}
		got := tailOf(xs)
		if got.Value != tc.want || got.OK != tc.ok || got.Samples != tc.n || math.Abs(got.Percentile-tc.pct) > 1e-9 {
			t.Errorf("n=%d: tail = %+v, want value %v at p%v ok=%v", tc.n, got, tc.want, tc.pct, tc.ok)
		}
		if tc.ok {
			beyond := 0
			for _, x := range xs {
				if x > got.Value {
					beyond++
				}
			}
			if beyond != tailBeyond {
				t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tailBeyond)
			}
		}
	}
}

func TestErrorRateCounting(t *testing.T) {
	rep := newReport()
	rep.attempted = 8
	rep.fail(errors.New("shed (429)"))
	rep.fail(errors.New("degraded answer"))
	rep.fail(wrongf("cardinality %d, maximum %d", 9, 10))
	if rep.failed != 3 {
		t.Fatalf("failed = %d, want 3", rep.failed)
	}
	if len(rep.wrong) != 1 || len(rep.errs) != 2 {
		t.Fatalf("wrong %v, errs %v: want one wrong answer and two failed operations", rep.wrong, rep.errs)
	}
	if got := errorRate(rep.attempted, rep.failed); got != 3.0/8 {
		t.Fatalf("error rate = %v, want 0.375", got)
	}
	if got := errorRate(0, 0); got != 1 {
		t.Fatalf("error rate with nothing attempted = %v, want 1", got)
	}
	for i := 0; i < 3*maxListed; i++ {
		rep.fail(errors.New("refused"))
	}
	if len(rep.errs) != maxListed || rep.failed != 3+3*maxListed {
		t.Fatalf("errs listed %d (want %d), failed %d", len(rep.errs), maxListed, rep.failed)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(v int) int64 { return int64(v) * 1e6 }
	spans := []span{
		{Name: "solve", Layer: rootLayer, Start: 0, End: 100, Parent: noSpan},
		{Name: "init", Layer: "matchinit", Start: 0, End: 20, Parent: 0},
		{Name: "engine", Layer: "core", Start: 20, End: 90, Parent: 0},
		{Name: "verify", Layer: "matching", Start: 100, End: 140, Parent: noSpan}, // untimed root
	}
	for i := range spans {
		spans[i].Start *= 1e6
		spans[i].End *= 1e6
	}
	self, total := selfTimes(spans, rootLayer)
	if int64(total) != ms(100) {
		t.Fatalf("total = %v, want 100ms", total)
	}
	want := map[string]int64{rootLayer: ms(10), "matchinit": ms(20), "core": ms(70)}
	var sum int64
	for l, d := range self {
		sum += int64(d)
		if int64(d) != want[l] {
			t.Errorf("self[%s] = %v, want %v", l, d, want[l])
		}
	}
	if sum != int64(total) {
		t.Fatalf("self times add up to %d, want %d", sum, total)
	}
}
