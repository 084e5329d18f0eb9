package main

import "testing"

func TestJudge(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		change []float64
		better string
		bound  float64
		want   string
	}{
		{"same runs", parent, "lower", 0.1, unchanged},
		{"faster in every pair", shift(parent, 0.8), "lower", 0.1, improved},
		{"slower past the bound", shift(parent, 1.2), "lower", 0.1, worse},
		{"slower within the bound", shift(parent, 1.05), "lower", 0.1, unchanged},
		{"higher is better", shift(parent, 1.2), "higher", 0.1, improved},
		{"higher is better, dropped", shift(parent, 0.8), "higher", 0.1, worse},
		// Wins 8 of 10 pairs: short of nine tenths, so no gain.
		{"too few wins", []float64{80, 80, 80, 80, 80, 80, 80, 80, 200, 200}, "lower", 0.1, unchanged},
	} {
		if got := judge(parent, tc.change, tc.better, tc.bound).Verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}

	// A parent whose own spread is wider than the bound cannot show a
	// regression or its absence...
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	if got := judge(noisy, shift(noisy, 1.02), "lower", 0.1).Verdict; got != unresolved {
		t.Errorf("noisy parent: verdict %s, want %s", got, unresolved)
	}
	// ...unless every change run reads better than every parent run.
	clear := []float64{50, 51, 52, 53, 54, 55, 56, 57, 58, 59}
	if got := judge(noisy, clear, "lower", 0.1).Verdict; got != improved {
		t.Errorf("noisy parent, change better everywhere: verdict %s, want %s", got, improved)
	}

	j := judge(parent, shift(parent, 0.8), "lower", 0.1)
	if j.Wins != 10 || j.Pairs != 10 {
		t.Errorf("wins %d of %d, want 10 of 10", j.Wins, j.Pairs)
	}
	// Ties count for neither side.
	if j := judge(parent, parent, "lower", 0.1); j.Wins != 0 {
		t.Errorf("ties counted as %d wins", j.Wins)
	}
	if j := judge(nil, parent, "lower", 0.1); j.Verdict != unresolved || j.Pairs != 0 {
		t.Errorf("no parent runs: %+v", j)
	}
}
