package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Fatalf("Mean = %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("Mean(nil) = %v", m)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {-5, 1}, {105, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Interpolation: P10 of {0, 10} = 1.
	if got := Percentile([]float64{0, 10}, 10); math.Abs(got-1) > 1e-12 {
		t.Errorf("interpolated percentile = %v, want 1", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) != 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Percentile(xs, 50)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatal("Percentile sorted the caller's slice")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -2, 8}
	if s := Summarize(xs); s.Min != -2 || s.Max != 8 || Max(xs) != 8 {
		t.Fatal("Min/Max wrong")
	}
	if s := Summarize(nil); !math.IsInf(s.Min, 1) || !math.IsInf(s.Max, -1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty Min/Max sentinels wrong")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Fatalf("Summary = %+v", s)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Fatalf("quartiles = %v, %v", s.Q1, s.Q3)
	}
}

func TestQuickOrderInvariants(t *testing.T) {
	err := quick.Check(func(raw []float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			// Keep magnitudes where the mean cannot overflow.
			if !math.IsNaN(v) && math.Abs(v) < 1e12 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return s.Min == sorted[0] && s.Max == sorted[len(sorted)-1] &&
			s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max &&
			s.Mean >= s.Min && s.Mean <= s.Max
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}
