package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	s1 := r.Split()
	s2 := r.Split()
	if s1.Uint64() == s2.Uint64() && s1.Uint64() == s2.Uint64() {
		t.Fatal("split streams appear identical")
	}
	// Splits are reproducible.
	r2 := New(7)
	t1 := r2.Split()
	if New(7).Split().Uint64() != t1.Uint64() {
		t.Fatal("split not reproducible from the same parent seed")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(4)
	seen := make([]bool, 7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Errorf("Intn(7) never produced %d in 10000 draws", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntBetween(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.IntBetween(3, 5)
		if v < 3 || v > 5 {
			t.Fatalf("IntBetween(3,5) out of range: %d", v)
		}
	}
	if got := r.IntBetween(9, 9); got != 9 {
		t.Fatalf("IntBetween(9,9) = %d", got)
	}
}

func TestIntBetweenPanicsWhenInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntBetween(5,3) did not panic")
		}
	}()
	New(1).IntBetween(5, 3)
}

func TestUniform(t *testing.T) {
	r := New(6)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(-2, 3)
		if v < -2 || v >= 3 {
			t.Fatalf("Uniform(-2,3) out of range: %v", v)
		}
	}
}

func TestGaussianMoments(t *testing.T) {
	r := New(8)
	n := 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Gaussian(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("gaussian mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Errorf("gaussian stddev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestClippedGaussianBounds(t *testing.T) {
	r := New(9)
	clippedLo, clippedHi := false, false
	for i := 0; i < 100000; i++ {
		v := r.ClippedGaussian(1, 1.0/3, 0, 2)
		if v < 0 || v > 2 {
			t.Fatalf("ClippedGaussian out of [0,2]: %v", v)
		}
		if v == 0 {
			clippedLo = true
		}
		if v == 2 {
			clippedHi = true
		}
	}
	// With sd = 1/3 around 1, 3-sigma clipping happens but rarely; make
	// sure the clamp path is actually exercised with a wide sd.
	for i := 0; i < 1000; i++ {
		v := r.ClippedGaussian(1, 5, 0, 2)
		if v == 0 {
			clippedLo = true
		}
		if v == 2 {
			clippedHi = true
		}
	}
	if !clippedLo || !clippedHi {
		t.Error("clamp paths never exercised")
	}
}

func TestPositiveClippedGaussian(t *testing.T) {
	r := New(10)
	for i := 0; i < 100000; i++ {
		if v := r.PositiveClippedGaussian(1, 5, 0); v < 0 {
			t.Fatalf("PositiveClippedGaussian below 0: %v", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(13)
	xs := []int{1, 2, 3, 4, 5, 6, 7}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatalf("shuffle changed the multiset: %v", xs)
	}
}

func TestUniformQuickProperty(t *testing.T) {
	r := New(14)
	err := quick.Check(func(a, b float64) bool {
		lo, hi := a, b
		if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return true
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo == hi || math.IsInf(hi-lo, 0) {
			// Spans beyond float range overflow; out of scope for Uniform.
			return true
		}
		v := r.Uniform(lo, hi)
		return v >= lo && v <= hi
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}
