// Package rng provides a small, deterministic pseudo-random number
// generator and the weight distributions used throughout the SAGA/PISA
// reproduction.
//
// Experiments in the paper depend on randomized problem-instance
// generation (Section IV-B) and on randomized perturbation and acceptance
// inside the PISA annealer (Section VI). To make every figure
// reproducible bit-for-bit, all randomness in this repository flows
// through this package: a PCG-XSH-RR 64/32 generator with explicit
// seeding and cheap sub-stream derivation.
package rng

import "math"

// RNG is a deterministic pseudo-random number generator (PCG-XSH-RR
// 64/32). The zero value is not valid; use New.
type RNG struct {
	state uint64
	inc   uint64
}

const pcgMult = 6364136223846793005

// New returns a generator seeded with seed. Two generators built from the
// same seed produce identical streams.
func New(seed uint64) *RNG {
	r := &RNG{inc: (seed << 1) | 1}
	r.state = seed + r.inc
	r.next()
	return r
}

// Reseed resets r to the exact state New(seed) would produce, reusing
// the receiver — the allocation-free counterpart of New for hot loops
// that re-run a fixed-seed stream (WBA's construction rounds).
func (r *RNG) Reseed(seed uint64) {
	r.inc = (seed << 1) | 1
	r.state = seed + r.inc
	r.next()
}

// Split derives an independent sub-stream from r. It advances r by one
// draw, so derived streams are reproducible given the order of Split
// calls. Use it to give each experiment, dataset instance, or annealing
// restart its own generator.
func (r *RNG) Split() *RNG {
	child := &RNG{}
	r.SplitInto(child)
	return child
}

// SplitInto is Split writing into a caller-owned generator: child is
// reseeded with the same derivation Split uses, so the streams are
// identical, without allocating.
func (r *RNG) SplitInto(child *RNG) {
	child.Reseed(uint64(r.next())<<32 | uint64(r.next()))
}

func (r *RNG) next() uint32 {
	old := r.state
	r.state = old*pcgMult + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	return uint64(r.next())<<32 | uint64(r.next())
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling on 32 bits when the
	// bound fits; fall back to 64-bit modulo rejection otherwise.
	if n <= math.MaxInt32 {
		bound := uint32(n)
		threshold := -bound % bound
		for {
			v := r.next()
			m := uint64(v) * uint64(bound)
			if uint32(m) >= threshold {
				return int(m >> 32)
			}
		}
	}
	max := uint64(n)
	limit := math.MaxUint64 - math.MaxUint64%max
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// IntBetween returns a uniform value in [lo, hi] inclusive. It panics if
// hi < lo.
func (r *RNG) IntBetween(lo, hi int) int {
	if hi < lo {
		panic("rng: IntBetween with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Uniform returns a uniform value in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Gaussian returns a normal variate with the given mean and standard
// deviation.
func (r *RNG) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// ClippedGaussian draws from N(mean, stddev) clipped to [min, max]. This
// is the weight distribution used by every randomized dataset in the
// paper (Section IV-B): values outside the range are clamped, not
// redrawn, matching SAGA's numpy.clip usage.
func (r *RNG) ClippedGaussian(mean, stddev, min, max float64) float64 {
	v := r.Gaussian(mean, stddev)
	if v < min {
		return min
	}
	if v > max {
		return max
	}
	return v
}

// PositiveClippedGaussian draws from N(mean, stddev) clipped below at min
// with no upper bound (used by the Fig 7/8 family generators, which clip
// only at 0).
func (r *RNG) PositiveClippedGaussian(mean, stddev, min float64) float64 {
	v := r.Gaussian(mean, stddev)
	if v < min {
		return min
	}
	return v
}

// Shuffle permutes the first n indices via swap using Fisher-Yates.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
