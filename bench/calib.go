package main

import (
	"sort"
	"time"
)

// Host-speed calibration.
//
// The reference host is a 2-vCPU virtual machine on a shared server, and
// its speed is not its own: other tenants slow it by 10 to 100 % for
// seconds or for many minutes at a stretch. CPU time grows with wall
// clock in those phases and steal time stays near zero, so nothing a
// process can read about itself tells a slow host from a slow program.
// Three series of 240 to 300 back-to-back `figures -workers 1 fig4`
// invocations were recorded while this file was written, 1.00 s each in
// a quiet phase; cut into runs of 20, their run medians ranged over 32,
// 43 and 63 % of the series median. No statistic of wall clock alone
// comes near the 25 % BENCHMARK.json may state as a bound.
//
// So every timed stretch (a sweep's child invocation, a second of a
// serve loop, a set-up repetition) is bracketed by two runs of a fixed
// kernel in this process, and its wall clock is divided by how much
// slower than calibRef the two ran on average. What the neighbours take
// away is cache and memory bandwidth, not cycles: a register-only loop
// slowed by under 10 % while fig4 slowed by 60 %. A kernel that only
// allocates, chases pointers, fills a map and sorts tracks fig4 well in
// moderately loud phases (run medians of the ratio ranged over 11 % in
// the first two series) but overshoots in the loudest (25 % in the
// third: the kernel at 2.1 times its quiet duration, fig4 at 1.5 times).
// Adding about a third of register-only arithmetic makes the kernel slow
// down like the programs: 13, 13 and 11 % on the three series (computed
// from the recorded durations of both parts).
//
// The kernel is part of the benchmark, which a change that claims a gain
// may not edit, and shares no code with the program, so a slower program
// moves the normalised time exactly as it moves the wall clock.

// calibRef is the kernel's duration on the reference host when nothing
// disturbs it. Dividing by it keeps normalised times in the host's own
// quiet-phase milliseconds; any other constant would do as well.
const calibRef = 59 * time.Millisecond

type calibNode struct {
	next *calibNode
	w    float64
	kids []int
}

var calibSink float64

// calibKernel is a fixed amount of work: the same allocations, the same
// pointer walk and the same sort on every call (about 40 ms on the quiet
// reference host), then a register-only loop (about 20 ms).
func calibKernel() {
	x := uint64(88172645463325252)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	const n = 1 << 15
	sum := 0.0
	for rep := 0; rep < 4; rep++ {
		nodes := make([]*calibNode, n)
		for i := range nodes {
			nodes[i] = &calibNode{w: float64(rnd()%1000) / 7, kids: make([]int, 0, 4)}
		}
		for _, nd := range nodes {
			nd.next = nodes[rnd()%n]
			for k := 0; k < 3; k++ {
				nd.kids = append(nd.kids, int(rnd()%n))
			}
		}
		seen := map[int]float64{}
		p := nodes[0]
		for i := 0; i < 4*n; i++ {
			p = p.next
			for _, k := range p.kids {
				sum += nodes[k].w * 1.0001
			}
			if i%8 == 0 {
				seen[int(rnd()%4096)] += p.w
			}
		}
		ws := make([]float64, n)
		for i := range ws {
			ws[i] = nodes[i].w + float64(rnd()%97)
		}
		sort.Float64s(ws)
		sum += ws[n/2] + seen[7]
	}
	y := 1.0
	for i := 0; i < 9_000_000; i++ {
		y = y*1.0000001 + 0.5
		if y > 1e9 {
			y = 1
		}
	}
	calibSink = sum + y
}

// hostSpeed brackets timed stretches with kernel runs. Consecutive
// stretches share the run between them.
type hostSpeed struct {
	last    float64   // seconds the most recent kernel run took
	spent   float64   // seconds all kernel runs took
	factors []float64 // one per stretch, for the report
}

func (h *hostSpeed) kernel() float64 {
	start := time.Now()
	calibKernel()
	d := time.Since(start).Seconds()
	h.spent += d
	return d
}

// newHostSpeed runs the kernel once, so the first stretch has its
// opening bracket.
func newHostSpeed() *hostSpeed {
	h := &hostSpeed{}
	h.last = h.kernel()
	return h
}

// factor closes the bracket of the stretch that just ended: how many
// times slower than calibRef the host ran around it.
func (h *hostSpeed) factor() float64 {
	now := h.kernel()
	f := (h.last + now) / 2 / calibRef.Seconds()
	h.last = now
	h.factors = append(h.factors, f)
	return f
}
