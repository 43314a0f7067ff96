package main

import (
	"math"
	"time"
)

// The speed of a shared host drifts: on one 2-vCPU host the same
// serial circuit-cold repetition took 24 s of CPU at one time and 14 s
// a quarter of an hour later, in CPU time as much as in wall time, so
// no choice of repetitions within one run can make two runs far apart
// agree. Each child therefore also times a fixed piece of CPU work
// that belongs to the benchmark, not to the program, right after its
// timed call (or its set-up, in a set-up-only child), in the same
// process and thread. The end-to-end times
// are reported at the reference speed: a measured time is multiplied
// by calRefNs over the calibration's time, and a rate divided by it.
// A program change cannot move the calibration, so it moves the
// reported times exactly as it moves the measured ones; the raw
// medians are printed beside them.

// calRefNs is the calibration's time at the reference speed. It was
// the calibration's median time on the 2-vCPU Xeon VM where the
// benchmark was written; it sets only the scale of the reported times
// and must not change, or every reported time moves with it.
const calRefNs = 7.0e6

// calPasses is how many times calibrate runs the work; the fastest
// pass is the host's speed at that moment, free of interrupts.
const calPasses = 5

var calSink uint64

// calibrate returns the fastest of calPasses timings of
// calibrationWork, in nanoseconds.
func calibrate() float64 {
	table := make([]uint32, 1<<16)
	best := math.Inf(1)
	for i := 0; i < calPasses; i++ {
		start := time.Now()
		calSink += calibrationWork(table)
		best = math.Min(best, float64(time.Since(start).Nanoseconds()))
	}
	return best
}

// calibrationWork is a fixed mix of the two kinds of work the program
// spends its time on: transcendental functions of a varying argument,
// as in the device model, and a data-dependent walk with unpredictable
// branches over a cache-resident table, as in the timing model.
func calibrationWork(table []uint32) uint64 {
	var x float64
	for i := 0; i < 40000; i++ {
		v := 0.5 + float64(i&1023)/1024
		x += math.Exp(-v)*math.Log1p(v) + math.Pow(v, 1.3)
	}
	s := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < 800000; i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		k := s & uint64(len(table)-1)
		if table[k]&1 == 0 {
			acc += uint64(table[k])
		} else {
			acc ^= s
		}
		table[k] += uint32(s)
	}
	return acc + uint64(x)
}
