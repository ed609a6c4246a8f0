package main

import "time"

// The host this benchmark was built on gives it a share of a machine
// whose speed drifts: for minutes at a time the same simulation takes
// up to twice as long, with process CPU time moving with wall time. A
// fixed calibration pass, timed between the measured operations,
// slows down with it. Every end-to-end time is therefore reported at a
// reference host speed: its wall time scaled by refPass over the
// calibration passes that bracket it. On a steady host the factor is
// constant and the metric is wall time up to that constant; a change to
// the simulator moves the metric in full, since the pass runs none of
// its code. README.md gives the measured effect.

// refPass is the calibration pass time that defines the reference host
// speed: the pass's fast-state time on the 2-core Intel Xeon host the
// benchmark was tuned on.
const refPass = 12 * time.Millisecond

// calibrator is the calibration pass: a fixed number of
// read-modify-write steps at pseudo-random offsets in a 2 MiB array,
// the size of one core's L2 cache on that host. Whatever shares the
// core's caches and pipelines with the benchmark slows the pass too.
// Passes over other array sizes, a pointer chase, a streaming read and
// a toy wormhole grid tracked the host's slow phases no better.
type calibrator struct {
	arr []uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{arr: make([]uint64, 1<<18)}
	for i := range c.arr {
		c.arr[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	return c
}

// mb is the calibration array's resident size in MiB. Every pass
// touches it, so it stays resident beside the simulator.
func (c *calibrator) mb() float64 {
	return float64(8*len(c.arr)) / (1 << 20)
}

// calibSink keeps the compiler from discarding the pass.
var calibSink uint64

// pass runs the calibration pass and returns its wall time.
func (c *calibrator) pass() time.Duration {
	start := time.Now()
	calibSink += churn(c.arr, 1_200_000)
	return time.Since(start)
}

// churn does the given number of read-modify-write steps over arr,
// whose length is a power of two; a loaded value steers the next
// offsets.
func churn(arr []uint64, steps int) uint64 {
	mask := uint64(len(arr) - 1)
	a, b := uint64(1), uint64(7)
	for i := 0; i < steps; i++ {
		a = a*0x9E3779B97F4A7C15 + uint64(i)
		b ^= b<<13 ^ b>>7
		j := (a >> 20) & mask
		arr[j] += arr[b&mask] ^ a
		if arr[j]&3 == 0 {
			b++
		}
	}
	return a ^ b
}

// pendingTime is an end-to-end time sample waiting for the calibration
// pass that closes its window.
type pendingTime struct {
	name, unit string
	v          float64
}

// timing records a host-time sample of an end-to-end metric once the
// next calibration pass has run.
func (b *bench) timing(name, unit string, v float64) {
	b.pending = append(b.pending, pendingTime{name, unit, v})
}

// calibrate runs a calibration pass and records the samples taken
// since the previous pass, scaled to the reference host speed by the
// mean of the two passes that bracket them.
func (b *bench) calibrate() {
	p := b.cal.pass()
	b.passes = append(b.passes, p.Seconds()*1e3)
	mean := p
	if b.lastPass > 0 {
		mean = (b.lastPass + p) / 2
	}
	b.lastPass = p
	scale := float64(refPass) / float64(mean)
	for _, s := range b.pending {
		b.record(s.name, s.unit, s.v*scale)
	}
	b.pending = b.pending[:0]
}
