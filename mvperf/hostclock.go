package main

import "time"

// Benchmark hosts are often shared. On the 2-vCPU KVM guest that
// STEADINESS.md's figures come from, every process runs up to a third
// slower for seconds at a time, a plain Go map loop as much as the
// simulator, and runs minutes apart differ as much again. A hostClock
// measures that speed: between ops it runs a fixed calibration slice
// every calibrateEvery, and the end-to-end host times are reported in
// reference seconds: a phase's wall time divided by its slowdown, the
// mean time of the slices run during the phase over calibrationRef,
// the time one slice takes on a reference host. A mean over the whole
// phase, rather than the latest few slices, keeps the jitter of single
// slices out of the figures. The slices run outside every op and every
// timed interval, and the program never executes them, so a change to
// the program moves the reported times exactly as it moves wall time.
const (
	calibrateEvery   = 100 * time.Millisecond
	calibrationRef   = time.Millisecond
	calibrationIters = 100000
)

type hostClock struct {
	due    time.Time
	slices time.Duration // total time of the calibration slices
	n      int           // how many slices ran
	wall   time.Duration // timed wall time, calibration excluded
}

// tick runs a calibration slice when one is due, or when forced.
func (h *hostClock) tick(force bool) {
	if !force && time.Now().Before(h.due) {
		return
	}
	start := time.Now()
	calibrate()
	h.slices += time.Since(start)
	h.n++
	h.due = time.Now().Add(calibrateEvery)
}

// time runs f, which runs no slice, and adds its wall time to wall.
func (h *hostClock) time(f func()) {
	start := time.Now()
	f()
	h.wall += time.Since(start)
}

// slowdown is how many times longer than on the reference host the
// phase's slices took. At least one slice must have run.
func (h *hostClock) slowdown() float64 {
	return float64(h.slices) / float64(h.n) / float64(calibrationRef)
}

// ref converts a wall time taken in this phase to reference time, in
// the same unit.
func (h *hostClock) ref(wall float64) float64 { return wall / h.slowdown() }

// calTable and calSink give the calibration slice the map-lookup and
// arithmetic mix the interpreter's memory accesses are made of.
var (
	calTable = func() map[uint64]uint64 {
		m := make(map[uint64]uint64, 64)
		for i := uint64(0); i < 64; i++ {
			m[i] = i
		}
		return m
	}()
	calSink uint64
)

func calibrate() {
	x := uint64(1)
	for i := 0; i < calibrationIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		calSink += calTable[x>>58]
	}
}
