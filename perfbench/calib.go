package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The hosts this benchmark runs on are shared, and their speed drifts by
// tens of percent over seconds: on a 2-core container, c6288 through the
// facade ran at 6.7k to 14.9k vectors/s in consecutive 0.35 s windows of
// one run, and the medians of 10 s runs spread by a quarter. Thread CPU
// time drifts just as much, so the slowdown is the core's speed, not
// time spent descheduled. Every timed end-to-end quantity is therefore
// paired with a short run of a fixed reference kernel timed at the same
// moment, and reported at reference host speed: a duration d measured
// while the kernel ran at slowdown s becomes d/s, a rate becomes
// rate×s. On the same host the ratio of the two moved a fifth as much
// as either raw number. The raw figures and the slowdowns go in the
// run's metadata.

const (
	calibPasses = 9     // kernel passes per measurement; the median counts
	calibSlots  = 16384 // state words (128 KiB, like a mid-size engine arena)
	calibInstrs = 8192  // instructions per pass
	// calibRefNs is the reference time of one pass: about the median on
	// a shared 2-core Xeon container. It scales every reported time; it
	// must not change while results are compared.
	calibRefNs = 75000
)

// calibIns is one instruction of the reference kernel.
type calibIns struct {
	op      uint8
	d, a, b int32
}

// calibrator runs the reference kernel: a switch-dispatched interpreter
// over a fixed random straight-line program, the same shape of work as
// the engine's dispatch loop but none of its code, so a change to the
// repository cannot change the reference. It has one lane per core the
// workloads use; each lane owns its state.
type calibrator struct {
	prog  []calibIns
	lanes [maxLanes]calibLane
	raw   []float64 // every slowdown measured, for the metadata
}

// maxLanes is the most cores a workload runs on.
const maxLanes = serveClients

type calibLane struct {
	st    []uint64
	times []float64
}

func newCalibrator() *calibrator {
	r := rand.New(rand.NewSource(1990))
	c := &calibrator{prog: make([]calibIns, calibInstrs)}
	for i := range c.prog {
		c.prog[i] = calibIns{uint8(r.Intn(6)), int32(r.Intn(calibSlots)), int32(r.Intn(calibSlots)), int32(r.Intn(calibSlots))}
	}
	for l := range c.lanes {
		st := make([]uint64, calibSlots)
		for i := range st {
			st[i] = r.Uint64()
		}
		c.lanes[l].st = st
	}
	return c
}

func (c *calibrator) pass(st []uint64) {
	for i := range c.prog {
		in := &c.prog[i]
		switch in.op {
		case 0:
			st[in.d] = st[in.a] & st[in.b]
		case 1:
			st[in.d] = st[in.a] | st[in.b]
		case 2:
			st[in.d] = st[in.a] ^ st[in.b]
		case 3:
			st[in.d] = st[in.a]<<3 | st[in.b]>>61
		case 4:
			st[in.d] = ^st[in.a]
		case 5:
			st[in.d] |= st[in.a] >> 5
		}
	}
}

// lane times calibPasses passes on lane l and returns the median pass
// time in ns.
func (c *calibrator) lane(l int) float64 {
	ln := &c.lanes[l]
	ln.times = ln.times[:0]
	for i := 0; i < calibPasses; i++ {
		t0 := time.Now()
		c.pass(ln.st)
		ln.times = append(ln.times, float64(time.Since(t0)))
	}
	sort.Float64s(ln.times)
	return ln.times[len(ln.times)/2]
}

// slowdown runs the kernel on the calling goroutine and returns the
// host's current slowdown against the reference: median pass time /
// calibRefNs. Single-threaded workloads use it.
func (c *calibrator) slowdown() float64 {
	s := c.lane(0) / calibRefNs
	c.raw = append(c.raw, s)
	return s
}

// slowdownAll runs the kernel on every lane at once, one goroutine each,
// and returns the mean of their slowdowns: the speed of all the cores a
// two-thread workload runs on, not just the one the caller is on.
func (c *calibrator) slowdownAll() float64 {
	var wg sync.WaitGroup
	var ns [maxLanes]float64
	for l := range c.lanes {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			ns[l] = c.lane(l)
		}(l)
	}
	wg.Wait()
	sum := 0.0
	for _, v := range ns {
		sum += v
	}
	s := sum / maxLanes / calibRefNs
	c.raw = append(c.raw, s)
	return s
}

// startSetup starts timing one set-up. It collects garbage and reads the
// host slowdown (with slowdown, the calibrator's single- or all-lane
// reading) first; the returned stop does the same after the set-up and
// returns its duration in seconds at reference host speed, using the
// mean of the two readings. Collecting around every set-up also keeps
// one set-up's garbage out of the next one's time and peak memory.
func startSetup(slowdown func() float64) (stop func() float64) {
	runtime.GC()
	s0 := slowdown()
	t0 := time.Now()
	return func() float64 {
		d := time.Since(t0)
		runtime.GC()
		return d.Seconds() / ((s0 + slowdown()) / 2)
	}
}
