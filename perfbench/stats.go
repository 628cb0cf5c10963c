package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs (linear interpolation between
// order statistics); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo]*(1-f) + s[lo+1]*f
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// medianRate returns the median, over timed pieces of work (a stream
// batch, a serve burst), of each piece's rate in units per second: the
// typical speed, which stalls hitting a minority of the pieces do not
// move. On a shared host they come in bursts that a whole-run mean, or
// a tail percentile, follows.
func medianRate(units []float64, took []time.Duration) float64 {
	rates := make([]float64, 0, len(units))
	for i, u := range units {
		if took[i] > 0 {
			rates = append(rates, u/took[i].Seconds())
		}
	}
	return median(rates)
}

// latencyWindows is the number of equal consecutive windows a run's
// latencies are split into; the reported median is the median over
// windows of each window's median, for the reason given at medianRate.
const latencyWindows = 20

// latencyMetrics sets the latency percentiles from per-operation
// latencies in the order the operations ran.
func latencyMetrics(r *runCtx, lat []time.Duration) {
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	n := len(ms)
	g := latencyWindows
	if n < g {
		g = n
	}
	var p50 []float64
	for w := 0; w < g; w++ {
		p50 = append(p50, quantile(ms[w*n/g:(w+1)*n/g], 0.50))
	}
	r.set("latency_p50_ms", median(p50))
	// The tail is recorded, not gated: it follows the host, not the code.
	// Between runs of the same code the 99th percentile spread by 9 to
	// 21 %, and during a host disturbance the 90th of stream-pcset went
	// from 10 to 20 ms while the median moved by 4 %.
	r.meta["latency_p90_ms"] = quantile(ms, 0.90)
	r.meta["latency_p99_ms"] = quantile(ms, 0.99)
	r.meta["latency_samples"] = n
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB,
// falling back to the Go runtime's total mapped memory where /proc is
// unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// endSetup starts the measured part of a run's memory, once set-up and
// the reference outputs are done: it records the peak RSS so far in the
// metadata, returns the collected garbage to the OS and resets the
// kernel's high-water mark, so peak_rss_mb covers the memory the
// workload holds while it runs. The peak before depends on when the
// collector happened to run (set-up's moved by 10 % between runs of the
// same code) and includes the benchmark's own reference computation.
func (r *runCtx) endSetup() {
	r.meta["peak_rss_setup_mb"] = peakRSSMB()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		r.meta["peak_rss_includes_setup"] = true
	}
}

// goCounters reads the cumulative heap allocation and GC cycle counts
// without stopping the world.
type goCounters struct{ allocBytes, gcCycles uint64 }

func readGo() goCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var c goCounters
	if s[0].Value.Kind() == metrics.KindUint64 {
		c.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		c.gcCycles = s[1].Value.Uint64()
	}
	return c
}

// goMeter accumulates runtime counters over the measured segments of a
// traced run.
type goMeter struct {
	start      goCounters
	allocBytes uint64
	gcCycles   uint64
	busy       time.Duration
	t0         time.Time
}

func (m *goMeter) begin() { m.t0 = time.Now(); m.start = readGo() }

func (m *goMeter) end() {
	c := readGo()
	m.busy += time.Since(m.t0)
	m.allocBytes += c.allocBytes - m.start.allocBytes
	m.gcCycles += c.gcCycles - m.start.gcCycles
}

func (m *goMeter) report(r *runCtx, ops int64) {
	if ops > 0 {
		r.set("go.alloc_bytes_per_op", float64(m.allocBytes)/float64(ops))
	}
	if m.busy > 0 {
		r.set("go.gc_cycles_per_s", float64(m.gcCycles)/m.busy.Seconds())
	}
}
