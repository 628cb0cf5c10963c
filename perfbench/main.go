// Command perfbench is the repository benchmark. It runs one named
// workload through the layers a user of udsim hits, checks every
// operation's outputs against internal/refsim, prints every metric by
// name and unit, and ends with one JSON result line:
//
//	bash perfbench/run.sh --workload stream-deep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end metrics;
// with --trace 1 the same workload runs with in-memory spans around the
// calls into each layer and reports the per-layer metrics. BENCHMARK.json
// at the repository root lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eUnits are the end-to-end metrics every untraced run reports.
var e2eUnits = map[string]string{
	"vectors_per_s":  "1/s",
	"batches_per_s":  "1/s",
	"latency_p50_ms": "ms",
	"setup_s":        "s",
	"peak_rss_mb":    "MB",
}

// layerUnits are the per-layer metrics every traced run reports. A
// metric that describes work a workload does not do (serve counters on
// a stream workload, say) reads 0.
var layerUnits = map[string]string{
	"program.init_ns_per_vec":       "ns",
	"program.sim_ns_per_vec":        "ns",
	"program.instrs_per_vec":        "count",
	"program.shift_instrs":          "count",
	"engine.apply_ns_per_vec":       "ns",
	"engine.self_ns_per_vec":        "ns",
	"engine.state_words":            "count",
	"engine.reset_ns_per_batch":     "ns",
	"engine.clone_ns":               "ns",
	"udsim.apply_ns_per_vec":        "ns",
	"udsim.self_ns_per_vec":         "ns",
	"udsim.final_ns_per_vec":        "ns",
	"udsim.open_ns":                 "ns",
	"compile.parse_ns":              "ns",
	"compile.analyze_ns":            "ns",
	"compile.program_ns":            "ns",
	"serve.handler_ns_per_batch":    "ns",
	"serve.decode_ns_per_batch":     "ns",
	"serve.encode_ns_per_batch":     "ns",
	"serve.self_ns_per_batch":       "ns",
	"serve.compiles":                "count",
	"serve.cache_hit_ratio":         "ratio",
	"serve.cache_evictions":         "count",
	"serve.pool_waits":              "count",
	"serve.rejected":                "count",
	"serve.compile_ns_per_miss":     "ns",
	"http.roundtrip_ns_per_batch":   "ns",
	"http.request_bytes_per_vec":    "B",
	"http.response_bytes_per_batch": "B",
	"go.alloc_bytes_per_op":         "B",
	"go.gc_cycles_per_s":            "1/s",
	"self.program_ns_per_op":        "ns",
	"self.engine_ns_per_op":         "ns",
	"self.udsim_ns_per_op":          "ns",
	"self.compile_ns_per_op":        "ns",
	"self.serve_ns_per_op":          "ns",
	"self.http_ns_per_op":           "ns",
	"self.unattributed_ns_per_op":   "ns",
	"traced.ns_per_op":              "ns",
	"traced.overhead_ns_per_op":     "ns",
	"failed_frac":                   "ratio",
}

// selfLayers are the self-time metrics that, with
// self.unattributed_ns_per_op, sum to traced.ns_per_op.
var selfLayers = []string{
	"self.program_ns_per_op",
	"self.engine_ns_per_op",
	"self.udsim_ns_per_op",
	"self.compile_ns_per_op",
	"self.serve_ns_per_op",
	"self.http_ns_per_op",
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*runCtx) error{
	"stream-deep":  func(r *runCtx) error { return runStream(r, streamDeep) },
	"stream-pcset": func(r *runCtx) error { return runStream(r, streamPCSet) },
	"serve-warm":   func(r *runCtx) error { return runServe(r, false) },
	"serve-cold":   func(r *runCtx) error { return runServe(r, true) },
}

// runCtx is one run's parameters and what the workload reports back.
type runCtx struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	out      string

	tr        *tracer // non-nil exactly when trace is set
	cal       *calibrator
	attempted int64
	failed    int64
	metrics   map[string]float64
	meta      map[string]any
}

func (r *runCtx) set(name string, v float64) { r.metrics[name] = v }

// fail records n failed operations.
func (r *runCtx) fail(n int64, format string, args ...any) {
	r.failed += n
	if r.meta["first_failure"] == nil {
		r.meta["first_failure"] = fmt.Sprintf(format, args...)
	}
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for span traces")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %v, --seconds > 0 and --trace 0|1\n", names)
		os.Exit(2)
	}
	r := &runCtx{
		workload: *workload,
		seed:     *seed,
		dur:      time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		out:      *out,
		metrics:  map[string]float64{},
		meta:     map[string]any{},
		cal:      newCalibrator(),
	}
	r.meta["workload"] = r.workload
	r.meta["seed"] = r.seed
	r.meta["seconds"] = *seconds
	r.meta["trace"] = r.trace
	r.meta["num_cpu"] = runtime.NumCPU()
	r.meta["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.meta["go_version"] = runtime.Version()
	if r.trace {
		r.tr = newTracer()
	}
	if err := oracleSelfTest(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: oracle self-test: %v\n", err)
		os.Exit(1)
	}
	if err := run(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	if n := len(r.cal.raw); n > 0 {
		r.meta["host_slowdown"] = map[string]float64{"samples": float64(n),
			"min": quantile(r.cal.raw, 0), "median": median(r.cal.raw), "max": quantile(r.cal.raw, 1)}
	}
	if r.tr != nil {
		path, err := r.tr.writeFile(r.out, fmt.Sprintf("%s-seed%d", r.workload, r.seed))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		r.meta["spans_file"] = path
		r.meta["spans_recorded"] = len(r.tr.spans)
		r.meta["spans_dropped"] = r.tr.dropped
	}
	os.Exit(report(r))
}

// report prints the metadata, every metric by name and unit, and the
// result line; it returns the exit code.
func report(r *runCtx) int {
	units := e2eUnits
	if r.trace {
		units = layerUnits
		if r.attempted > 0 {
			r.set("failed_frac", float64(r.failed)/float64(r.attempted))
		}
	}
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	names := make([]string, 0, len(units))
	for n := range units {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v, ok := r.metrics[n]
		if !ok && !r.trace {
			fmt.Fprintf(os.Stderr, "perfbench: %s reported no %s\n", r.workload, n)
			return 1
		}
		res.Metrics[n] = metric{Value: v, Unit: units[n]}
		fmt.Printf("%-32s %16.6g %s\n", n, v, units[n])
	}
	meta, err := json.Marshal(r.meta)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("meta %s\n", meta)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
