package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// kind names a span: the layer entry point it brackets.
type kind uint8

const (
	kNone        kind = iota
	kBatch            // one 64-vector batch through the facade (stream)
	kClient           // one batch as the HTTP client sees it (serve)
	kHandler          // Handler().ServeHTTP for one batch
	kDecode           // encoding/json decode of a BatchRequest (replay)
	kEncode           // encoding/json encode of a BatchResponse (replay)
	kParse            // bench85.Parse
	kAnalyze          // parsim.Analyze / levelize.Analyze
	kCompile          // parsim.Compile / pcset.Compile
	kOpen             // udsim.Open
	kClone            // Cloner.Clone
	kReset            // ResetConsistent
	kUdsimApply       // Engine.Apply
	kUdsimFinal       // Engine.Final over every primary output
	kEngineApply      // parsim/pcset Sim.ApplyVector
	kProgInit         // init Program.Run
	kProgSim          // sim Program.Run
	numKinds
)

var kindNames = [numKinds]string{
	"none", "bench.batch", "http.client", "serve.handler", "serve.decode",
	"serve.encode", "compile.parse", "compile.analyze", "compile.program",
	"udsim.open", "engine.clone", "engine.reset", "udsim.apply",
	"udsim.final", "engine.apply", "program.init", "program.sim",
}

// span is one recorded call: the operation it served (a vector or batch
// number shared by every span of that operation), its own kind, the kind
// of the span that caused it, and its start offset and duration in ns.
type span struct {
	op           uint32
	kind, parent kind
	start, dur   int64
}

// maxSpans bounds the spans kept for the trace file (the first ones
// recorded); the per-kind sums keep counting past it. The bound keeps
// the buffer small next to the workloads' own live heap: a larger one
// would make the collector run less often than in the untraced run.
const maxSpans = 1 << 15

// tracer records spans in memory and writes them out when the run ends.
// It is safe for concurrent use (serve workloads record from client and
// handler goroutines).
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int64
	sum     [numKinds]int64
	n       [numKinds]int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, maxSpans)} }

// rec records one span; on a nil tracer it does nothing.
func (t *tracer) rec(k, parent kind, op uint32, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sum[k] += int64(d)
	t.n[k]++
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{op: op, kind: k, parent: parent,
			start: int64(start.Sub(t.t0)), dur: int64(d)})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// mean is the mean duration of spans of kind k in ns (0 when none).
func (t *tracer) mean(k kind) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n[k] == 0 {
		return 0
	}
	return float64(t.sum[k]) / float64(t.n[k])
}

// writeFile writes every kept span as tab-separated text to
// dir/traces/name.tsv and returns the path.
func (t *tracer) writeFile(dir, name string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Join(dir, "traces"), 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "traces", name+".tsv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tspan\tparent\tstart_ns\tdur_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\n", s.op, kindNames[s.kind], kindNames[s.parent], s.start, s.dur)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// setSelf sets the self-time breakdown of one traced operation: the
// given per-layer self times, traced.ns_per_op, and whatever part of it
// the layers leave uncovered as self.unattributed_ns_per_op.
func setSelf(r *runCtx, tracedPerOp float64, self map[string]float64) {
	covered := 0.0
	for _, n := range selfLayers {
		r.set(n, self[n])
		covered += self[n]
	}
	r.set("traced.ns_per_op", tracedPerOp)
	r.set("self.unattributed_ns_per_op", tracedPerOp-covered)
}
