package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"udsim"
	"udsim/internal/bench85"
	"udsim/internal/circuit"
	"udsim/internal/levelize"
	"udsim/internal/parsim"
	"udsim/internal/pcset"
	"udsim/internal/program"
)

// streamSpec is a single-thread stream workload: one circuit, one
// technique with the facade defaults (sequential execution).
type streamSpec struct {
	circuit string
	tech    udsim.Technique
}

var (
	// c6288 (16×16 array multiplier, 125 levels, four 32-bit words per
	// bit-field): time goes to dispatching the multi-word, shift-heavy
	// parallel-technique program.
	streamDeep = streamSpec{"c6288", udsim.TechParallel}
	// c7552 (3513 gates, 207 PIs, 108 POs) under the PC-set method: a
	// large variable arena and wide per-vector input writes and output
	// reads weigh engine and facade self time more.
	streamPCSet = streamSpec{"c7552", udsim.TechPCSet}
)

const (
	batchVecs = 64   // vectors per batch on every workload
	poolVecs  = 4096 // distinct vectors a stream run cycles through
	setupReps = 15   // set-ups per run; setup_s is their median
	// histEvery spaces the sampled full-history checks; each costs a
	// refsim unit-delay sweep and runs outside the timed region.
	histEvery = 250 * time.Millisecond
	// warmup runs before measuring on every workload, so caches, pools
	// and the heap reach their steady state first.
	warmup = 500 * time.Millisecond
)

// engineSim is the engine layer's public entry point (parsim.Sim,
// pcset.Sim), which the facade's Apply wraps.
type engineSim interface {
	ResetConsistent([]bool) error
	ApplyVector([]bool) error
	Final(circuit.NetID) bool
}

// analyze runs the technique's levelization entry point.
func (sp streamSpec) analyze(c *circuit.Circuit) error {
	if sp.tech == udsim.TechParallel {
		_, _, err := parsim.Analyze(c)
		return err
	}
	_, err := levelize.Analyze(c.Normalize())
	return err
}

// compile builds the engine-layer simulator exactly as udsim.Open does
// with default options.
func (sp streamSpec) compile(c *circuit.Circuit) (engineSim, error) {
	if sp.tech == udsim.TechParallel {
		return parsim.Compile(c, parsim.Config{})
	}
	return pcset.Compile(c, nil)
}

// streamRun drives one facade engine over the seeded vector pool.
type streamRun struct {
	r    *runCtx
	eng  udsim.Engine
	cc   *circuit.Circuit
	vecs [][]bool
	want [][]byte
	outs [][]byte
	errs []error
	next int // pool index of the next batch's first vector

	nextHist   time.Time
	histChecks int
}

func runStream(r *runCtx, sp streamSpec) error {
	// The workload is single-threaded, and so is the runtime under it:
	// with one P the collector's work during set-up runs on the measured
	// core, where the host slowdown is read, instead of on the other core,
	// whose speed on a shared host drifts independently. The measured loop
	// allocates nothing, so it runs the same either way.
	runtime.GOMAXPROCS(1)
	r.meta["gomaxprocs"] = 1
	gc, err := udsim.ISCAS85(sp.circuit)
	if err != nil {
		return err
	}
	var sb strings.Builder
	if err := udsim.WriteBench(&sb, gc); err != nil {
		return err
	}
	text := sb.String()

	// Set-up: parse the netlist, Open, reset to a consistent state —
	// everything before the first vector can be served.
	var (
		eng    udsim.Engine
		c      *circuit.Circuit
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		stop := startSetup(r.cal.slowdown)
		t0 := time.Now()
		pc, err := bench85.Parse(strings.NewReader(text), sp.circuit)
		if err != nil {
			return err
		}
		t1 := time.Now()
		e, err := udsim.Open(pc, sp.tech)
		if err != nil {
			return err
		}
		t2 := time.Now()
		if err := e.ResetConsistent(nil); err != nil {
			return err
		}
		setups = append(setups, stop())
		if r.tr != nil {
			r.tr.rec(kParse, kNone, uint32(i), t0, t1.Sub(t0))
			r.tr.rec(kOpen, kNone, uint32(i), t1, t2.Sub(t1))
			t3 := time.Now()
			if err := sp.analyze(pc); err != nil {
				return err
			}
			t4 := time.Now()
			if _, err := sp.compile(pc); err != nil {
				return err
			}
			r.tr.rec(kAnalyze, kNone, uint32(i), t3, t4.Sub(t3))
			r.tr.rec(kCompile, kNone, uint32(i), t4, time.Since(t4))
		}
		eng, c = e, pc
	}
	cc := eng.Circuit()
	r.meta["setup_reps"] = setupReps
	r.meta["circuit"] = circuitMeta(eng)

	rng := rand.New(rand.NewSource(r.seed))
	vecs := randomVectors(rng, poolVecs, len(cc.Inputs))
	want, err := expectedOutputs(cc, vecs)
	if err != nil {
		return err
	}
	r.endSetup()
	s := &streamRun{r: r, eng: eng, cc: cc, vecs: vecs, want: want,
		outs: make([][]byte, batchVecs), errs: make([]error, batchVecs)}
	for k := range s.outs {
		s.outs[k] = make([]byte, len(cc.Outputs))
	}
	s.nextHist = time.Now().Add(histEvery)
	for end := time.Now().Add(warmup); time.Now().Before(end); s.advance() {
		s.batch(s.next)
		s.check(s.next)
	}

	if r.tr == nil {
		s.measure(setups)
		return nil
	}
	esim, err := sp.compile(c)
	if err != nil {
		return err
	}
	if err := esim.ResetConsistent(nil); err != nil {
		return err
	}
	init, sim, ok := udsim.Programs(eng)
	if !ok {
		return fmt.Errorf("engine %s exposes no programs", eng.EngineName())
	}
	s.measureTraced(esim, init, sim)
	return nil
}

// circuitMeta records the circuit's shape and its compiled size.
func circuitMeta(eng udsim.Engine) map[string]any {
	c := eng.Circuit()
	m := map[string]any{
		"name": c.Name, "gates": c.NumGates(), "levels": eng.Depth() + 1,
		"pis": len(c.Inputs), "pos": len(c.Outputs), "engine": eng.EngineName(),
	}
	if in, ok := eng.(udsim.Introspector); ok {
		m["code_size"] = in.CodeSize()
	}
	if w, ok := eng.(interface{ WordsPerField() int }); ok {
		m["words_per_field"] = w.WordsPerField()
	}
	if v, ok := eng.(interface{ NumVars() int }); ok {
		m["num_vars"] = v.NumVars()
	}
	return m
}

// batch applies the batch starting at pool index first through the
// facade and reads every primary output's final after each vector.
func (s *streamRun) batch(first int) time.Duration {
	pos := s.cc.Outputs
	t0 := time.Now()
	for k := 0; k < batchVecs; k++ {
		s.errs[k] = s.eng.Apply(s.vecs[first+k])
		readFinals(s.eng, pos, s.outs[k])
	}
	return time.Since(t0)
}

// batchTraced is batch with a span around every facade call.
func (s *streamRun) batchTraced(first int) time.Duration {
	tr, pos := s.r.tr, s.cc.Outputs
	t0 := time.Now()
	for k := 0; k < batchVecs; k++ {
		op := uint32(first + k)
		a := time.Now()
		s.errs[k] = s.eng.Apply(s.vecs[first+k])
		b := time.Now()
		readFinals(s.eng, pos, s.outs[k])
		tr.rec(kUdsimApply, kBatch, op, a, b.Sub(a))
		tr.rec(kUdsimFinal, kBatch, op, b, time.Since(b))
	}
	d := time.Since(t0)
	tr.rec(kBatch, kNone, uint32(first), t0, d)
	return d
}

// check compares the last batch's outputs with the reference, outside
// the timed region, and now and then the last vector's full unit-delay
// history too.
func (s *streamRun) check(first int) {
	r := s.r
	r.attempted += batchVecs
	for k := 0; k < batchVecs; k++ {
		if s.errs[k] != nil {
			r.fail(1, "vector %d: %v", first+k, s.errs[k])
		} else if err := checkOutputs(s.outs[k], s.want[first+k]); err != nil {
			r.fail(1, "vector %d: %v", first+k, err)
		}
	}
	if time.Now().Before(s.nextHist) {
		return
	}
	last := first + batchVecs - 1
	hist, err := referenceHistory(s.cc, s.vecs[last-1], s.vecs[last], s.eng.Depth())
	if err == nil {
		err = checkHistory(s.eng.(udsim.Tracer), hist)
	}
	if err != nil {
		r.fail(1, "history of vector %d: %v", last, err)
	}
	// The reference sweep is the measurement loop's only garbage; collect
	// it here, outside the timed region, so neither the timed batches nor
	// the peak RSS depend on when the collector would have run.
	runtime.GC()
	s.histChecks++
	r.meta["history_checks"] = s.histChecks
	s.nextHist = time.Now().Add(histEvery)
}

func (s *streamRun) advance() { s.next = (s.next + batchVecs) % poolVecs }

// measure is the untraced run: batches until the time is up, each timed
// against the mean of the host slowdowns read just before and after it,
// reporting the end-to-end metrics.
func (s *streamRun) measure(setups []float64) {
	r := s.r
	var (
		units     []float64
		took, raw []time.Duration
	)
	before := r.cal.slowdown()
	deadline := time.Now().Add(r.dur)
	for time.Now().Before(deadline) {
		first := s.next
		d := s.batch(first)
		after := r.cal.slowdown()
		sd := (before + after) / 2
		before = after
		units = append(units, batchVecs)
		raw = append(raw, d)
		took = append(took, time.Duration(float64(d)/sd))
		s.check(first)
		s.advance()
	}
	vps := medianRate(units, took)
	r.set("vectors_per_s", vps)
	r.set("batches_per_s", vps/batchVecs)
	latencyMetrics(r, took)
	r.meta["raw_vectors_per_s"] = medianRate(units, raw)
	r.set("setup_s", median(setups))
	r.set("peak_rss_mb", peakRSSMB())
	r.meta["vectors"] = len(took) * batchVecs
	r.meta["batches"] = len(took)
}

// measureTraced is the traced run. Each round replays one batch down a
// ladder of entry points: the facade untraced (the tracing-overhead
// baseline), the facade with spans, the engine layer's ApplyVector on an
// identically compiled simulator, and the bare init and sim programs
// over a private state arena. Self time per layer is the difference
// between adjacent rungs.
func (s *streamRun) measureTraced(esim engineSim, init, sim *program.Program) {
	r, tr := s.r, s.r.tr
	pos := s.cc.Outputs
	st := make([]uint64, max(init.NumVars, sim.NumVars))
	buf := make([]byte, len(pos))
	var (
		gm                goMeter
		untraced, traced  time.Duration
		nUntraced, nTrace int64
	)
	deadline := time.Now().Add(r.dur)
	for time.Now().Before(deadline) {
		first := s.next
		gm.begin()
		untraced += s.batch(first)
		gm.end()
		nUntraced += batchVecs
		s.check(first)

		traced += s.batchTraced(first)
		nTrace += batchVecs
		s.check(first)

		for k := 0; k < batchVecs; k++ {
			a := time.Now()
			err := esim.ApplyVector(s.vecs[first+k])
			tr.rec(kEngineApply, kUdsimApply, uint32(first+k), a, time.Since(a))
			if err != nil {
				r.fail(1, "engine vector %d: %v", first+k, err)
			}
		}
		last := first + batchVecs - 1
		for j, o := range pos {
			buf[j] = bit(esim.Final(o))
		}
		r.attempted++
		if err := checkOutputs(buf, s.want[last]); err != nil {
			r.fail(1, "engine vector %d: %v", last, err)
		}

		for k := 0; k < batchVecs; k++ {
			runPrograms(tr, uint32(first+k), init, sim, st)
		}
		s.advance()
	}

	pInit, pSim := tr.mean(kProgInit), tr.mean(kProgSim)
	eApply, uApply, uFinal := tr.mean(kEngineApply), tr.mean(kUdsimApply), tr.mean(kUdsimFinal)
	r.set("program.init_ns_per_vec", pInit)
	r.set("program.sim_ns_per_vec", pSim)
	r.set("program.instrs_per_vec", float64(len(init.Code)+len(sim.Code)))
	r.set("program.shift_instrs", float64(init.ShiftCount()+sim.ShiftCount()))
	r.set("engine.apply_ns_per_vec", eApply)
	r.set("engine.self_ns_per_vec", eApply-pInit-pSim)
	r.set("engine.state_words", float64(sim.NumVars))
	r.set("udsim.apply_ns_per_vec", uApply)
	r.set("udsim.self_ns_per_vec", uApply-eApply)
	r.set("udsim.final_ns_per_vec", uFinal)
	r.set("udsim.open_ns", tr.mean(kOpen))
	r.set("compile.parse_ns", tr.mean(kParse))
	r.set("compile.analyze_ns", tr.mean(kAnalyze))
	r.set("compile.program_ns", tr.mean(kCompile))
	gm.report(r, nUntraced)

	perOp := float64(traced) / float64(nTrace)
	r.set("traced.overhead_ns_per_op", perOp-float64(untraced)/float64(nUntraced))
	setSelf(r, perOp, map[string]float64{
		"self.program_ns_per_op": pInit + pSim,
		"self.engine_ns_per_op":  eApply - pInit - pSim,
		"self.udsim_ns_per_op":   uApply - eApply + uFinal,
	})
	r.meta["vectors"] = nTrace
}

// runPrograms runs the init and sim programs once over st with spans.
func runPrograms(tr *tracer, op uint32, init, sim *program.Program, st []uint64) {
	a := time.Now()
	init.Run(st)
	b := time.Now()
	sim.Run(st)
	tr.rec(kProgInit, kEngineApply, op, a, b.Sub(a))
	tr.rec(kProgSim, kEngineApply, op, b, time.Since(b))
}
