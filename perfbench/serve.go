package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"udsim"
	"udsim/internal/bench85"
	"udsim/internal/circuit"
	"udsim/internal/gen"
	"udsim/internal/obs"
	"udsim/internal/parsim"
	"udsim/internal/serve"
)

const (
	// serveClients is the closed loop's client count: one per core of
	// the two-core hosts this benchmark is sized for.
	serveClients = 2
	warmPool     = 256 // distinct vector batches serve-warm cycles through
	// coldBases is the number of distinct generated circuits serve-cold
	// draws from; every batch renames every net of one of them with the
	// batch number, so each batch's netlist (and content hash) is new.
	coldBases = 32
	opHeader  = "X-Bench-Op"
	// segment is one phase of the traced run's rotation (untraced
	// traffic, traced traffic, replay of the traced batches).
	segment = 500 * time.Millisecond
	// trafficSegment is one closed-loop burst of the untraced run; the
	// host slowdown is measured between bursts.
	trafficSegment = 250 * time.Millisecond
)

// warmConfig is serve-warm's service configuration: the zero value,
// whose fields take the defaults documented on serve.Config (those of
// cmd/udserve).
var warmConfig = serve.Config{}

// coldConfig is serve-cold's: the defaults except smaller cache and
// registry bounds. Every serve-cold batch registers a new netlist and
// inserts a new program. Under the defaults (256 MiB of estimated
// program bytes, 1024 circuits) neither bound is reached before about a
// thousand batches, the heap grows by about 0.7 MB a batch until then
// (1.5 GB of peak RSS after 2000 batches of 1500 gates), and throughput
// would drift with run length. With these bounds both reach their
// insert-and-evict steady state within the first few dozen batches.
var coldConfig = serve.Config{CacheBytes: 8 << 20, MaxCircuits: 32}

// batchInput is one batch's vectors and the reference digest of its
// outputs.
type batchInput struct {
	vectors []string
	digest  string
}

// coldBase is one generated circuit of serve-cold: its batch, and a
// request body whose net names all carry a placeholder prefix at the
// given offsets, which each batch overwrites with its own number.
type coldBase struct {
	c     *circuit.Circuit
	batch batchInput
	body  []byte
	at    []int
}

// coldPrefix is the placeholder net-name prefix of a serve-cold body;
// request writes the batch number over its digits.
const coldPrefix = "b0000000_"

// serveRun is one serve workload's inputs and measured server.
type serveRun struct {
	r      *runCtx
	cold   bool
	cfg    serve.Config
	hash   string        // serve-warm: registered content hash
	warm   []batchInput  // serve-warm batches
	bodies [][]byte      // serve-warm request bodies (built once the hash is known)
	bases  []coldBase    // serve-cold circuits
	text   string        // serve-warm netlist
	nextOp atomic.Uint32 // operation numbers, shared by every server of the run
	srv    *benchServer  // the measured server
	sent   int64         // batches sent to srv
}

// sample is one completed batch as a client saw it.
type sample struct {
	op        uint32
	lat       time.Duration
	reqBytes  int
	respBytes int
	want      string // reference digest
	err       error
	body      []byte // traced segments only: kept for replay
	resp      []byte
}

func runServe(r *runCtx, cold bool) error {
	s := &serveRun{r: r, cold: cold, cfg: warmConfig}
	if cold {
		s.cfg = coldConfig
	}
	if err := s.inputs(); err != nil {
		return err
	}
	cfg, _ := json.Marshal(s.cfg)
	r.meta["serve_config"] = string(cfg)
	r.meta["serve_clients"] = serveClients
	r.meta["batch_vectors"] = batchVecs

	var setups []float64
	for i := 0; i < setupReps; i++ {
		if s.srv != nil {
			if err := s.stopMeasured(); err != nil {
				return err
			}
		}
		d, err := s.setup()
		if err != nil {
			return err
		}
		setups = append(setups, d)
	}
	r.meta["setup_reps"] = setupReps
	r.endSetup()
	if !cold {
		s.bodies = make([][]byte, len(s.warm))
		for i, b := range s.warm {
			body, err := json.Marshal(serve.BatchRequest{Circuit: s.hash, Vectors: b.vectors, DigestOnly: true})
			if err != nil {
				return err
			}
			s.bodies[i] = body
		}
	}

	// Warm up (connections, cache and registry steady state, heap size)
	// before measuring; the warm-up's batches are checked like any other.
	_, _, err := s.traffic(warmup, false)
	if err == nil && r.tr == nil {
		err = s.measure(setups)
	} else if err == nil {
		err = s.measureTraced()
	}
	if err != nil {
		s.srv.stop()
		return err
	}
	return s.stopMeasured()
}

// inputs generates the workload's circuits, batches and reference
// digests from the seed.
func (s *serveRun) inputs() error {
	rng := rand.New(rand.NewSource(s.r.seed))
	if !s.cold {
		gc, err := udsim.ISCAS85("c432")
		if err != nil {
			return err
		}
		var sb strings.Builder
		if err := udsim.WriteBench(&sb, gc); err != nil {
			return err
		}
		s.text = sb.String()
		c, err := bench85.Parse(strings.NewReader(s.text), "c432")
		if err != nil {
			return err
		}
		for i := 0; i < warmPool; i++ {
			b, err := makeBatch(rng, c)
			if err != nil {
				return err
			}
			s.warm = append(s.warm, b)
		}
		return s.circuitMeta(c)
	}
	for i := 0; i < coldBases; i++ {
		gc := gen.Layered(gen.LayeredConfig{
			Name: fmt.Sprintf("cold%d", i), Seed: s.r.seed*coldBases + int64(i),
			Gates: 1500, Levels: 30, Inputs: 64, Outputs: 32, SpreadBias: 0.25,
		})
		text, err := renamedBench(gc, "")
		if err != nil {
			return err
		}
		c, err := bench85.Parse(strings.NewReader(text), gc.Name)
		if err != nil {
			return err
		}
		b, err := makeBatch(rng, c)
		if err != nil {
			return err
		}
		named, err := renamedBench(gc, coldPrefix)
		if err != nil {
			return err
		}
		body, err := json.Marshal(serve.BatchRequest{Bench: named, Vectors: b.vectors, DigestOnly: true})
		if err != nil {
			return err
		}
		var at []int
		for k := 0; ; {
			n := bytes.Index(body[k:], []byte(coldPrefix))
			if n < 0 {
				break
			}
			at = append(at, k+n)
			k += n + len(coldPrefix)
		}
		s.bases = append(s.bases, coldBase{c: c, batch: b, body: body, at: at})
	}
	s.r.meta["cold_bases"] = coldBases
	return s.circuitMeta(s.bases[0].c)
}

// circuitMeta records the (first) circuit's shape and compiled size.
func (s *serveRun) circuitMeta(c *circuit.Circuit) error {
	eng, err := udsim.Open(c, udsim.TechParallel)
	if err != nil {
		return err
	}
	s.r.meta["circuit"] = circuitMeta(eng)
	return nil
}

// makeBatch draws one batch of vectors for c and its reference digest.
func makeBatch(rng *rand.Rand, c *circuit.Circuit) (batchInput, error) {
	vecs := randomVectors(rng, batchVecs, len(c.Inputs))
	want, err := expectedOutputs(c, vecs)
	if err != nil {
		return batchInput{}, err
	}
	strs := make([]string, len(vecs))
	for i, v := range vecs {
		b := make([]byte, len(v))
		for j, x := range v {
			b[j] = bit(x)
		}
		strs[i] = string(b)
	}
	return batchInput{vectors: strs, digest: digest(want)}, nil
}

// renamedBench renders c as a .bench netlist with prefix added to every
// net name; input and output order are unchanged.
func renamedBench(c *circuit.Circuit, prefix string) (string, error) {
	cp := *c
	cp.Nets = append([]circuit.Net(nil), c.Nets...)
	for i := range cp.Nets {
		cp.Nets[i].Name = prefix + cp.Nets[i].Name
	}
	var sb strings.Builder
	err := bench85.Write(&sb, &cp)
	return sb.String(), err
}

// request returns operation op's request body and reference digest. A
// serve-cold body is a copy of its base's with the batch number in every
// net name, so every batch's netlist and content hash are new.
func (s *serveRun) request(op uint32) ([]byte, string, error) {
	if !s.cold {
		i := int(op) % len(s.warm)
		return s.bodies[i], s.warm[i].digest, nil
	}
	base := &s.bases[int(op)%len(s.bases)]
	if op >= 1e7 {
		return nil, "", fmt.Errorf("operation %d overflows the net-name prefix", op)
	}
	digits := fmt.Sprintf("%07d", op)
	body := append([]byte(nil), base.body...)
	for _, i := range base.at {
		copy(body[i+1:], digits)
	}
	return body, base.batch.digest, nil
}

// setup starts a fresh server and brings it to the point where it can
// serve a batch: on serve-warm, registering c432 and running the first
// (compiling) batch by its hash; on serve-cold, the first batch. It
// returns the time taken in seconds at reference host speed; the server
// becomes the measured one.
func (s *serveRun) setup() (float64, error) {
	stop := startSetup(s.r.cal.slowdownAll)
	b, err := startServer(s.cfg, s.r.tr)
	if err != nil {
		return 0, err
	}
	s.srv, s.sent = b, 0
	op := s.nextOp.Add(1) - 1
	var body []byte
	want := ""
	if s.cold {
		body, want, err = s.request(op)
		if err != nil {
			return 0, err
		}
	} else {
		status, data, err := b.post("/v1/circuits?name=c432", []byte(s.text), op)
		if err != nil {
			return 0, err
		}
		var cr serve.CircuitResponse
		if status != http.StatusOK || json.Unmarshal(data, &cr) != nil {
			return 0, fmt.Errorf("registering c432: status %d: %s", status, data)
		}
		s.hash = cr.Circuit
		i := int(op) % len(s.warm)
		body, err = json.Marshal(serve.BatchRequest{Circuit: s.hash, Vectors: s.warm[i].vectors, DigestOnly: true})
		if err != nil {
			return 0, err
		}
		want = s.warm[i].digest
	}
	status, data, err := b.post("/v1/batches", body, op)
	d := stop()
	s.sent++
	s.r.attempted++
	if err := checkResponse(status, data, err, want); err != nil {
		s.r.fail(1, "set-up batch %d: %v", op, err)
	}
	if s.r.tr != nil && !s.cold {
		// serve-warm's compile path runs only here: replay it on c432.
		if _, _, err := replayCompile(s.r.tr, op, s.text, s.poolBound()); err != nil {
			return 0, err
		}
	}
	return d, nil
}

// stopMeasured stops the measured server after checking its compile
// count: one compile in all on serve-warm, one per batch on serve-cold.
func (s *serveRun) stopMeasured() error {
	st := s.srv.srv.Stats()
	want := int64(1)
	if s.cold {
		want = s.sent
	}
	if st.Compiles != want {
		s.r.fail(1, "server compiled %d times for %d batches, want %d", st.Compiles, s.sent, want)
	}
	s.r.meta["compiles"] = st.Compiles
	s.r.meta["batches_sent"] = s.sent
	return s.srv.stop()
}

// checkResponse checks one batch response against the reference digest.
func checkResponse(status int, data []byte, err error, want string) error {
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(data))
	}
	var resp serve.BatchResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return err
	}
	if resp.Vectors != batchVecs {
		return fmt.Errorf("%d vectors served, want %d", resp.Vectors, batchVecs)
	}
	return checkDigest(resp.Digest, want)
}

// traffic runs the closed loop for d: every client sends its next batch
// as soon as the previous one is answered. It returns every completed
// batch and the wall time until the last one finished.
func (s *serveRun) traffic(d time.Duration, traced bool) ([]sample, time.Duration, error) {
	b := s.srv
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]sample, serveClients)
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op := s.nextOp.Add(1) - 1
				body, want, err := s.request(op)
				if err != nil {
					errs[c] = err
					return
				}
				t0 := time.Now()
				status, data, err := b.post("/v1/batches", body, op)
				lat := time.Since(t0)
				if traced {
					s.r.tr.rec(kClient, kNone, op, t0, lat)
				}
				smp := sample{op: op, lat: lat, want: want,
					reqBytes: len(body), respBytes: len(data),
					err: checkResponse(status, data, err, want)}
				if traced {
					smp.body, smp.resp = body, data
				}
				per[c] = append(per[c], smp)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []sample
	for c := range per {
		if errs[c] != nil {
			return nil, 0, errs[c]
		}
		all = append(all, per[c]...)
	}
	s.sent += int64(len(all))
	s.r.attempted += int64(len(all))
	for _, smp := range all {
		if smp.err != nil {
			s.r.fail(1, "batch %d: %v", smp.op, smp.err)
		}
	}
	return all, wall, nil
}

// measure is the untraced run: closed-loop bursts, each timed against
// the mean of the host slowdowns measured just before and after it.
func (s *serveRun) measure(setups []float64) error {
	r := s.r
	var (
		units         []float64
		took, rawTook []time.Duration
		lat           []time.Duration
		batches       int
	)
	before := r.cal.slowdownAll()
	deadline := time.Now().Add(r.dur)
	for time.Now().Before(deadline) {
		all, wall, err := s.traffic(trafficSegment, false)
		if err != nil {
			return err
		}
		after := r.cal.slowdownAll()
		sd := (before + after) / 2
		before = after
		for _, smp := range all {
			lat = append(lat, time.Duration(float64(smp.lat)/sd))
		}
		units = append(units, float64(len(all)))
		rawTook = append(rawTook, wall)
		took = append(took, time.Duration(float64(wall)/sd))
		batches += len(all)
	}
	bps := medianRate(units, took)
	r.set("batches_per_s", bps)
	r.set("vectors_per_s", bps*batchVecs)
	latencyMetrics(r, lat)
	r.set("setup_s", median(setups))
	r.set("peak_rss_mb", peakRSSMB())
	r.meta["raw_batches_per_s"] = medianRate(units, rawTook)
	r.meta["batches"] = batches
	r.meta["vectors"] = batches * batchVecs
	return nil
}

// measureTraced is the traced run: it rotates untraced traffic (the
// tracing-overhead baseline and the Go runtime counters), traced traffic
// (client and handler spans), and a single-threaded replay of the traced
// batches down the layer ladder.
func (s *serveRun) measureTraced() error {
	r, tr := s.r, s.r.tr
	rp := &replayer{s: s}
	var (
		gm                       goMeter
		untracedWall, tracedWall time.Duration
		nUntraced, nTraced       int64
		reqBytes, respBytes      int64
	)
	untraced := func() error {
		gm.begin()
		all, wall, err := s.traffic(segment, false)
		gm.end()
		untracedWall += wall
		nUntraced += int64(len(all))
		return err
	}
	var traced []sample
	tracedSeg := func() error {
		s.srv.tracing.Store(true)
		all, wall, err := s.traffic(segment, true)
		s.srv.tracing.Store(false)
		tracedWall += wall
		nTraced += int64(len(all))
		for _, smp := range all {
			reqBytes += int64(smp.reqBytes)
			respBytes += int64(smp.respBytes)
		}
		traced = all
		return err
	}
	deadline := time.Now().Add(r.dur)
	for round := 0; time.Now().Before(deadline); round++ {
		// Alternate which traffic segment goes first, so neither always
		// follows the replay.
		first, second := untraced, tracedSeg
		if round%2 == 1 {
			first, second = tracedSeg, untraced
		}
		if err := first(); err != nil {
			return err
		}
		if err := second(); err != nil {
			return err
		}
		end := time.Now().Add(segment)
		for _, smp := range traced {
			if !time.Now().Before(end) {
				break
			}
			if smp.err != nil {
				continue
			}
			if err := rp.replay(smp); err != nil {
				return err
			}
		}
		// Start the next traffic segment without the replay's garbage.
		runtime.GC()
	}
	if nTraced == 0 || nUntraced == 0 || rp.batches == 0 {
		return fmt.Errorf("run too short: %d traced, %d untraced, %d replayed batches", nTraced, nUntraced, rp.batches)
	}

	handler, client := tr.mean(kHandler), tr.mean(kClient)
	decode, encode, reset := tr.mean(kDecode), tr.mean(kEncode), tr.mean(kReset)
	pInit, pSim := tr.mean(kProgInit), tr.mean(kProgSim)
	eApply, uApply, uFinal := tr.mean(kEngineApply), tr.mean(kUdsimApply), tr.mean(kUdsimFinal)
	parse, analyze, compile := tr.mean(kParse), tr.mean(kAnalyze), tr.mean(kCompile)
	open, clone := tr.mean(kOpen), tr.mean(kClone)
	pool := float64(s.poolBound())

	r.set("program.init_ns_per_vec", pInit)
	r.set("program.sim_ns_per_vec", pSim)
	r.set("program.instrs_per_vec", rp.instrs/float64(rp.batches))
	r.set("program.shift_instrs", rp.shifts/float64(rp.batches))
	r.set("engine.apply_ns_per_vec", eApply)
	r.set("engine.self_ns_per_vec", eApply-pInit-pSim)
	r.set("engine.state_words", rp.words/float64(rp.batches))
	r.set("engine.reset_ns_per_batch", reset)
	r.set("engine.clone_ns", clone)
	r.set("udsim.apply_ns_per_vec", uApply)
	r.set("udsim.self_ns_per_vec", uApply-eApply)
	r.set("udsim.final_ns_per_vec", uFinal)
	r.set("udsim.open_ns", open)
	r.set("compile.parse_ns", parse)
	r.set("compile.analyze_ns", analyze)
	r.set("compile.program_ns", compile)

	engineWork := batchVecs * (uApply + uFinal)
	serveSelf := handler - decode - encode - reset - engineWork
	var compileSelf, openSelf, cloneSelf float64
	if s.cold {
		// Per batch the server also parses, opens (which compiles) and
		// fills the engine pool; at serve-warm those ran once, in set-up.
		serveSelf -= parse + open + pool*clone
		compileSelf = parse + compile
		openSelf = open - compile
		cloneSelf = pool * clone
	}
	r.set("serve.handler_ns_per_batch", handler)
	r.set("serve.decode_ns_per_batch", decode)
	r.set("serve.encode_ns_per_batch", encode)
	r.set("serve.self_ns_per_batch", serveSelf)
	st := s.srv.srv.Stats()
	r.set("serve.compiles", float64(st.Compiles))
	if n := st.CacheHits + st.CacheMisses; n > 0 {
		r.set("serve.cache_hit_ratio", float64(st.CacheHits)/float64(n))
	}
	r.set("serve.cache_evictions", float64(st.CacheEvictions))
	r.set("serve.pool_waits", float64(st.PoolWaits))
	r.set("serve.rejected", float64(st.Rejected()))
	if st.CacheMisses > 0 {
		r.set("serve.compile_ns_per_miss", float64(st.CompileNanos)/float64(st.CacheMisses))
	}
	r.set("http.roundtrip_ns_per_batch", client-handler)
	r.set("http.request_bytes_per_vec", float64(reqBytes)/float64(nTraced)/batchVecs)
	r.set("http.response_bytes_per_batch", float64(respBytes)/float64(nTraced))
	gm.report(r, nUntraced)

	perOp := float64(tracedWall) * serveClients / float64(nTraced)
	r.set("traced.overhead_ns_per_op", perOp-float64(untracedWall)*serveClients/float64(nUntraced))
	setSelf(r, perOp, map[string]float64{
		"self.program_ns_per_op": batchVecs * (pInit + pSim),
		"self.engine_ns_per_op":  reset + batchVecs*(eApply-pInit-pSim) + cloneSelf,
		"self.udsim_ns_per_op":   batchVecs*(uApply-eApply+uFinal) + openSelf,
		"self.compile_ns_per_op": compileSelf,
		"self.serve_ns_per_op":   serveSelf + decode + encode,
		"self.http_ns_per_op":    client - handler,
	})
	r.meta["batches"] = nTraced
	r.meta["replayed_batches"] = rp.batches
	return nil
}

// poolBound is the engine-pool size the server fills per program.
func (s *serveRun) poolBound() int {
	if s.cfg.PoolBound > 0 {
		return s.cfg.PoolBound
	}
	return 4 // serve.Config's documented default
}

// replayer re-runs traced batches through each layer's own entry point,
// configured as the server configures its engines (technique parallel,
// default options, an observer attached).
type replayer struct {
	s *serveRun
	// serve-warm: one facade engine and one engine-layer simulator for
	// c432, built on the first replay.
	eng  udsim.Engine
	esim *parsim.Sim

	batches               int64
	instrs, shifts, words float64
	vec                   []bool
	out                   [][]byte
}

// replayCompile replays the cold-compile path of one netlist: parse,
// analyze, compile, Open and the pool's clones. It returns the last
// clone and an identically compiled engine-layer simulator.
func replayCompile(tr *tracer, op uint32, text string, pool int) (udsim.Engine, *parsim.Sim, error) {
	t0 := time.Now()
	c, err := bench85.Parse(strings.NewReader(text), "posted")
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	if _, _, err := parsim.Analyze(c); err != nil {
		return nil, nil, err
	}
	t2 := time.Now()
	esim, err := parsim.Compile(c, parsim.Config{})
	if err != nil {
		return nil, nil, err
	}
	t3 := time.Now()
	tmpl, err := udsim.Open(c, udsim.TechParallel, udsim.WithObserver(obs.New(obs.Config{})))
	if err != nil {
		return nil, nil, err
	}
	t4 := time.Now()
	tr.rec(kParse, kHandler, op, t0, t1.Sub(t0))
	tr.rec(kAnalyze, kHandler, op, t1, t2.Sub(t1))
	tr.rec(kCompile, kHandler, op, t2, t3.Sub(t2))
	tr.rec(kOpen, kHandler, op, t3, t4.Sub(t3))
	cl, ok := tmpl.(udsim.Cloner)
	if !ok {
		return nil, nil, fmt.Errorf("engine %s is not a Cloner", tmpl.EngineName())
	}
	eng := tmpl
	for i := 0; i < pool; i++ {
		a := time.Now()
		eng, err = cl.Clone()
		if err != nil {
			return nil, nil, err
		}
		tr.rec(kClone, kHandler, op, a, time.Since(a))
	}
	esim.SetObserver(obs.New(obs.Config{}))
	return eng, esim, nil
}

// replay runs one traced batch down the ladder: JSON decode of the
// request and encode of the response, (serve-cold) the compile path,
// then reset and every vector through the facade, the engine layer and
// the bare programs. The facade's outputs are checked against the
// batch's reference digest.
func (rp *replayer) replay(smp sample) error {
	s, tr, op := rp.s, rp.s.r.tr, smp.op
	a := time.Now()
	var br serve.BatchRequest
	err := json.NewDecoder(bytes.NewReader(smp.body)).Decode(&br)
	tr.rec(kDecode, kHandler, op, a, time.Since(a))
	if err != nil {
		return err
	}
	var resp serve.BatchResponse
	if err := json.Unmarshal(smp.resp, &resp); err != nil {
		return err
	}
	a = time.Now()
	err = json.NewEncoder(io.Discard).Encode(resp)
	tr.rec(kEncode, kHandler, op, a, time.Since(a))
	if err != nil {
		return err
	}

	eng, esim := rp.eng, rp.esim
	if s.cold {
		eng, esim, err = replayCompile(tr, op, br.Bench, s.poolBound())
	} else if eng == nil {
		eng, esim, err = replayCompile(nil, op, s.text, 1)
		rp.eng, rp.esim = eng, esim
	}
	if err != nil {
		return err
	}
	init, sim, ok := udsim.Programs(eng)
	if !ok {
		return fmt.Errorf("engine %s exposes no programs", eng.EngineName())
	}
	rp.instrs += float64(len(init.Code) + len(sim.Code))
	rp.shifts += float64(init.ShiftCount() + sim.ShiftCount())
	rp.words += float64(sim.NumVars)

	a = time.Now()
	err = eng.ResetConsistent(nil)
	tr.rec(kReset, kHandler, op, a, time.Since(a))
	if err != nil {
		return err
	}
	if err := esim.ResetConsistent(nil); err != nil {
		return err
	}
	c := eng.Circuit()
	if len(rp.out) != len(br.Vectors) {
		rp.out = make([][]byte, len(br.Vectors))
	}
	for i, vs := range br.Vectors {
		rp.vec = rp.vec[:0]
		for j := 0; j < len(vs); j++ {
			rp.vec = append(rp.vec, vs[j] == '1')
		}
		if len(rp.out[i]) != len(c.Outputs) {
			rp.out[i] = make([]byte, len(c.Outputs))
		}
		a := time.Now()
		err := eng.Apply(rp.vec)
		b := time.Now()
		readFinals(eng, c.Outputs, rp.out[i])
		tr.rec(kUdsimApply, kHandler, op, a, b.Sub(a))
		tr.rec(kUdsimFinal, kHandler, op, b, time.Since(b))
		if err != nil {
			return err
		}
		a = time.Now()
		err = esim.ApplyVector(rp.vec)
		tr.rec(kEngineApply, kUdsimApply, op, a, time.Since(a))
		if err != nil {
			return err
		}
	}
	st := make([]uint64, max(init.NumVars, sim.NumVars))
	for range br.Vectors {
		runPrograms(tr, op, init, sim, st)
	}
	rp.batches++
	s.r.attempted++
	if err := checkDigest(digest(rp.out), smp.want); err != nil {
		s.r.fail(1, "replayed batch %d: %v", op, err)
	}
	return nil
}

// benchServer is an in-process service behind real loopback HTTP.
type benchServer struct {
	srv     *serve.Server
	hs      *http.Server
	url     string
	client  *http.Client
	done    chan struct{} // closed when Serve returns
	tracing atomic.Bool   // handler spans are recorded while set
}

func startServer(cfg serve.Config, tr *tracer) (*benchServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &benchServer{srv: serve.New(cfg), done: make(chan struct{})}
	var h http.Handler = b.srv.Handler()
	if tr != nil {
		h = &spanHandler{next: h, tr: tr, on: &b.tracing}
	}
	b.hs = &http.Server{Handler: h}
	b.url = "http://" + ln.Addr().String()
	b.client = &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: serveClients,
		MaxConnsPerHost:     serveClients,
		DisableCompression:  true,
	}}
	go func() {
		defer close(b.done)
		b.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return b, nil
}

// stop shuts the HTTP server down, drains the service and waits for the
// serving goroutine to return.
func (b *benchServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := b.hs.Shutdown(ctx)
	<-b.done
	if derr := b.srv.Drain(ctx); err == nil {
		err = derr
	}
	b.client.CloseIdleConnections()
	return err
}

// post sends one request and returns the status and whole response body.
func (b *benchServer) post(path string, body []byte, op uint32) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, b.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set(opHeader, strconv.FormatUint(uint64(op), 10))
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// spanHandler records a span around the service handler for every
// request while tracing is on, tagged with the client's operation
// number so it pairs with the client's span.
type spanHandler struct {
	next http.Handler
	tr   *tracer
	on   *atomic.Bool
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, req)
		return
	}
	op, _ := strconv.ParseUint(req.Header.Get(opHeader), 10, 32)
	t0 := time.Now()
	h.next.ServeHTTP(w, req)
	h.tr.rec(kHandler, kClient, uint32(op), t0, time.Since(t0))
}
