package udsim

import (
	"fmt"
	"time"

	"udsim/internal/native"
	"udsim/internal/resilience"
)

// Native backend: Open(c, tech, WithNativeBackend()) — or WithExec with
// ExecNative — compiles the circuit in process as usual, then `go
// build`s the engine's validated codegen output out of process and runs
// it as a supervised subprocess speaking a length-prefixed, CRC-checked
// vector protocol. The in-process engine stays alive as the guarded
// fallback: any child failure (crash, stall, truncated or corrupted
// frame) becomes a typed *EngineFault, the supervisor respawns with
// capped exponential backoff, and after GuardPolicy.MaxRetries the
// child is quarantined and every subsequent vector runs in process —
// never a hang, never a wrong bit.
//
// Settled primary-output values come back from the child; everything
// else (waveforms, non-output finals) is answered by lazily re-applying
// the last vector on the in-process engine — settled values of a
// combinational circuit depend only on the current vector, so the two
// views agree wherever both are defined. (Intermediate waveform steps
// of the lazy re-apply reflect a single-vector history, as after a
// reset.)

// nativeOpts carries the native-backend knobs inside options. The chaos
// fields are unexported drill seams used by the root chaos tests and
// cmd/udchaos.
type nativeOpts struct {
	set     bool
	pol     GuardPolicy
	polSet  bool
	chaos   native.ChildChaos
	disrupt native.Disruptor
	goTool  string
}

// nativeMode reports whether Open should route to the native backend:
// WithNativeBackend/WithNativePolicy, or WithExec(ExecNative, ...).
func (o *options) nativeMode() bool {
	return o.nat.set || (o.execSet && o.exec == ExecNative)
}

// checkNative rejects option combinations the native backend cannot
// honor and strips the intercepted ExecNative strategy so the
// in-process engine is configured sequentially underneath.
func (o *options) checkNative(technique Technique) error {
	switch technique {
	case TechParallel, TechPCSet:
	default:
		return fmt.Errorf("udsim: the native backend requires a compiled technique (parallel or pcset), not %v", technique)
	}
	if o.guardSet || o.inject != nil {
		return fmt.Errorf("udsim: WithGuard cannot be combined with the native backend (the subprocess supervisor is the guard)")
	}
	if o.resub {
		return fmt.Errorf("udsim: WithResubstitution cannot be combined with the native backend")
	}
	if o.execSet && o.exec == ExecNative {
		// Remember the mode before stripping the strategy: nativeMode()
		// must keep answering true after the in-process engine is
		// configured sequentially underneath.
		o.nat.set = true
		o.exec, o.execSet, o.execWorkers = ExecSequential, false, 0
	}
	if !o.nat.polSet {
		o.nat.pol = DefaultGuardPolicy()
	}
	return nil
}

// WithNativeBackend runs the engine's validated codegen output as a
// supervised native-code subprocess with the in-process engine as
// guarded fallback (see the package comment above), under
// DefaultGuardPolicy. Open then returns a *NativeSim. Compiled
// techniques only; requires a go toolchain on PATH at Open time.
func WithNativeBackend() Option {
	return func(o *options) { o.nat.set = true }
}

// WithNativePolicy is WithNativeBackend with explicit supervision
// knobs: LevelBudget bounds each batch exchange, MaxRetries bounds
// respawns before quarantine, RetryBackoff paces them, and
// CrossCheckEvery samples the child's outputs against the in-process
// engine.
func WithNativePolicy(p GuardPolicy) Option {
	return func(o *options) { o.nat.set, o.nat.pol, o.nat.polSet = true, p, true }
}

// Native chaos types, re-exported for drills (cmd/udchaos) and tests —
// the native analogue of WithFaultInjection's injector seam.
type (
	// NativeChildChaos bakes deterministic misbehavior into the
	// generated child: crash, wedge, truncate, corrupt or flood at a
	// 1-based batch coordinate. The zero value is a well-behaved child.
	NativeChildChaos = native.ChildChaos
	// NativeDisruptor attacks a well-behaved child from the parent side
	// of the protocol, once per batch (kill mid-batch, corrupt the
	// outgoing frame). See internal/native for implementations.
	NativeDisruptor = native.Disruptor
)

// WithNativeChaos bakes deterministic misbehavior into the generated
// child (drills and tests only; implies WithNativeBackend).
func WithNativeChaos(ch NativeChildChaos) Option {
	return func(o *options) { o.nat.set, o.nat.chaos = true, ch }
}

// WithNativeDisruptor attaches a parent-side chaos injector to the
// batch path (drills and tests only; implies WithNativeBackend).
func WithNativeDisruptor(d NativeDisruptor) Option {
	return func(o *options) { o.nat.set, o.nat.disrupt = true, d }
}

// wrapNative builds the native backend over a compiled engine.
func wrapNative(base *CompiledSim, o options) (Engine, error) {
	init, sim := base.s.Programs()
	c := base.s.Circuit()
	technique := base.s.Name()
	sup, err := native.New(native.Config{
		Engine:      "native/" + technique,
		Technique:   technique,
		Layout:      native.LayoutOf(base.s),
		Init:        init,
		Sim:         sim,
		CircuitHash: native.HashBench(c),
		Policy:      o.nat.pol,
		GoTool:      o.nat.goTool,
		Chaos:       o.nat.chaos,
		Disrupt:     o.nat.disrupt,
		Obs:         o.observer,
	})
	if err != nil {
		base.Close()
		return nil, fmt.Errorf("udsim: native backend: %w", err)
	}
	n := &NativeSim{
		base:   base,
		sup:    sup,
		pol:    o.nat.pol,
		obs:    o.observer,
		outIdx: make(map[NetID]int, len(c.Outputs)),
	}
	for i, id := range c.Outputs {
		n.outIdx[id] = i
	}
	return n, nil
}

// NativeSim is a compiled engine whose vectors run in a supervised
// native-code subprocess — the result of Open with WithNativeBackend.
// It implements the same optional interfaces as the engine it wraps;
// waveform reads and non-output finals are answered by the in-process
// engine after a lazy re-apply of the last vector.
//
// Like the engines it wraps, a NativeSim is not safe for concurrent
// use.
type NativeSim struct {
	base *CompiledSim
	sup  *native.Supervisor
	pol  GuardPolicy
	obs  *Observer

	outIdx  map[NetID]int
	po      []byte // packed child outputs of the last vector, nil if none
	lastVec []bool // last applied vector, for the lazy base re-apply
	synced  bool   // base state reflects lastVec

	applied   int64
	degraded  bool
	lastFault *EngineFault
}

// EngineName identifies the wrapped configuration.
func (n *NativeSim) EngineName() string { return n.base.EngineName() + "+native" }

// Circuit returns the (normalized) circuit.
func (n *NativeSim) Circuit() *Circuit { return n.base.Circuit() }

// Depth returns the circuit depth in gate delays.
func (n *NativeSim) Depth() int { return n.base.Depth() }

// ResetConsistent initializes the in-process state (nil = all-zeros
// assignment) and forgets the child's last outputs. The child itself
// needs no reset: it recomputes every vector from the init program.
func (n *NativeSim) ResetConsistent(inputs []bool) error {
	n.po, n.lastVec, n.synced = nil, nil, true
	return n.base.ResetConsistent(inputs)
}

// Apply simulates one input vector — a one-vector batch.
func (n *NativeSim) Apply(vec []bool) error { return n.ApplyStream([][]bool{vec}) }

// ApplyStream simulates a vector stream on the native child. On a child
// fault the supervisor respawns and replays the batch (settled outputs
// depend only on the vector, so replay is safe); if the child is
// quarantined the whole batch falls back to the in-process engine and
// the stream still completes with identical settled outputs — the fault
// is recorded on LastFault and the observer, not surfaced.
func (n *NativeSim) ApplyStream(vecs [][]bool) error {
	if len(vecs) == 0 {
		return nil
	}
	if n.degraded {
		return n.applyFallback(vecs)
	}
	res, err := n.sup.RunBatch(vecs)
	if err != nil {
		f, ok := resilience.AsFault(err)
		if !ok {
			return err
		}
		n.lastFault = f
		n.degraded = true
		if n.obs != nil {
			n.obs.AddNativeFallback()
		}
		return n.applyFallback(vecs)
	}
	last := vecs[len(vecs)-1]
	n.po = res[len(res)-1]
	n.lastVec = append(n.lastVec[:0], last...)
	n.synced = false
	before := n.applied
	n.applied += int64(len(vecs))
	if k := int64(n.pol.CrossCheckEvery); k > 0 && before/k != n.applied/k {
		return n.crossCheck()
	}
	return nil
}

// applyFallback runs a batch on the in-process engine (the degraded
// path).
func (n *NativeSim) applyFallback(vecs [][]bool) error {
	if err := n.base.ApplyStream(vecs); err != nil {
		return err
	}
	n.po = nil
	n.lastVec = append(n.lastVec[:0], vecs[len(vecs)-1]...)
	n.synced = true
	n.applied += int64(len(vecs))
	return nil
}

// crossCheck replays the last vector on the in-process engine and
// compares every primary output against the child's bits. A mismatch is
// silent corruption in the native path: the engine degrades to the
// (correct) in-process results permanently and records a
// FaultCorruption — the caller keeps bit-identical outputs throughout.
func (n *NativeSim) crossCheck() error {
	if n.obs != nil {
		n.obs.AddGuardCrossCheck()
	}
	n.syncBase()
	for _, id := range n.Circuit().Outputs {
		if n.base.Final(id) != native.Bit(n.po, n.outIdx[id]) {
			f := resilience.Corruption(n.EngineName(), int(id))
			n.lastFault = f
			n.degraded = true
			n.po = nil
			if n.obs != nil {
				n.obs.AddGuardMismatch()
				n.obs.AddGuardFault(f.Kind)
				n.obs.AddNativeFallback()
			}
			return nil
		}
	}
	return nil
}

// syncBase lazily brings the in-process engine up to the last vector.
func (n *NativeSim) syncBase() {
	if n.synced || n.lastVec == nil {
		return
	}
	n.base.Apply(n.lastVec)
	n.synced = true
}

// Final returns the settled value of a net: primary outputs straight
// from the child's last results frame, everything else from the
// in-process engine after a lazy re-apply.
func (n *NativeSim) Final(id NetID) bool {
	if n.po != nil {
		if i, ok := n.outIdx[id]; ok {
			return native.Bit(n.po, i)
		}
	}
	n.syncBase()
	return n.base.Final(id)
}

// ValueAt returns net id's value at time t from the in-process engine
// after a lazy re-apply of the last vector (the child keeps no
// waveforms).
func (n *NativeSim) ValueAt(id NetID, t int) (bool, bool) {
	n.syncBase()
	return n.base.ValueAt(id, t)
}

// BlockFinal returns the final value of a net; the native backend never
// uses vector batching, so only block 0 is meaningful.
func (n *NativeSim) BlockFinal(k int, id NetID) bool {
	if k == 0 {
		return n.Final(id)
	}
	return n.base.BlockFinal(k, id)
}

// ExecStrategy returns ExecNative while the child serves and the
// fallback engine's strategy after a quarantine degraded it.
func (n *NativeSim) ExecStrategy() ExecStrategy {
	if n.degraded {
		return n.base.ExecStrategy()
	}
	return ExecNative
}

// CodeSize returns the number of compiled straight-line instructions.
func (n *NativeSim) CodeSize() int { return n.base.CodeSize() }

// Observe attaches a runtime observer (nil detaches): the in-process
// engine's counters, the supervisor's udsim_native_* counters and the
// facade's cross-check counters all feed it.
func (n *NativeSim) Observe(o *Observer) {
	n.obs = o
	n.sup.SetObserver(o)
	n.base.Observe(o)
}

// Snapshot returns the attached observer's counters, nil without one.
func (n *NativeSim) Snapshot() *Snapshot { return n.base.Snapshot() }

// compiled implements compiledEngine.
func (n *NativeSim) compiled() *CompiledSim { return n.base }

// Close shuts the child down, removes its build workspace and releases
// the in-process engine.
func (n *NativeSim) Close() {
	n.sup.Close()
	n.base.Close()
}

// Degraded reports whether the native child has been quarantined (or a
// cross-check mismatch retired it) and vectors now run in process.
func (n *NativeSim) Degraded() bool { return n.degraded }

// LastFault returns the most recent fault the supervisor or the
// cross-check recorded — including faults recovered by respawn or
// fallback and never surfaced — or nil.
func (n *NativeSim) LastFault() *EngineFault {
	if f := n.sup.LastFault(); f != nil && n.lastFault == nil {
		return f
	}
	return n.lastFault
}

// Policy returns the supervision configuration.
func (n *NativeSim) Policy() GuardPolicy { return n.pol }

// Supervisor state names the child's lifecycle position
// ("serving", "quarantined", ...) for status surfaces.
func (n *NativeSim) SupervisorState() string { return n.sup.State().String() }

// BuildTime returns the out-of-process `go build` wall time.
func (n *NativeSim) BuildTime() time.Duration { return n.sup.BuildTime() }

// Ping sends a liveness probe to the child and waits for the echo.
func (n *NativeSim) Ping() error {
	if n.degraded {
		return n.LastFault()
	}
	return n.sup.Ping()
}

// Interface conformance.
var (
	_ Engine       = (*NativeSim)(nil)
	_ Tracer       = (*NativeSim)(nil)
	_ Closer       = (*NativeSim)(nil)
	_ Streamer     = (*NativeSim)(nil)
	_ Introspector = (*NativeSim)(nil)
	_ Observable   = (*NativeSim)(nil)
)
