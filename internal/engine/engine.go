// Package engine is the runtime both compiled techniques share.
//
// Maurer's PC-set method and parallel technique compile to the same
// artifact: an initialization program and a straight-line simulation
// program over one word array, run once per input vector (Figs. 4 and
// 5). They differ only in the compiler and the variable layout. A Core
// owns that artifact — the state arena and the init/sim program pair —
// and everything that executes, guards, observes and optimizes it:
// strategy dispatch (sequential, level-sharded, vector-batch,
// activity-gated), the guard surface (context-aware applies,
// checkpoints, quarantine), the runtime observer, dead-store
// elimination, cloning and the zero-delay reset oracle.
//
// A technique package (parsim, pcset) contributes its compiler and the
// layout hooks of the Technique interface. Every hook runs O(1) times
// per vector; the Core never calls through the interface per net or
// per instruction, so the dispatch loop (program.Run) stays the whole
// per-vector cost.
package engine

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"udsim/internal/circuit"
	"udsim/internal/levelize"
	"udsim/internal/obs"
	"udsim/internal/program"
	"udsim/internal/refsim"
	"udsim/internal/resilience"
	"udsim/internal/shard"
	"udsim/internal/verify"
)

// Technique is the seam between the shared runtime and one compiled
// technique's variable layout.
type Technique interface {
	// BeginVector runs first in every vector application, before the
	// init program overwrites the arena (the parallel technique captures
	// its previous finals here).
	BeginVector()
	// WriteInputs writes one input vector into the arena, between the
	// init and simulation programs.
	WriteInputs(inputs []bool)
	// ResetSettled writes the zero-delay settled state (one value per
	// net of the circuit) into the arena and the auxiliary state.
	ResetSettled(settled []bool)
	// FinalSlot returns the arena word and bit mask holding net n's
	// final value — the coordinate a chaos corruption injector must hit
	// for the flip to stay output-visible.
	FinalSlot(n circuit.NetID) (slot int, mask uint64)
	// InputField describes how primary input i lands in the arena: the
	// first word of its field, the field's word count, and the bit
	// offset below which the field holds the previous vector's value
	// (0 or negative: the whole field takes the new value).
	InputField(i int) (base, words int32, split int)
	// Trace returns net n's value at time t of the last vector and
	// whether that value is observable.
	Trace(n circuit.NetID, t int) (v, ok bool)
	// ObserveActivity scans the last vector's waveforms into the
	// observer's activity profile, allocation-free.
	ObserveActivity(o *obs.Observer)
	// LayoutSpec returns the static-verification spec of the layout and
	// the Core's current programs, without a shard plan (Spec adds it).
	LayoutSpec() *verify.Spec
	// Rebind returns a technique sharing the receiver's immutable
	// layout, bound to the clone c: views into the auxiliary state must
	// be re-derived from c.Aux().
	Rebind(c *Core) Technique
}

// Config describes a compiled artifact to New.
type Config struct {
	// Name labels the technique in faults, observer shapes and errors
	// ("parallel", "pcset").
	Name string
	// Circuit and Analysis are the normalized circuit and the
	// levelization the compiler used.
	Circuit  *circuit.Circuit
	Analysis *levelize.Analysis
	// Init and Sim are the per-vector initialization and simulation
	// programs; Sim.NumVars sizes the arena.
	Init, Sim *program.Program
	// ScratchStart is the first non-persistent (scratch) arena slot;
	// Sim.NumVars when the layout has no scratch region.
	ScratchStart int32
	// Aux is the number of booleans of per-vector state the layout keeps
	// outside the arena (the parallel technique's previous finals and
	// previous primary inputs). Checkpoints and clones carry it.
	Aux int
}

// Core is the compiled-engine runtime over one technique's layout. Like
// every engine it is not safe for concurrent use; Clone gives each
// goroutine its own.
type Core struct {
	name         string
	c            *circuit.Circuit
	a            *levelize.Analysis
	init, sim    *program.Program
	scratchStart int32
	tech         Technique

	st  []uint64
	aux []bool

	// Final-value coordinates per net, resolved once from
	// Technique.FinalSlot so Final is a load, a shift and a mask.
	fslot []int32
	fbit  []uint8

	// Multicore execution (ConfigureExec): a sharded engine, or a worker
	// pool plus clones for vector batching; nil/Sequential by default.
	exec     *shard.Engine
	pool     *shard.Pool
	clones   []*Core
	strategy shard.Strategy

	// Activity gating: non-nil exactly when strategy is
	// shard.ActivityGated. fuseLevels makes ConfigureExec build plans
	// with the barrier-deleting level-fusion pass (SetLevelFusion).
	gate       Gate
	fuseLevels bool

	// Runtime observability (SetObserver); nil = disabled, and every
	// hot-path hook is behind a nil check. Clones share the pointer, so
	// vector-batch blocks feed one set of counters.
	obs *obs.Observer

	ref *refsim.Evaluator // lazily built zero-delay oracle for ResetConsistent

	// Guarded execution (guard.go): fault injector and watchdog budgets
	// forwarded to the sharded engine, consulted only on the ctx paths.
	inj         resilience.Injector
	levelBudget time.Duration
	guardGrace  time.Duration
}

// New builds the runtime for a compiled artifact. tech must already
// answer FinalSlot (its layout is complete); the arena and the
// auxiliary state start zeroed.
func New(cfg Config, tech Technique) *Core {
	n := cfg.Circuit.NumNets()
	c := &Core{
		name:         cfg.Name,
		c:            cfg.Circuit,
		a:            cfg.Analysis,
		init:         cfg.Init,
		sim:          cfg.Sim,
		scratchStart: cfg.ScratchStart,
		tech:         tech,
		st:           make([]uint64, cfg.Sim.NumVars),
		aux:          make([]bool, cfg.Aux),
		fslot:        make([]int32, n),
		fbit:         make([]uint8, n),
	}
	for i := 0; i < n; i++ {
		slot, mask := tech.FinalSlot(circuit.NetID(i))
		c.fslot[i], c.fbit[i] = int32(slot), uint8(bits.TrailingZeros64(mask))
	}
	return c
}

// Name returns the technique label ("parallel", "pcset").
func (c *Core) Name() string { return c.name }

// Technique returns the layout hooks the Core runs on.
func (c *Core) Technique() Technique { return c.tech }

// Circuit returns the (normalized) circuit being simulated.
func (c *Core) Circuit() *circuit.Circuit { return c.c }

// Analysis returns the levelization analysis used by the compiler.
func (c *Core) Analysis() *levelize.Analysis { return c.a }

// Depth returns the circuit depth in gate delays.
func (c *Core) Depth() int { return c.a.Depth }

// Programs returns the per-vector initialization and simulation programs.
func (c *Core) Programs() (init, sim *program.Program) { return c.init, c.sim }

// CodeSize returns the total number of generated instructions.
func (c *Core) CodeSize() int { return len(c.init.Code) + len(c.sim.Code) }

// ShiftCount returns the number of shift instructions in the simulation
// program — the executable counterpart of Fig. 21's retained shifts.
func (c *Core) ShiftCount() int { return c.sim.ShiftCount() }

// NumVars returns the number of generated variables (state words,
// scratch included) — the paper's measure of a technique's space cost.
func (c *Core) NumVars() int { return c.sim.NumVars }

// State returns the state arena. The slice is replaced by DetachState
// and may be regrown by ConfigureExec, so callers must not retain it.
func (c *Core) State() []uint64 { return c.st }

// Aux returns the technique's auxiliary per-vector state (see
// Config.Aux). Unlike the arena it is never reallocated.
func (c *Core) Aux() []bool { return c.aux }

// Spec builds the static-verification spec for the compiled programs.
// When a sharded engine is configured it exports the static plan so rule
// V008 checks the partition against the sequential dataflow.
func (c *Core) Spec() *verify.Spec {
	spec := c.tech.LayoutSpec()
	if c.exec != nil {
		spec.Shards = c.exec.Plan().Assignment()
	}
	return spec
}

// FinalSlot returns the state-word index and bit mask holding net n's
// final value (see Technique.FinalSlot).
func (c *Core) FinalSlot(n circuit.NetID) (slot int, mask uint64) { return c.tech.FinalSlot(n) }

// Final returns the final value of a net (its value at time Depth).
func (c *Core) Final(n circuit.NetID) bool { return c.st[c.fslot[n]]>>c.fbit[n]&1 == 1 }

// ResetConsistent initializes the state to the zero-delay settled state
// for the given input assignment (nil = all zeros).
func (c *Core) ResetConsistent(inputs []bool) error {
	if inputs == nil {
		inputs = make([]bool, len(c.c.Inputs))
	}
	if c.ref == nil {
		var err error
		if c.ref, err = refsim.NewEvaluator(c.c); err != nil {
			return err
		}
	}
	settled, err := c.ref.Evaluate(inputs)
	if err != nil {
		return err
	}
	c.tech.ResetSettled(settled)
	c.invalidateGate()
	return nil
}

// ApplyVector simulates one input vector, computing the complete
// unit-delay history of every net.
func (c *Core) ApplyVector(inputs []bool) error { return c.apply(nil, inputs) }

// apply is the shared ApplyVector body; a nil ctx selects the unguarded
// hot path (runSim), a non-nil ctx the guarded one (runSimCtx).
func (c *Core) apply(ctx context.Context, inputs []bool) error {
	if len(inputs) != len(c.c.Inputs) {
		return fmt.Errorf("%s: %d input values for %d primary inputs", c.name, len(inputs), len(c.c.Inputs))
	}
	c.tech.BeginVector()
	g := c.gate
	if g != nil {
		c.runGatedInit(g, inputs)
	} else {
		c.RunInit(1)
	}
	c.tech.WriteInputs(inputs)
	if g != nil {
		g.Flatten()
	}
	if ctx == nil {
		c.RunSim()
	} else if err := c.runSimCtx(ctx); err != nil {
		return err
	}
	if c.obs.ActivityEnabled() {
		c.tech.ObserveActivity(c.obs)
	}
	return nil
}

// RunInit executes the initialization program, booking it (and the
// given vector count) with the observer when one is attached.
func (c *Core) RunInit(vectors int64) {
	if o := c.obs; o != nil {
		o.AddVectors(vectors)
		t0 := time.Now()
		c.init.Run(c.st)
		o.AddInit(time.Since(t0))
		return
	}
	c.init.Run(c.st)
}

// runGatedInit is the activity-gated init: decide which gate groups
// this vector can touch (before WriteInputs overwrites the previous
// inputs), then run the init program minus the skipped nets.
func (c *Core) runGatedInit(g Gate, inputs []bool) {
	o := c.obs
	if o == nil {
		g.Decide(inputs)
		g.RunInit()
		return
	}
	o.AddVectors(1)
	t0 := time.Now()
	skipped := g.Decide(inputs)
	o.AddGatingNanos(time.Since(t0))
	o.AddShardsSkipped(skipped)
	t1 := time.Now()
	g.RunInit()
	o.AddInit(time.Since(t1))
}

// RunSim executes the simulation program under the configured strategy.
// With an observer attached it brackets the run with monotonic-clock
// reads; the sequential path additionally books the whole program as
// level 0 of a 1×1 grid so the snapshot's cell/instruction totals stay
// consistent across strategies (the sharded engine books its own
// per-level cells).
func (c *Core) RunSim() {
	o := c.obs
	if o == nil {
		if c.exec != nil {
			c.exec.Run(c.st)
			return
		}
		c.sim.Run(c.st)
		return
	}
	t0 := time.Now()
	if c.exec != nil {
		c.exec.Run(c.st)
		o.AddRun(time.Since(t0))
		return
	}
	c.sim.Run(c.st)
	d := time.Since(t0)
	o.AddRun(d)
	o.AddLevel(0, 0, d, len(c.sim.Code))
}
