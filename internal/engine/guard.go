package engine

import (
	"context"
	"fmt"
	"time"

	"udsim/internal/resilience"
)

// Guarded execution: context-aware apply variants that convert panics,
// stalls and cancellations into typed *resilience.EngineFault values,
// plus the checkpoint/rollback and quarantine primitives the facade's
// guarded engine builds its degradation ladder from. The unguarded
// ApplyVector/ApplyStream paths are untouched.

// SetGuard configures the guarded-path budgets: budget is the sharded
// engine's per-level barrier-stall budget (0 disables the watchdog) and
// grace bounds how long a faulted sharded run waits for in-flight
// workers before abandoning them. Forwarded through ConfigureExec, so
// the order of the two calls does not matter.
func (c *Core) SetGuard(budget, grace time.Duration) {
	c.levelBudget, c.guardGrace = budget, grace
	if c.exec != nil {
		c.exec.SetGuard(budget, grace)
	}
}

// SetInjector attaches a fault injector consulted on the guarded paths
// only (once per run, per (level, shard) when sharded); nil detaches.
func (c *Core) SetInjector(inj resilience.Injector) {
	c.inj = inj
	if c.exec != nil {
		c.exec.SetInjector(inj)
	}
}

// ArmGuard arms the sharded engine's watchdog once for a whole guarded
// vector batch, so the per-vector applies skip the arm/disarm handshake
// with the watchdog goroutine. DisarmGuard must be called when the
// batch ends, before Quarantine or Close. A no-op under sequential
// execution (no barrier to watch).
func (c *Core) ArmGuard(ctx context.Context) {
	if c.exec != nil {
		c.exec.ArmStream(ctx)
	}
}

// DisarmGuard ends a batch-level ArmGuard; a no-op otherwise.
func (c *Core) DisarmGuard() {
	if c.exec != nil {
		c.exec.DisarmStream()
	}
}

// ApplyVectorCtx is ApplyVector under guard: panics anywhere in the
// vector application become a FaultPanic, ctx cancellation/deadline a
// FaultCanceled/FaultDeadline, and a sharded barrier stuck past the
// SetGuard budget a FaultDeadline — always a typed *EngineFault, never a
// crash or hang. After a fault the engine's state is undefined until
// Restore (or ResetConsistent); a sharded engine that faulted is
// poisoned and must be quarantined before the next vector.
func (c *Core) ApplyVectorCtx(ctx context.Context, inputs []bool) (err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cerr := ctx.Err(); cerr != nil {
		return resilience.FromContext(c.name, cerr)
	}
	defer func() {
		if r := recover(); r != nil {
			err = resilience.FromPanic(c.name, 0, 0, -1, r)
		}
	}()
	return c.apply(ctx, inputs)
}

// ApplyStreamCtx applies a stream of vectors with per-vector context
// checks, stopping at the first fault. Unlike ApplyStream it always runs
// the receiver's one coherent stream — the vector-batch strategy's
// concurrent blocks would tear the checkpoint/rollback semantics the
// guarded engine needs.
func (c *Core) ApplyStreamCtx(ctx context.Context, vecs [][]bool) error {
	if err := c.checkStream(vecs); err != nil {
		return err
	}
	for _, v := range vecs {
		if err := c.ApplyVectorCtx(ctx, v); err != nil {
			return err
		}
	}
	return nil
}

// runSimCtx executes the simulation program under the configured
// strategy like RunSim, but guarded. Sequential execution relies on the
// ApplyVectorCtx recover for panic isolation; sharded execution
// delegates to the engine's RunCtx.
func (c *Core) runSimCtx(ctx context.Context) error {
	o := c.obs
	if c.exec != nil {
		if o == nil {
			return c.exec.RunCtx(ctx, c.st)
		}
		t0 := time.Now()
		err := c.exec.RunCtx(ctx, c.st)
		o.AddRun(time.Since(t0))
		return err
	}
	if err := ctx.Err(); err != nil {
		return resilience.FromContext(c.name, err)
	}
	if inj := c.inj; inj != nil {
		inj.BeginRun()
		inj.AtLevel(0, 0, c.st)
	}
	if o == nil {
		c.sim.Run(c.st)
		return nil
	}
	t0 := time.Now()
	c.sim.Run(c.st)
	d := time.Since(t0)
	o.AddRun(d)
	o.AddLevel(0, 0, d, len(c.sim.Code))
	return nil
}

// Checkpoint is a saved copy of an engine's mutable per-vector state:
// the arena and the technique's auxiliary state. The buffers are reused
// across Save calls, so batch-granularity checkpointing stays
// allocation-free in steady state.
type Checkpoint struct {
	st    []uint64
	aux   []bool
	valid bool
}

// Save copies the engine's mutable state into ck.
func (c *Core) Save(ck *Checkpoint) {
	ck.st = append(ck.st[:0], c.st...)
	ck.aux = append(ck.aux[:0], c.aux...)
	ck.valid = true
}

// Restore rewinds the engine to a saved checkpoint. The checkpoint
// stays valid (a batch can be rolled back more than once).
func (c *Core) Restore(ck *Checkpoint) error {
	if !ck.valid {
		return fmt.Errorf("%s: restoring an empty checkpoint", c.name)
	}
	c.st = append(c.st[:0], ck.st...)
	copy(c.aux, ck.aux)
	// The restored state's relation to the gating bookkeeping is unknown
	// (the rolled-back vectors may have flattened or dirtied fields), so
	// the next gated vector must run everything.
	c.invalidateGate()
	return nil
}

// DetachState replaces the state arena with a fresh one of the same
// size. Required after a quarantine that leaked a wedged worker: the
// abandoned goroutine may still write through its stale slice, so the
// old array must never be read again — the caller restores content from
// a checkpoint (or ResetConsistent) rather than copying it over.
func (c *Core) DetachState() {
	c.st = make([]uint64, len(c.st))
	c.invalidateGate()
}

// Quarantine releases the configured execution strategy after a fault
// and reverts to sequential execution; the engine itself remains
// usable. It reports whether an in-flight worker had to be abandoned, in
// which case the caller must DetachState before touching the state
// again.
func (c *Core) Quarantine() (leaked bool) {
	if c.exec != nil {
		leaked = c.exec.Leaked()
	}
	c.Close()
	return leaked
}
