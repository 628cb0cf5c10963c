package engine

import (
	"fmt"
	"runtime"

	"udsim/internal/circuit"
	"udsim/internal/shard"
)

// Gater is implemented by techniques whose layout supports the
// activity-gated strategy (shard.ActivityGated).
type Gater interface {
	// NewGate derives the gating structure for a configured plan, or
	// explains why this compile cannot be gated.
	NewGate(plan *shard.Plan) (Gate, error)
}

// Gate is the per-vector side of activity gating: which gate groups a
// vector can touch, and the technique's work around the skipped ones.
type Gate interface {
	// Attach hands the engine its per-cell and per-level gate arrays.
	Attach(e *shard.Engine)
	// Decide computes this vector's group activity from the
	// primary-input diff and returns the number of non-empty cells
	// skipped. It runs before WriteInputs.
	Decide(inputs []bool) (skipped int64)
	// RunInit runs the init program minus the skipped nets.
	RunInit()
	// Flatten rewrites skipped nets to their settled values; it runs
	// after WriteInputs and before the simulation program.
	Flatten()
	// Invalidate forces the next vector to run everything.
	Invalidate()
	// Levels reports the cumulative tally since ConfigureExec: vectors
	// decided, levels executed and levels skipped.
	Levels() (vectors, run, skipped int64)
}

// ConfigureExec selects the execution strategy for the simulation program
// and returns the resolved strategy (Auto resolves via the shard plan's
// recommendation). workers <= 0 means GOMAXPROCS. Sharded and
// activity-gated execution are bit-identical to sequential; VectorBatch
// changes only ApplyStream, which then runs contiguous vector blocks as
// independent substreams. Reconfiguring releases the previous strategy's
// workers.
func (c *Core) ConfigureExec(strategy shard.Strategy, workers int) (shard.Strategy, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var plan *shard.Plan
	if strategy == shard.Auto || strategy == shard.Sharded || strategy == shard.ActivityGated {
		var err error
		if c.fuseLevels {
			plan, err = shard.PartitionFused(c.sim, c.scratchStart, workers,
				shard.FuseOptions{BarrierOps: shard.CalibrateBarrier(workers)})
		} else {
			plan, err = shard.Partition(c.sim, c.scratchStart, workers)
		}
		if err != nil {
			return 0, fmt.Errorf("%s: %w", c.name, err)
		}
		// The measured barrier cost feeds both the fusion budget above and
		// the plan's speedup model, so Auto's recommendation reflects this
		// machine rather than the static default.
		plan.SetBarrierCost(shard.CalibrateBarrier(workers))
	}
	if strategy == shard.Auto {
		strategy = plan.Recommend()
	}
	c.Close()
	switch strategy {
	case shard.Sequential:
	case shard.Sharded, shard.ActivityGated:
		var gate Gate
		if strategy == shard.ActivityGated {
			gt, ok := c.tech.(Gater)
			if !ok {
				return 0, fmt.Errorf("%s: cannot configure strategy %v", c.name, strategy)
			}
			var err error
			if gate, err = gt.NewGate(plan); err != nil {
				return 0, err
			}
		}
		if need := plan.StateSize(); need > len(c.st) {
			st := make([]uint64, need)
			copy(st, c.st)
			c.st = st
		}
		c.exec = shard.NewEngine(plan)
		c.exec.SetGuard(c.levelBudget, c.guardGrace)
		c.exec.SetInjector(c.inj)
		if gate != nil {
			gate.Attach(c.exec)
			c.gate = gate
		}
	case shard.VectorBatch:
		c.pool = shard.NewPool(workers)
	default:
		return 0, fmt.Errorf("%s: cannot configure strategy %v", c.name, strategy)
	}
	c.strategy = strategy
	if c.obs != nil {
		// Re-attach: the shape (levels × workers) just changed, so the
		// observer's cell grid must be resized — which resets counters
		// and starts a new observation window.
		c.SetObserver(c.obs)
	}
	return strategy, nil
}

// ExecStrategy returns the configured execution strategy (Sequential
// until ConfigureExec succeeds).
func (c *Core) ExecStrategy() shard.Strategy { return c.strategy }

// SetLevelFusion makes subsequent ConfigureExec calls build plans with
// the barrier-deleting level-fusion pass (shard.PartitionFused): sparse
// adjacent levels merge and cheap producer cones are replicated across
// shards so the merged levels need no barrier between them. Fused plans
// remain bit-identical to sequential execution (rules V008/V012/V015
// check the augmented stream). Takes effect at the next ConfigureExec.
func (c *Core) SetLevelFusion(on bool) { c.fuseLevels = on }

// LevelFusion reports whether level fusion is enabled for plan building.
func (c *Core) LevelFusion() bool { return c.fuseLevels }

// ExecPlan returns the sharded engine's plan, or nil when not sharded.
func (c *Core) ExecPlan() *shard.Plan {
	if c.exec == nil {
		return nil
	}
	return c.exec.Plan()
}

// GatingLevels reports the activity-gated strategy's cumulative level
// tally since ConfigureExec: vectors decided, levels executed, and
// levels skipped barrier-included. A skipped level is a deleted barrier
// crossing per worker (each gated vector additionally crosses one
// closing barrier when workers > 1). All zeros when the configured
// strategy is not ActivityGated.
func (c *Core) GatingLevels() (vectors, run, skipped int64) {
	if c.gate == nil {
		return 0, 0, 0
	}
	return c.gate.Levels()
}

// Gate returns the configured activity gate, nil when the strategy is
// not ActivityGated.
func (c *Core) Gate() Gate { return c.gate }

// invalidateGate forces the next gated vector to run everything — after
// any operation that makes the arena's relation to the previous inputs
// unknown (reset, restore, detach).
func (c *Core) invalidateGate() {
	if c.gate != nil {
		c.gate.Invalidate()
	}
}

// Clone returns an independent engine sharing the compiled programs
// and layout but owning a copy of the mutable state (arena and
// auxiliary state), configured for sequential execution and sharing the
// attached observer. Clones back the vector-batch strategy's blocks.
func (c *Core) Clone() *Core {
	cl := *c
	cl.st = append([]uint64(nil), c.st...)
	cl.aux = append([]bool(nil), c.aux...)
	cl.exec = nil
	cl.pool = nil
	cl.clones = nil
	cl.gate = nil
	cl.strategy = shard.Sequential
	cl.ref = nil // the evaluator is single-threaded state; rebuild on demand
	cl.tech = c.tech.Rebind(&cl)
	return &cl
}

// checkStream validates every vector's length up front, so a stream
// never stops half-applied on a malformed vector.
func (c *Core) checkStream(vecs [][]bool) error {
	for i, v := range vecs {
		if len(v) != len(c.c.Inputs) {
			return fmt.Errorf("%s: vector %d has %d values for %d primary inputs", c.name, i, len(v), len(c.c.Inputs))
		}
	}
	return nil
}

// ApplyStream simulates a stream of input vectors. Under the Sequential
// and Sharded strategies this is ApplyVector in a loop — one coherent
// stream, bit-identical between the two. Under VectorBatch the stream is
// split into one contiguous block per worker and the blocks run
// concurrently as independent substreams on cloned state (the receiver
// itself carries block 0): like the PC-set method's 64 bit lanes, each
// block's previous-vector state is its own previous vector, and blocks
// persist across ApplyStream calls. After return the receiver holds the
// history of its block's last vector.
func (c *Core) ApplyStream(vecs [][]bool) error {
	if err := c.checkStream(vecs); err != nil {
		return err
	}
	n := 1
	if c.strategy == shard.VectorBatch && c.pool != nil {
		n = c.pool.Workers()
	}
	if n < 2 || len(vecs) < 2*n {
		for _, v := range vecs {
			if err := c.ApplyVector(v); err != nil {
				return err
			}
		}
		return nil
	}
	for len(c.clones) < n-1 {
		c.clones = append(c.clones, c.Clone())
	}
	block := (len(vecs) + n - 1) / n
	c.pool.Do(func(w int) {
		sim := c
		if w > 0 {
			sim = c.clones[w-1]
		}
		lo := w * block
		hi := lo + block
		if hi > len(vecs) {
			hi = len(vecs)
		}
		for _, v := range vecs[lo:hi] {
			sim.ApplyVector(v) // lengths pre-validated; cannot fail
		}
	})
	return nil
}

// BlockFinal returns the final value of a net in vector-batch block k
// (block 0 is the receiver itself). It panics when k is out of range of
// the blocks materialized so far.
func (c *Core) BlockFinal(k int, n circuit.NetID) bool {
	if k == 0 {
		return c.Final(n)
	}
	return c.clones[k-1].Final(n)
}

// Close releases the execution workers configured by ConfigureExec and
// reverts to sequential execution. The engine remains usable.
func (c *Core) Close() {
	if c.exec != nil {
		c.exec.Close()
		c.exec = nil
	}
	if c.pool != nil {
		c.pool.Close()
		c.pool = nil
	}
	c.gate = nil
	c.strategy = shard.Sequential
}
