package engine

import (
	"fmt"

	"udsim/internal/dataflow"
	"udsim/internal/program"
	"udsim/internal/verify"
)

// EliminateDeadStores removes the instructions the vector-loop liveness
// fixpoint proves dead — stores whose results can never reach an
// observable slot (a primary output or monitored waveform, a final
// value, or the state the next vector's initialization reads) — and
// returns how many were removed. Slot numbering is preserved (only the
// stores go, not the layout), so the spec and Final/Trace addressing
// stay valid; waveform reads of eliminated intermediate words, however,
// may return stale bits, which is why the facade keeps this behind an
// explicit option.
//
// The optimization is self-checking: after stripping, the full static
// verifier runs over the new programs, and any finding restores the
// originals and reports an error. A configured sharded or gated engine
// is re-partitioned for the stripped program under the same strategy,
// worker count and fusion setting; an attached observer is re-attached
// so its per-level shape tracks the new code.
func (c *Core) EliminateDeadStores() (int, error) {
	res := dataflow.Liveness(verify.StreamOf(c.tech.LayoutSpec()))
	if res.NDead() == 0 {
		return 0, nil
	}
	oldInit, oldSim := c.init, c.sim
	c.init, _ = program.Strip(c.init, res.DeadInit)
	c.sim, _ = program.Strip(c.sim, res.DeadSim)

	restore := func() { c.init, c.sim = oldInit, oldSim }
	if rep := verify.Check(c.tech.LayoutSpec(), verify.Options{}); !rep.Clean() {
		restore()
		return 0, fmt.Errorf("%s: dead-store elimination rejected by verifier: %w", c.name, rep.Err())
	}
	c.lower()

	// Vector-batch clones share the old programs; drop them so ApplyStream
	// rebuilds from the stripped ones.
	c.clones = nil
	switch {
	case c.exec != nil:
		strat, workers := c.strategy, c.exec.Plan().Workers()
		if _, err := c.ConfigureExec(strat, workers); err != nil {
			restore()
			if _, rerr := c.ConfigureExec(strat, workers); rerr != nil {
				return 0, fmt.Errorf("%s: dead-store elimination: %w (and restoring the shard plan failed: %v)", c.name, err, rerr)
			}
			return 0, fmt.Errorf("%s: dead-store elimination: %w", c.name, err)
		}
	case c.obs != nil:
		c.SetObserver(c.obs) // the observer's shape tracks the program size
	}
	return res.NDead(), nil
}
