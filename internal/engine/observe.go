package engine

import (
	"udsim/internal/obs"
)

// SetObserver attaches a runtime observer (nil detaches). Attaching
// resets the observer's counters and sizes its per-level/per-shard grid
// for the current execution configuration; ConfigureExec re-attaches
// automatically when the shape changes. Clones share the observer, so
// vector-batch blocks merge into one counter set. Must not be called
// while a simulation is running.
func (c *Core) SetObserver(o *obs.Observer) {
	c.obs = o
	if c.exec != nil {
		c.exec.SetObserver(o)
	}
	for _, cl := range c.clones {
		cl.obs = o
	}
	if o == nil {
		return
	}
	shape := obs.Shape{
		Engine:     c.name,
		Steps:      c.a.Depth + 1,
		Nets:       c.c.NumNets(),
		SimInstrs:  len(c.sim.Code),
		InitInstrs: len(c.init.Code),
	}
	shape.SimWords, shape.SimScratch = c.sim.TouchStats(c.scratchStart)
	shape.InitWords, _ = c.init.TouchStats(c.scratchStart)
	if c.exec != nil {
		plan := c.exec.Plan()
		shape.Levels = c.exec.Levels()
		shape.Workers = plan.Workers()
		st := plan.Stats()
		shape.FusedLevels = st.FusedLevels
		shape.BarriersDeleted = st.BarriersDeleted
	}
	o.Attach(shape)
}

// Observer returns the attached observer, nil when observability is
// disabled.
func (c *Core) Observer() *obs.Observer { return c.obs }

// Snapshot returns the attached observer's counters, nil without one.
func (c *Core) Snapshot() *obs.Snapshot {
	if c.obs == nil {
		return nil
	}
	return c.obs.Snapshot()
}
