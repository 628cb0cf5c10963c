package udsim

// Test-only constructors over the finalized facade: tests that reach
// past the Engine interface (trim stats, dead-store elimination, shard
// plans) open through Open like every other caller and assert down to
// the concrete compiled engine.

// openParallelSim opens a parallel-technique engine and returns the
// concrete simulator.
func openParallelSim(c *Circuit, opts ...Option) (*CompiledSim, error) {
	e, err := Open(c, TechParallel, opts...)
	if err != nil {
		return nil, err
	}
	return e.(*CompiledSim), nil
}

// openPCSetSim opens a PC-set engine with the given monitor set and
// returns the concrete simulator.
func openPCSetSim(c *Circuit, monitor []NetID, opts ...Option) (*CompiledSim, error) {
	if monitor != nil {
		opts = append(opts, WithMonitor(monitor...))
	}
	e, err := Open(c, TechPCSet, opts...)
	if err != nil {
		return nil, err
	}
	return e.(*CompiledSim), nil
}
