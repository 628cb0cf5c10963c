package engine_test

import (
	"slices"
	"testing"

	"udsim/internal/circuit"
	"udsim/internal/engine"
	"udsim/internal/gen"
	"udsim/internal/obs"
	"udsim/internal/parsim"
	"udsim/internal/pcset"
	"udsim/internal/shard"
	"udsim/internal/vectors"
)

// compileFunc builds a fresh core for one technique configuration.
type compileFunc func(c *circuit.Circuit) (*engine.Core, error)

func compileParallel(cfg parsim.Config) compileFunc {
	return func(c *circuit.Circuit) (*engine.Core, error) {
		s, err := parsim.Compile(c, cfg)
		if err != nil {
			return nil, err
		}
		return s.Core, nil
	}
}

func compilePCSet(monitorFirstOutput bool) compileFunc {
	return func(c *circuit.Circuit) (*engine.Core, error) {
		var monitor []circuit.NetID
		if monitorFirstOutput {
			monitor = c.Normalize().Outputs[:1]
		}
		s, err := pcset.Compile(c, monitor)
		if err != nil {
			return nil, err
		}
		return s.Core, nil
	}
}

// techniques builds a fresh core per technique; the contract below must
// hold for both layouts.
var techniques = []struct {
	name    string
	compile compileFunc
	// deadStores is a configuration with dead stores to eliminate (an
	// 8-bit trimmed layout; a PC-set compile monitoring one output), and
	// partitioned the plan-based strategies the technique supports, which
	// the dead-store case re-partitions under.
	deadStores  compileFunc
	partitioned []shard.Strategy
}{
	{"parallel", compileParallel(parsim.Config{}),
		compileParallel(parsim.Config{WordBits: 8, Trim: true}),
		[]shard.Strategy{shard.Sharded, shard.ActivityGated}},
	{"pcset", compilePCSet(false), compilePCSet(true), []shard.Strategy{shard.Sharded}},
}

// fixture is one (circuit, technique) pair of the contract table.
type fixture struct {
	c                   *circuit.Circuit
	compile, deadStores compileFunc
	partitioned         []shard.Strategy
	vecs                [][]bool
}

// fresh compiles a new core and resets it to the all-zeros state.
func (f *fixture) fresh(t *testing.T) *engine.Core { return f.build(t, f.compile) }

// build compiles a new core with the given compiler and resets it.
func (f *fixture) build(t *testing.T, compile compileFunc) *engine.Core {
	t.Helper()
	e, err := compile(f.c)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	return e
}

// apply feeds vectors one at a time.
func apply(t *testing.T, e *engine.Core, vecs [][]bool) {
	t.Helper()
	for _, v := range vecs {
		if err := e.ApplyVector(v); err != nil {
			t.Fatal(err)
		}
	}
}

// sameFinals compares every net's final value.
func sameFinals(t *testing.T, label string, got, want func(circuit.NetID) bool, nets int) {
	t.Helper()
	for n := 0; n < nets; n++ {
		if got(circuit.NetID(n)) != want(circuit.NetID(n)) {
			t.Fatalf("%s: net %d final differs", label, n)
		}
	}
}

// sameWaveforms compares every net's observable history of the last
// vector.
func sameWaveforms(t *testing.T, label string, got, want *engine.Core) {
	t.Helper()
	for n := 0; n < got.Circuit().NumNets(); n++ {
		for tm := 0; tm <= got.Depth(); tm++ {
			gv, gok := got.Technique().Trace(circuit.NetID(n), tm)
			wv, wok := want.Technique().Trace(circuit.NetID(n), tm)
			if gv != wv || gok != wok {
				t.Fatalf("%s: net %d t=%d: (%v,%v) want (%v,%v)", label, n, tm, gv, gok, wv, wok)
			}
		}
	}
}

// TestCoreContract is the engine-core contract, table-driven over both
// techniques on several ISCAS profiles: checkpoints, clones, Close,
// vector batching and dead-store re-partitioning behave identically
// whichever layout the core runs.
func TestCoreContract(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, f *fixture)
	}{
		{"SaveRestoreRoundTrip", func(t *testing.T, f *fixture) {
			e := f.fresh(t)
			half := len(f.vecs) / 2
			apply(t, e, f.vecs[:half])
			var ck engine.Checkpoint
			e.Save(&ck)
			st, aux := slices.Clone(e.State()), slices.Clone(e.Aux())
			apply(t, e, f.vecs[half:])
			if err := e.Restore(&ck); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(e.State(), st) {
				t.Fatal("Restore: arena differs from the checkpoint")
			}
			if !slices.Equal(e.Aux(), aux) {
				t.Fatal("Restore: auxiliary state differs from the checkpoint")
			}
			// Replaying the suffix from the restored state reproduces the
			// uninterrupted stream, waveforms included: the parallel
			// technique's previous finals and previous inputs came back
			// with the arena.
			apply(t, e, f.vecs[half:])
			ref := f.fresh(t)
			apply(t, ref, f.vecs)
			sameWaveforms(t, "replay after restore", e, ref)
			// A checkpoint stays valid for a second rollback, and an
			// empty one is refused.
			if err := e.Restore(&ck); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(e.State(), st) {
				t.Fatal("second Restore: arena differs from the checkpoint")
			}
			if err := e.Restore(&engine.Checkpoint{}); err == nil {
				t.Fatal("restoring an empty checkpoint succeeded")
			}
		}},
		{"CloneIndependentSharesObserver", func(t *testing.T, f *fixture) {
			e := f.fresh(t)
			o := obs.New(obs.Config{})
			e.SetObserver(o)
			half := len(f.vecs) / 2
			apply(t, e, f.vecs[:half])
			cl := e.Clone()
			if cl.Observer() != o {
				t.Fatal("clone does not share the parent's observer")
			}
			if cl.ExecStrategy() != shard.Sequential {
				t.Fatalf("clone strategy %v, want sequential", cl.ExecStrategy())
			}
			// Parent and clone diverge: the parent continues the stream,
			// the clone replays the prefix in reverse.
			apply(t, e, f.vecs[half:])
			rev := slices.Clone(f.vecs[:half])
			slices.Reverse(rev)
			apply(t, cl, rev)

			ref := f.fresh(t)
			apply(t, ref, f.vecs)
			sameWaveforms(t, "parent", e, ref)
			refCl := f.fresh(t)
			apply(t, refCl, f.vecs[:half])
			apply(t, refCl, rev)
			sameWaveforms(t, "clone", cl, refCl)
			if got, want := o.Snapshot().Vectors, int64(len(f.vecs)+len(rev)); got != want {
				t.Fatalf("shared observer counted %d vectors, want %d", got, want)
			}
		}},
		{"CloseRevertsToSequential", func(t *testing.T, f *fixture) {
			e := f.fresh(t)
			got, err := e.ConfigureExec(shard.Sharded, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got != shard.Sharded || e.ExecPlan() == nil {
				t.Fatalf("ConfigureExec resolved %v (plan %v)", got, e.ExecPlan() != nil)
			}
			if e.Spec().Shards == nil {
				t.Fatal("sharded spec exports no plan")
			}
			half := len(f.vecs) / 2
			apply(t, e, f.vecs[:half])
			e.Close()
			if e.ExecStrategy() != shard.Sequential || e.ExecPlan() != nil || e.Spec().Shards != nil {
				t.Fatalf("after Close: strategy %v, plan %v", e.ExecStrategy(), e.ExecPlan() != nil)
			}
			apply(t, e, f.vecs[half:])
			ref := f.fresh(t)
			apply(t, ref, f.vecs)
			sameWaveforms(t, "sharded then closed", e, ref)
		}},
		{"VectorBatchBlockFinal", func(t *testing.T, f *fixture) {
			const workers = 2
			e := f.fresh(t)
			if _, err := e.ConfigureExec(shard.VectorBatch, workers); err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if err := e.ApplyStream(f.vecs); err != nil {
				t.Fatal(err)
			}
			// Each block is an independent substream from the state the
			// receiver had when the stream began.
			block := (len(f.vecs) + workers - 1) / workers
			for k := 0; k < workers; k++ {
				lo, hi := k*block, min((k+1)*block, len(f.vecs))
				ref := f.fresh(t)
				apply(t, ref, f.vecs[lo:hi])
				sameFinals(t, "block", func(n circuit.NetID) bool { return e.BlockFinal(k, n) },
					ref.Final, f.c.Normalize().NumNets())
			}
		}},
		{"DeadStoreKeepsStrategy", func(t *testing.T, f *fixture) {
			for _, strat := range f.partitioned {
				e := f.build(t, f.deadStores)
				if _, err := e.ConfigureExec(strat, 2); err != nil {
					t.Fatal(err)
				}
				before := e.CodeSize()
				n, err := e.EliminateDeadStores()
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 || e.CodeSize() != before-n {
					t.Fatalf("%v: removed %d instructions (code %d -> %d)", strat, n, before, e.CodeSize())
				}
				if e.ExecStrategy() != strat || e.ExecPlan() == nil {
					t.Fatalf("dead-store elimination re-partitioned %v as %v", strat, e.ExecStrategy())
				}
				if _, sim := e.Programs(); e.ExecPlan().Stats().Instrs != len(sim.Code) {
					t.Fatalf("%v: plan covers %d instructions, program has %d",
						strat, e.ExecPlan().Stats().Instrs, len(sim.Code))
				}
				apply(t, e, f.vecs)
				ref := f.build(t, f.deadStores)
				apply(t, ref, f.vecs)
				sameFinals(t, strat.String(), e.Final, ref.Final, f.c.Normalize().NumNets())
				e.Close()
			}
		}},
	}
	for _, name := range []string{"c432", "c499", "c1355"} {
		c, err := gen.ISCAS85(name)
		if err != nil {
			t.Fatal(err)
		}
		vecs := vectors.Random(24, len(c.Inputs), 3).Bits
		for _, tech := range techniques {
			f := &fixture{c: c, compile: tech.compile, deadStores: tech.deadStores,
				partitioned: tech.partitioned, vecs: vecs}
			for _, tc := range cases {
				t.Run(name+"/"+tech.name+"/"+tc.name, func(t *testing.T) { tc.run(t, f) })
			}
		}
	}
}
