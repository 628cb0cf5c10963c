package harness

import (
	"fmt"
	"os/exec"
	"time"

	"udsim/internal/engine"
	"udsim/internal/native"
	"udsim/internal/parsim"
	"udsim/internal/pcset"
	"udsim/internal/resilience"
	"udsim/internal/texttable"
	"udsim/internal/vectors"
)

// nativeBatch is the vector-batch size the experiment streams through
// the child protocol: large enough to amortize the pipe round trip,
// small enough that a respawn replays a bounded amount of work.
const nativeBatch = 512

// Native measures the interpretation tax: the in-process dispatch loop
// (threaded code interpreting the compiled program) against the same
// program built as genuinely straight-line native code and run in a
// supervised child over the vector protocol. One row per circuit and
// technique, with the out-of-process `go build` time that the native
// backend pays once per open.
func Native(o Options) (*Result, error) {
	o = o.withDefaults()
	t := texttable.New(
		fmt.Sprintf("Native backend — dispatch loop vs native child (%d vectors)", o.Vectors),
		"Circuit", "Technique", "Build", "Loop ns/vec", "Native ns/vec", "Loop/Native")
	if _, err := exec.LookPath("go"); err != nil {
		return &Result{Table: t, Notes: []string{
			"go toolchain not on PATH: native child cannot be built, experiment skipped",
		}}, nil
	}
	for _, name := range o.Circuits {
		c, vecs, err := bench(o, name)
		if err != nil {
			return nil, err
		}
		norm := c.Normalize()
		for _, tech := range []string{"parallel", "pcset"} {
			var core *engine.Core
			switch tech {
			case "parallel":
				s, err := parsim.Compile(norm, parsim.Config{WordBits: o.WordBits})
				if err != nil {
					return nil, err
				}
				core = s.Core
			case "pcset":
				s, err := pcset.Compile(norm, nil)
				if err != nil {
					return nil, err
				}
				core = s.Core
			}
			dLoop, err := bestOf(o.Repeats, func() error { return core.ResetConsistent(nil) }, vecs, core.ApplyVector)
			if err != nil {
				return nil, err
			}
			pi, pm := core.Programs()
			cfg := native.Config{
				Layout: native.LayoutOf(core),
				Init:   pi, Sim: pm,
			}
			cfg.Engine = "native/" + tech
			cfg.Technique = tech
			cfg.CircuitHash = native.HashBench(norm)
			cfg.Policy = resilience.Policy{
				LevelBudget:  5 * time.Second,
				MaxRetries:   2,
				RetryBackoff: 10 * time.Millisecond,
			}
			sup, err := native.New(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, tech, err)
			}
			dNative, err := timeNative(sup, vecs, o.Repeats)
			sup.Close()
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, tech, err)
			}
			t.Add(name, tech, secs(sup.BuildTime()),
				nsPerVec(dLoop, vecs.Len()), nsPerVec(dNative, vecs.Len()),
				ratio(dLoop, dNative))
		}
	}
	return &Result{Table: t, Notes: []string{
		"Loop/Native > 1x is the dispatch loop's interpretation tax; the native column",
		"includes the pipe protocol, so small circuits understate the pure compute gap.",
		"Build is the one-time out-of-process `go build` of the generated child.",
	}}, nil
}

// timeNative streams the vector set through the supervised child in
// nativeBatch-sized batches, best of `repeats` passes.
func timeNative(sup *native.Supervisor, vecs *vectors.Set, repeats int) (time.Duration, error) {
	if repeats < 1 {
		repeats = 1
	}
	var best time.Duration
	for r := 0; r < repeats; r++ {
		start := time.Now()
		for lo := 0; lo < vecs.Len(); lo += nativeBatch {
			hi := lo + nativeBatch
			if hi > vecs.Len() {
				hi = vecs.Len()
			}
			if _, err := sup.RunBatch(vecs.Bits[lo:hi]); err != nil {
				return 0, err
			}
		}
		d := time.Since(start)
		if r == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// nsPerVec renders a per-vector duration in nanoseconds.
func nsPerVec(d time.Duration, n int) string {
	if n <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", float64(d.Nanoseconds())/float64(n))
}
