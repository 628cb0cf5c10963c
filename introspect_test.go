package udsim

import (
	"testing"

	"udsim/internal/resilience/chaos"
	"udsim/internal/vectors"
)

// TestIntrospectionSeesThroughWrappers is the regression test for
// Programs, Verify, ValidateCodegen and ResubResultOf on wrapped
// engines: a guarded or native engine answers exactly as the plain
// compiled engine underneath it, for both techniques.
func TestIntrospectionSeesThroughWrappers(t *testing.T) {
	c, err := ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	wrappers := []struct {
		name   string
		opts   []Option
		native bool
	}{
		{"plain", nil, false},
		{"guarded", []Option{WithGuard(DefaultGuardPolicy())}, false},
		{"native", []Option{WithNativeBackend()}, true},
	}
	for _, tech := range []Technique{TechParallel, TechPCSet} {
		plain, err := Open(c, tech)
		if err != nil {
			t.Fatal(err)
		}
		wantInit, wantSim, _ := Programs(plain)
		for _, w := range wrappers {
			t.Run(tech.String()+"/"+w.name, func(t *testing.T) {
				if w.native {
					requireGoTool(t)
				}
				e, err := Open(c, tech, w.opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer e.(Closer).Close()
				init, sim, ok := Programs(e)
				if !ok {
					t.Fatalf("Programs(%s) reports no programs", e.EngineName())
				}
				if len(init.Code) != len(wantInit.Code) || len(sim.Code) != len(wantSim.Code) {
					t.Fatalf("Programs(%s): %d+%d instructions, plain engine has %d+%d",
						e.EngineName(), len(init.Code), len(sim.Code), len(wantInit.Code), len(wantSim.Code))
				}
				rep, err := Verify(e, VerifyOptions{})
				if err != nil {
					t.Fatalf("Verify(%s): %v", e.EngineName(), err)
				}
				if !rep.Clean() {
					t.Fatalf("Verify(%s) not clean:\n%s", e.EngineName(), rep)
				}
				rep, err = ValidateCodegen(e)
				if err != nil {
					t.Fatalf("ValidateCodegen(%s): %v", e.EngineName(), err)
				}
				if !rep.Clean() {
					t.Fatalf("ValidateCodegen(%s) not clean:\n%s", e.EngineName(), rep)
				}
				if ResubResultOf(e) != nil {
					t.Fatalf("ResubResultOf(%s) non-nil without WithResubstitution", e.EngineName())
				}
			})
		}
	}
	// Engines without compiled programs still report so.
	ev, err := Open(c, TechEvent2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := Programs(ev); ok {
		t.Error("Programs reports programs for the event-driven engine")
	}
	if _, err := Verify(ev, VerifyOptions{}); err == nil {
		t.Error("Verify accepted the event-driven engine")
	}
	if _, err := ValidateCodegen(ev); err == nil {
		t.Error("ValidateCodegen accepted the event-driven engine")
	}
}

// TestNominalConstructorsHonorOptions is the regression test for the
// nominal-delay constructors dropping options: they build through Open's
// path, so execution strategy and observer apply to the engine and its
// clones alike, and options Open would reject are rejected.
func TestNominalConstructorsHonorOptions(t *testing.T) {
	c, err := ISCAS85("c880")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		tech  Technique
		build func(opts ...Option) (Engine, error)
	}{
		{TechParallel, func(opts ...Option) (Engine, error) { return NewNominalParallel(c, nil, opts...) }},
		{TechPCSet, func(opts ...Option) (Engine, error) { return NewNominalPCSet(c, nil, nil, opts...) }},
	} {
		t.Run(tc.tech.String(), func(t *testing.T) {
			ob := NewObserver(ObserverConfig{})
			e, err := tc.build(WithExec(ExecSharded, 2), WithObserver(ob))
			if err != nil {
				t.Fatal(err)
			}
			defer e.(Closer).Close()
			if got := e.(Streamer).ExecStrategy(); got != ExecSharded {
				t.Fatalf("engine runs %v, want %v", got, ExecSharded)
			}
			cl, err := e.(Cloner).Clone()
			if err != nil {
				t.Fatal(err)
			}
			defer cl.(Closer).Close()
			if got := cl.(Streamer).ExecStrategy(); got != ExecSharded {
				t.Fatalf("clone runs %v, want %v like its parent", got, ExecSharded)
			}
			if err := e.ResetConsistent(nil); err != nil {
				t.Fatal(err)
			}
			if err := e.Apply(make([]bool, len(c.Inputs))); err != nil {
				t.Fatal(err)
			}
			if s := e.(Snapshotter).Snapshot(); s == nil || s.Vectors != 1 {
				t.Fatalf("observer not attached: snapshot %+v", s)
			}
			g, err := tc.build(WithGuard(DefaultGuardPolicy()))
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := g.(*GuardedSim); !ok {
				t.Fatalf("WithGuard built %T, want *GuardedSim", g)
			}
			// With unit delays (nil model) the nominal constructor builds
			// exactly the engine Open does.
			want, err := Open(c, tc.tech)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			sameEngine(t, tc.tech.String()+"/unit", got, want, vectors.Random(3, len(c.Inputs), 9))
		})
	}
	// Options that do not apply to the technique are rejected as Open
	// rejects them, and the unit-delay optimizations stay excluded.
	rejected := []struct {
		label string
		build func() (Engine, error)
	}{
		{"parallel+WithMonitor", func() (Engine, error) {
			return NewNominalParallel(c, FaninDelays, WithMonitor(c.Outputs[0]))
		}},
		{"parallel+WithTrimming", func() (Engine, error) { return NewNominalParallel(c, FaninDelays, WithTrimming()) }},
		{"parallel+WithFaultInjection", func() (Engine, error) {
			return NewNominalParallel(c, FaninDelays, WithFaultInjection(chaos.PanicAt(1, 0, 0)))
		}},
		{"pcset+WithWordBits", func() (Engine, error) { return NewNominalPCSet(c, nil, TypeDelays, WithWordBits(8)) }},
		{"pcset+WithLevelFusion", func() (Engine, error) { return NewNominalPCSet(c, nil, TypeDelays, WithLevelFusion()) }},
		{"parallel+WithActivityGating", func() (Engine, error) {
			return NewNominalParallel(c, FaninDelays, WithActivityGating())
		}},
	}
	for _, tc := range rejected {
		if e, err := tc.build(); err == nil {
			e.(Closer).Close()
			t.Errorf("%s: expected rejection", tc.label)
		}
	}
}
