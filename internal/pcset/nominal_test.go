package pcset

import (
	"fmt"
	"math/rand"
	"testing"

	"udsim/internal/circuit"
	"udsim/internal/ckttest"
	"udsim/internal/gen"
	"udsim/internal/logic"
	"udsim/internal/ndsim"
	"udsim/internal/vectors"
)

// delaysFor evaluates a delay model over the normalized circuit's gates.
func delaysFor(c *circuit.Circuit, dm ndsim.DelayModel) []int {
	out := make([]int, c.NumGates())
	for i := range c.Gates {
		out[i] = dm(&c.Gates[i])
	}
	return out
}

// TestNominalDelayMatchesEventSim is the headline extension check: the
// compiled nominal-delay PC-set program produces, at every net and every
// time step, exactly the waveform of the nominal-delay event-driven
// simulator, for several delay models and random circuits, and for c880
// under fanin delays. Each program is also in level-grouped order
// (checkLevelized).
func TestNominalDelayMatchesEventSim(t *testing.T) {
	type delayCase struct {
		name string
		norm *circuit.Circuit
		dm   ndsim.DelayModel
		vecs int
		seed int64
	}
	var cases []delayCase
	r := rand.New(rand.NewSource(23))
	models := []ndsim.DelayModel{ndsim.UnitDelays, ndsim.FaninDelays, ndsim.TypeDelays}
	for trial := 0; trial < 9; trial++ {
		cases = append(cases, delayCase{fmt.Sprintf("trial %d", trial), ckttest.Random(r, 30, 4).Normalize(), models[trial%len(models)], 8, int64(trial)})
	}
	c880, err := gen.ISCAS85("c880")
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, delayCase{"c880", c880.Normalize(), ndsim.FaninDelays, 3, 37})

	for _, tc := range cases {
		norm := tc.norm
		delays := delaysFor(norm, tc.dm)
		s, err := CompileWithDelays(norm, allNets(norm), delays)
		if err != nil {
			t.Fatal(err)
		}
		checkLevelized(t, s)
		ev, err := ndsim.New(norm, tc.dm)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ResetConsistent(nil); err != nil {
			t.Fatal(err)
		}
		if err := ev.ResetConsistent(nil); err != nil {
			t.Fatal(err)
		}
		depth := s.Depth() // weighted depth: max path-delay sum
		vecs := vectors.Random(tc.vecs, len(norm.Inputs), tc.seed).Bits
		for _, vec := range vecs {
			before := make([]logic.V3, norm.NumNets())
			for i := range before {
				before[i] = ev.Value(circuit.NetID(i))
			}
			var changes []ndsim.Change
			if _, err := ev.ApplyVector(vec, &changes); err != nil {
				t.Fatal(err)
			}
			if err := s.ApplyVector(vec); err != nil {
				t.Fatal(err)
			}
			for n := 0; n < norm.NumNets(); n++ {
				id := circuit.NetID(n)
				h := ndsim.History(changes, id, before[n], depth)
				for tm := 0; tm <= depth; tm++ {
					got, ok := s.ValueAt(id, tm)
					if !ok {
						t.Fatalf("net %s unobservable at t=%d despite monitoring", norm.Nets[n].Name, tm)
					}
					want := h[tm] == logic.V1
					if got != want {
						t.Fatalf("%s net %s t=%d: pcset %v, ndsim %v (delays %v)",
							tc.name, norm.Nets[n].Name, tm, got, want, delays)
					}
				}
			}
		}
	}
}

// TestNominalDelaysGrowPCSets: heavier delay models spread path sums, so
// the variable count must not shrink, and typically grows.
func TestNominalDelaysGrowPCSets(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	grew := 0
	for trial := 0; trial < 8; trial++ {
		c := ckttest.Random(r, 40, 5).Normalize()
		unit, err := CompileWithDelays(c, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		weighted, err := CompileWithDelays(c, nil, delaysFor(c, ndsim.FaninDelays))
		if err != nil {
			t.Fatal(err)
		}
		if weighted.NumVars() > unit.NumVars() {
			grew++
		}
		if weighted.Depth() < unit.Depth() {
			t.Fatalf("weighted depth %d below unit depth %d", weighted.Depth(), unit.Depth())
		}
	}
	if grew == 0 {
		t.Error("fanin delays never grew the PC-sets across 8 circuits")
	}
}

func TestNominalDelayValidation(t *testing.T) {
	c := ckttest.Fig4()
	if _, err := CompileWithDelays(c, nil, []int{1}); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := CompileWithDelays(c, nil, []int{1, 0}); err == nil {
		t.Error("expected non-positive delay error")
	}
	// Unit delays through the nominal path must equal plain Compile.
	s1, err := Compile(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := CompileWithDelays(c, nil, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if s1.NumVars() != s2.NumVars() || s1.CodeSize() != s2.CodeSize() {
		t.Error("unit-delay nominal compile differs from plain compile")
	}
}
