package pcset

import (
	"math/rand"
	"testing"

	"udsim/internal/circuit"
	"udsim/internal/ckttest"
	"udsim/internal/logic"
	"udsim/internal/program"
	"udsim/internal/vectors"
)

// allNets returns every net ID, used to monitor everything in tests.
func allNets(c *circuit.Circuit) []circuit.NetID {
	ids := make([]circuit.NetID, c.NumNets())
	for i := range ids {
		ids[i] = circuit.NetID(i)
	}
	return ids
}

func TestFig4GeneratedCode(t *testing.T) {
	// The paper's Fig. 4: variables A_0,B_0,C_0,D_0,D_1,E_1,E_2; init
	// "D_0 = D_1"; sim "D_1 = A_0 & B_0; E_1 = D_0 & C_0; E_2 = D_1 & C_0".
	c := ckttest.Fig4()
	s, err := Compile(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVars() != 7 {
		t.Fatalf("allocated %d variables, want 7", s.NumVars())
	}
	initP, simP := s.Programs()
	if len(initP.Code) != 1 || initP.Code[0].Op != program.OpMove {
		t.Fatalf("init code wrong:\n%s", initP.Disassemble())
	}
	if len(simP.Code) != 3 {
		t.Fatalf("sim code has %d instrs, want 3:\n%s", len(simP.Code), simP.Disassemble())
	}
	names := simP.VarNames
	wantStmts := [][3]string{
		{"D_1", "A_0", "B_0"},
		{"E_1", "D_0", "C_0"},
		{"E_2", "D_1", "C_0"},
	}
	for i, in := range simP.Code {
		if in.Op != program.OpAnd {
			t.Errorf("stmt %d: op %v, want and", i, in.Op)
		}
		got := [3]string{names[in.Dst], names[in.A], names[in.B]}
		if got != wantStmts[i] {
			t.Errorf("stmt %d: %v, want %v", i, got, wantStmts[i])
		}
	}
	// Init move must be D_0 = D_1.
	if names[initP.Code[0].Dst] != "D_0" || names[initP.Code[0].A] != "D_1" {
		t.Errorf("init move %s = %s, want D_0 = D_1",
			names[initP.Code[0].Dst], names[initP.Code[0].A])
	}
}

func TestWaveformMatchesEventSim(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		c := ckttest.Random(r, 40, 5)
		s, err := Compile(c, allNets(c))
		if err != nil {
			t.Fatal(err)
		}
		cn := s.Circuit()
		if err := s.ResetConsistent(nil); err != nil {
			t.Fatal(err)
		}
		vecs := vectors.Random(10, len(cn.Inputs), int64(trial))
		hists, _, err := ckttest.Waveforms(cn, vecs.Bits, s.Depth())
		if err != nil {
			t.Fatal(err)
		}
		for v, vec := range vecs.Bits {
			if err := s.ApplyVector(vec); err != nil {
				t.Fatal(err)
			}
			for tm := 0; tm <= s.Depth(); tm++ {
				for n := 0; n < cn.NumNets(); n++ {
					got, ok := s.ValueAt(circuit.NetID(n), tm)
					if !ok {
						t.Fatalf("net %d unobservable at t=%d despite monitoring", n, tm)
					}
					if got != hists[v][tm][n] {
						t.Fatalf("trial %d vec %d net %s t=%d: pcset %v, ref %v",
							trial, v, cn.Nets[n].Name, tm, got, hists[v][tm][n])
					}
				}
			}
		}
	}
}

func TestFinalsMatchWithDefaultMonitoring(t *testing.T) {
	// With only primary outputs monitored, final values of every net must
	// still be correct (the max-PC variable always holds the final value).
	r := rand.New(rand.NewSource(18))
	for trial := 0; trial < 10; trial++ {
		c := ckttest.Random(r, 50, 6)
		s, err := Compile(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		cn := s.Circuit()
		if err := s.ResetConsistent(nil); err != nil {
			t.Fatal(err)
		}
		vecs := vectors.Random(10, len(cn.Inputs), int64(trial))
		_, _, err = ckttest.Waveforms(cn, vecs.Bits, s.Depth())
		if err != nil {
			t.Fatal(err)
		}
		hists, _, _ := ckttest.Waveforms(cn, vecs.Bits, s.Depth())
		for v, vec := range vecs.Bits {
			if err := s.ApplyVector(vec); err != nil {
				t.Fatal(err)
			}
			last := hists[v][len(hists[v])-1]
			for n := 0; n < cn.NumNets(); n++ {
				if s.Final(circuit.NetID(n)) != last[n] {
					t.Fatalf("trial %d vec %d net %s: final %v, ref %v",
						trial, v, cn.Nets[n].Name, s.Final(circuit.NetID(n)), last[n])
				}
			}
		}
	}
}

func TestUnobservableWithoutMonitoring(t *testing.T) {
	c := ckttest.Fig4()
	s, err := Compile(c, nil) // monitor = outputs (E only)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyVector([]bool{true, true, true}); err != nil {
		t.Fatal(err)
	}
	// D has PC {0,1} (zero inserted because it feeds the E-gate next to
	// C), so it IS observable at t=0. E has PC {1,2} and is monitored but
	// its minlevel is minimal in the monitor group, so E@0 is not stored.
	e, _ := s.Circuit().NetByName("E")
	if _, ok := s.ValueAt(e, 0); ok {
		t.Error("E at t=0 should be unobservable (no zero inserted)")
	}
	if v, ok := s.ValueAt(e, 2); !ok || !v {
		t.Errorf("E at t=2 = %v,%v; want true", v, ok)
	}
}

func TestDataParallelLanesMatchScalarStreams(t *testing.T) {
	// Lane k of the packed run must reproduce the scalar run of the
	// vector stream consisting of just that lane's vectors.
	r := rand.New(rand.NewSource(9))
	c := ckttest.Random(r, 30, 4)
	sPar, err := Compile(c, allNets(c))
	if err != nil {
		t.Fatal(err)
	}
	cn := sPar.Circuit()
	const rounds = 3
	streams := make([]*vectors.Set, rounds)
	for i := range streams {
		streams[i] = vectors.Random(64, len(cn.Inputs), int64(100+i))
	}
	if err := sPar.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	for _, s := range streams {
		if err := sPar.ApplyLanes(s.Packed()[0]); err != nil {
			t.Fatal(err)
		}
	}
	// Scalar replay of a few lanes.
	for _, lane := range []int{0, 1, 13, 63} {
		sScalar, err := Compile(c, allNets(c))
		if err != nil {
			t.Fatal(err)
		}
		if err := sScalar.ResetConsistent(nil); err != nil {
			t.Fatal(err)
		}
		for _, s := range streams {
			if err := sScalar.ApplyVector(s.Bits[lane]); err != nil {
				t.Fatal(err)
			}
		}
		for n := 0; n < cn.NumNets(); n++ {
			for tm := 0; tm <= sPar.Depth(); tm++ {
				want, ok1 := sScalar.ValueAt(circuit.NetID(n), tm)
				got, ok2 := sPar.LaneValueAt(circuit.NetID(n), tm, lane)
				if ok1 != ok2 || (ok1 && want != got) {
					t.Fatalf("lane %d net %d t=%d: packed %v,%v scalar %v,%v",
						lane, n, tm, got, ok2, want, ok1)
				}
			}
		}
	}
}

// TestLaneValueAtOutOfRange: a lane outside [0, 64) does not exist, so
// it is never observable, whatever the net's history.
func TestLaneValueAtOutOfRange(t *testing.T) {
	c := ckttest.Fig4()
	s, err := Compile(c, allNets(c))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyLanes([]uint64{^uint64(0), ^uint64(0), ^uint64(0)}); err != nil {
		t.Fatal(err)
	}
	for n := range s.Circuit().Nets {
		for tm := 0; tm <= s.Depth(); tm++ {
			if v, ok := s.LaneValueAt(circuit.NetID(n), tm, 63); !ok {
				t.Fatalf("net %d t=%d: lane 63 unobservable (%v)", n, tm, v)
			}
			for _, lane := range []int{-1, 64} {
				if v, ok := s.LaneValueAt(circuit.NetID(n), tm, lane); ok || v {
					t.Fatalf("net %d t=%d lane %d: got (%v, %v), want (false, false)", n, tm, lane, v, ok)
				}
			}
		}
	}
}

func TestXorGlitchHistory(t *testing.T) {
	// XOR of a signal with a delayed copy of itself pulses on every input
	// change; the PC-set history must show the pulse.
	b := circuit.NewBuilder("pulse")
	a := b.Input("A")
	d1 := b.Gate(logic.Buf, "D1", a)
	d2 := b.Gate(logic.Buf, "D2", d1)
	p := b.Gate(logic.Xor, "P", a, d2)
	b.Output(p)
	c := b.MustBuild()
	s, err := Compile(c, allNets(c))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ResetConsistent([]bool{false}); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyVector([]bool{true}); err != nil {
		t.Fatal(err)
	}
	pID, _ := s.Circuit().NetByName("P")
	wantP := []bool{false, true, true, false} // pulses for 2 gate delays... P = XOR(A, D2): at t=1 A=1,D2 old=0 → 1; t=2 D2 still old (changes at 2? D2 level 2, changes at t=2 to 1... XOR at t=2 uses D2 at t=1 (old 0) → 1; t=3 uses D2 at 2 (new 1) → 0.
	for tm, want := range wantP {
		got, ok := s.ValueAt(pID, tm)
		if !ok || got != want {
			t.Errorf("P at t=%d: %v,%v want %v", tm, got, ok, want)
		}
	}
}

func TestCodeSizeGrowsWithPCSets(t *testing.T) {
	// A deep chain reconverging with a shallow signal inflates PC-sets;
	// the PC-set method's code size must exceed one instruction per gate.
	c := ckttest.Deep(20, 3)
	s, err := Compile(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.CodeSize() <= c.NumGates() {
		t.Errorf("code size %d not larger than gate count %d", s.CodeSize(), c.NumGates())
	}
	a := s.Analysis()
	if a.GatePCSize() <= c.NumGates() {
		t.Errorf("gate PC size %d should exceed gate count %d", a.GatePCSize(), c.NumGates())
	}
}

func TestErrors(t *testing.T) {
	b := circuit.NewBuilder("seq")
	q := b.FlipFlop("Q", circuit.NoNet)
	d := b.Gate(logic.Not, "D", q)
	b.BindFlipFlop(q, d)
	b.Output(d)
	if _, err := Compile(b.MustBuild(), nil); err == nil {
		t.Error("expected sequential error")
	}
	s, err := Compile(ckttest.Fig4(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyVector([]bool{true}); err == nil {
		t.Error("expected width error")
	}
	if err := s.ApplyLanes([]uint64{0}); err == nil {
		t.Error("expected packed width error")
	}
}

// TestCompileChecked runs the static analyzer over PC-set compiles, both
// output-monitored and fully monitored.
func TestCompileChecked(t *testing.T) {
	c := ckttest.Fig4()
	if _, err := CompileChecked(c, nil); err != nil {
		t.Fatalf("CompileChecked(outputs): %v", err)
	}
	s, err := CompileChecked(c, allNets(c))
	if err != nil {
		t.Fatalf("CompileChecked(all nets): %v", err)
	}
	spec := s.Spec()
	if spec.ScratchStart != int32(s.NumVars()) {
		t.Errorf("ScratchStart = %d, want %d (PC-set has no scratch)", spec.ScratchStart, s.NumVars())
	}
	if spec.Fields != nil || spec.Phase != nil {
		t.Error("PC-set spec must not declare fields or phases")
	}
}
