package pcset

import (
	"testing"

	"udsim/internal/circuit"
	"udsim/internal/gen"
	"udsim/internal/refsim"
	"udsim/internal/vectors"
)

// checkLevelized checks the simulation code's order: instructions come
// level by level, and each reads only slots written at a lower level or
// (its own destination) by an earlier stage of the same gate.
func checkLevelized(t *testing.T, s *Sim) {
	t.Helper()
	c, a := s.Circuit(), s.a
	_, sim := s.Programs()
	levelOf := make([]int, sim.NumVars) // level of the gate writing each slot
	for i := range levelOf {
		levelOf[i] = -1
	}
	for n := range c.Nets {
		if d := c.Nets[n].Drivers; len(d) > 0 {
			for _, v := range s.vars[n] {
				levelOf[v] = a.GateLevel[d[0]]
			}
		}
	}
	written := make([]bool, sim.NumVars)
	prev := 0
	var buf []int32
	for i := range sim.Code {
		in := &sim.Code[i]
		level := levelOf[in.Dst]
		if level < prev {
			t.Fatalf("instr %d writes %s at level %d after level %d", i, sim.VarName(in.Dst), level, prev)
		}
		prev = level
		for _, r := range in.ReadSlots(buf[:0]) {
			switch {
			case r == in.Dst:
				if !written[r] {
					t.Fatalf("instr %d reads %s before an earlier stage wrote it", i, sim.VarName(r))
				}
			case levelOf[r] >= level:
				t.Fatalf("instr %d (level %d) reads %s written at level %d", i, level, sim.VarName(r), levelOf[r])
			}
		}
		written[in.Dst] = true
	}
}

// TestSimCodeLevelGrouped checks the level-major, class-grouped order on
// every ISCAS profile, and that the reordered programs still produce
// refsim's unit-delay histories. TestNominalDelayMatchesEventSim checks
// the order on nominal-delay compiles.
func TestSimCodeLevelGrouped(t *testing.T) {
	for _, name := range gen.Names() {
		c, err := gen.ISCAS85(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Compile(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkLevelized(t, s)
		cn := s.Circuit()
		vecs := vectors.Random(4, len(cn.Inputs), 31).Bits
		prev, err := refsim.ConsistentState(cn, vecs[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ResetConsistent(vecs[0]); err != nil {
			t.Fatal(err)
		}
		for v, vec := range vecs[1:] {
			hist, err := refsim.UnitDelayHistory(cn, prev, vec, s.Depth())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.ApplyVector(vec); err != nil {
				t.Fatal(err)
			}
			for tm := range hist {
				for n := range cn.Nets {
					got, ok := s.ValueAt(circuit.NetID(n), tm)
					if ok && got != hist[tm][n] {
						t.Fatalf("%s vec %d net %s t=%d: pcset %v, refsim %v", name, v, cn.Nets[n].Name, tm, got, hist[tm][n])
					}
				}
			}
			prev = hist[len(hist)-1]
		}
	}
}
