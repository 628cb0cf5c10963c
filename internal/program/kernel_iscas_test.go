package program_test

import (
	"math/rand"
	"slices"
	"testing"

	"udsim/internal/align"
	"udsim/internal/gen"
	"udsim/internal/parsim"
	"udsim/internal/pcset"
	"udsim/internal/program"
)

// TestKernelCompiledPrograms runs the programs every compiler variant
// emits for ISCAS profiles through the lowered kernel and through Exec,
// from the same random masked arena, and requires identical arenas.
func TestKernelCompiledPrograms(t *testing.T) {
	for _, name := range []string{"c432", "c1908", "c6288"} {
		c, err := gen.ISCAS85(name)
		if err != nil {
			t.Fatal(err)
		}
		norm, a, err := parsim.Analyze(c)
		if err != nil {
			t.Fatal(err)
		}
		cfgs := map[string]parsim.Config{
			"flat":       {},
			"trim":       {Trim: true},
			"w8-trim":    {WordBits: 8, Trim: true},
			"w64":        {WordBits: 64},
			"pathtrace":  {Align: align.PathTrace(a)},
			"cyclebreak": {WordBits: 16, Trim: true, Align: align.CycleBreak(a)},
		}
		progs := map[string][2]*program.Program{}
		for label, cfg := range cfgs {
			s, err := parsim.Compile(norm, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", name, label, err)
			}
			init, sim := s.Programs()
			progs[label] = [2]*program.Program{init, sim}
		}
		ps, err := pcset.Compile(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		init, sim := ps.Programs()
		progs["pcset"] = [2]*program.Program{init, sim}

		r := rand.New(rand.NewSource(int64(len(name))))
		for label, pair := range progs {
			for _, p := range pair {
				want := make([]uint64, p.NumVars)
				for i := range want {
					want[i] = r.Uint64() & p.Mask()
				}
				got := slices.Clone(want)
				program.Exec(p.Code, want, p.WordBits)
				p.Run(got)
				if i := firstDiff(got, want); i >= 0 {
					t.Fatalf("%s %s: slot %d: kernel %#x, Exec %#x", name, label, i, got[i], want[i])
				}
				if p.Kernel().Ops() > len(p.Code) {
					t.Fatalf("%s %s: kernel has %d superinstructions for %d instructions", name, label, p.Kernel().Ops(), len(p.Code))
				}
			}
		}
	}
}

func firstDiff(a, b []uint64) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
