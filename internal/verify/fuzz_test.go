// Mutation and fuzz tests: starting from real compiled programs that the
// analyzer certifies clean, each mutation class introduces one specific
// kind of miscompilation and must be caught under the matching rule ID.
// These tests live in an external test package because they compile
// circuits through parsim, which itself depends on verify.
package verify_test

import (
	"testing"

	"udsim/internal/align"
	"udsim/internal/gen"
	"udsim/internal/parsim"
	"udsim/internal/program"
	"udsim/internal/verify"
)

// compileSpec compiles the c432 profile circuit with 8-bit words (forcing
// multi-word fields and word-boundary carries) and returns its spec.
func compileSpec(t *testing.T, cfg parsim.Config) *verify.Spec {
	t.Helper()
	c, err := gen.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	cfg.WordBits = 8
	s, err := parsim.Compile(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := s.Spec()
	if err := verify.Check(spec, verify.Options{}).Err(); err != nil {
		t.Fatalf("baseline spec not clean: %v", err)
	}
	return spec
}

// cloneSpec deep-copies everything a mutation may touch.
func cloneSpec(s *verify.Spec) *verify.Spec {
	c := *s
	cp := func(p *program.Program) *program.Program {
		if p == nil {
			return nil
		}
		return p.Clone()
	}
	c.Init = cp(s.Init)
	c.Sim = cp(s.Sim)
	c.Fields = append([]verify.Field(nil), s.Fields...)
	c.Phase = append([]int(nil), s.Phase...)
	c.RuntimeWritten = append([]int32(nil), s.RuntimeWritten...)
	c.LiveOut = append([]int32(nil), s.LiveOut...)
	if s.Shards != nil {
		sh := *s.Shards
		sh.Level = append([]int32(nil), s.Shards.Level...)
		sh.Shard = append([]int32(nil), s.Shards.Shard...)
		c.Shards = &sh
	}
	return &c
}

// freshDef mirrors the analyzer's notion of a fresh (non-accumulating,
// non-continuation) definition.
func freshDef(in *program.Instr) bool {
	if !in.Writes() || in.Accumulates() {
		return false
	}
	if in.UsesA() && in.A == in.Dst {
		return false
	}
	if in.UsesBSlot() && in.B == in.Dst {
		return false
	}
	return true
}

// TestMutationSwapDependentInstructions moves a producer after its
// consumer; the consumer then reads a slot whose update comes later.
func TestMutationSwapDependentInstructions(t *testing.T) {
	spec := cloneSpec(compileSpec(t, parsim.Config{}))
	code := spec.Sim.Code
	firstWrite := map[int32]int{}
	var buf []int32
	swapped := false
outer:
	for j := range code {
		buf = code[j].ReadSlots(buf[:0])
		for _, s := range buf {
			if i, ok := firstWrite[s]; ok && i < j {
				code[i], code[j] = code[j], code[i]
				swapped = true
				break outer
			}
		}
		if code[j].Writes() {
			if _, ok := firstWrite[code[j].Dst]; !ok {
				firstWrite[code[j].Dst] = j
			}
		}
	}
	if !swapped {
		t.Fatal("no dependent instruction pair found")
	}
	r := verify.Check(spec, verify.Options{})
	if !r.HasRule(verify.RuleDefUse) {
		t.Fatalf("swap not detected as %s:\n%s", verify.RuleDefUse, r)
	}
}

// TestMutationCorruptShiftAmount bumps the shift of the first unit-delay
// ShlOr: the shifted value lands two phases below its destination word.
func TestMutationCorruptShiftAmount(t *testing.T) {
	spec := cloneSpec(compileSpec(t, parsim.Config{}))
	mutated := false
	for i := range spec.Sim.Code {
		in := &spec.Sim.Code[i]
		if in.Op == program.OpShlOr && in.Sh == 1 && in.B == program.None {
			in.Sh = 2
			mutated = true
			break
		}
	}
	if !mutated {
		t.Fatal("no ShlOr instruction found")
	}
	r := verify.Check(spec, verify.Options{})
	if !r.HasRule(verify.RulePhase) {
		t.Fatalf("corrupted shift not detected as %s:\n%s", verify.RulePhase, r)
	}
}

// TestMutationAliasBitFields overlaps two nets' field descriptors.
func TestMutationAliasBitFields(t *testing.T) {
	spec := cloneSpec(compileSpec(t, parsim.Config{Trim: true}))
	if len(spec.Fields) < 2 {
		t.Fatal("need at least two fields")
	}
	spec.Fields[1].Base = spec.Fields[0].Base
	r := verify.Check(spec, verify.Options{})
	if !r.HasRule(verify.RuleLayout) {
		t.Fatalf("aliased fields not detected as %s:\n%s", verify.RuleLayout, r)
	}
}

// TestMutationDuplicateProducer redirects one initialization write into a
// slot another instruction already freshly defines.
func TestMutationDuplicateProducer(t *testing.T) {
	spec := cloneSpec(compileSpec(t, parsim.Config{}))
	code := spec.Init.Code
	first := int32(-1)
	mutated := false
	for i := range code {
		in := &code[i]
		if !freshDef(in) || in.Dst >= spec.ScratchStart {
			continue
		}
		if first < 0 {
			first = in.Dst
			continue
		}
		if in.Dst != first {
			in.Dst = first
			mutated = true
			break
		}
	}
	if !mutated {
		t.Fatal("no two distinct fresh init definitions found")
	}
	r := verify.Check(spec, verify.Options{})
	if !r.HasRule(verify.RuleWAW) {
		t.Fatalf("duplicate producer not detected as %s:\n%s", verify.RuleWAW, r)
	}
}

// TestMutationDeleteOpeningDefinition nops the instruction that opens a
// scratch accumulation; the continuation then reads unwritten scratch.
func TestMutationDeleteOpeningDefinition(t *testing.T) {
	spec := cloneSpec(compileSpec(t, parsim.Config{}))
	code := spec.Sim.Code
	var buf []int32
	mutated := false
	for i := range code {
		in := &code[i]
		if !in.Writes() || in.Dst < spec.ScratchStart || !freshDef(in) {
			continue
		}
		s := in.Dst
		// The nop is only detectable if something reads s before the next
		// write to it.
		for j := i + 1; j < len(code); j++ {
			buf = code[j].ReadSlots(buf[:0])
			reads := false
			for _, rs := range buf {
				if rs == s {
					reads = true
				}
			}
			if reads {
				code[i] = program.Instr{Op: program.OpNop}
				mutated = true
				break
			}
			if code[j].Writes() && code[j].Dst == s && !code[j].Accumulates() {
				break
			}
		}
		if mutated {
			break
		}
	}
	if !mutated {
		t.Fatal("no consumed scratch definition found")
	}
	r := verify.Check(spec, verify.Options{})
	if !r.HasRule(verify.RuleDefUse) {
		t.Fatalf("deleted definition not detected as %s:\n%s", verify.RuleDefUse, r)
	}
}

// TestMutationIntroduceCycle appends a move that feeds a gate's output
// field back into one of the fields its computation read — a
// combinational cycle through the scratch chain.
func TestMutationIntroduceCycle(t *testing.T) {
	spec := cloneSpec(compileSpec(t, parsim.Config{}))
	code := spec.Sim.Code
	mutated := false
	for j := range code {
		in := &code[j]
		if in.Op != program.OpShlOr || in.A < spec.ScratchStart {
			continue
		}
		dstField := in.Dst
		// Find the fold that produced the scratch operand and one of the
		// persistent fields it read.
		for i := j - 1; i >= 0; i-- {
			if !code[i].Writes() || code[i].Dst != in.A {
				continue
			}
			src := code[i].A
			if src >= 0 && src < spec.ScratchStart && src != dstField {
				spec.Sim.Code = append(spec.Sim.Code, program.Instr{
					Op: program.OpMove, Dst: src, A: dstField, B: program.None,
				})
				mutated = true
			}
			break
		}
		if mutated {
			break
		}
	}
	if !mutated {
		t.Fatal("no gate input/output field pair found")
	}
	r := verify.Check(spec, verify.Options{})
	if !r.HasRule(verify.RuleCycle) {
		t.Fatalf("introduced cycle not detected as %s:\n%s", verify.RuleCycle, r)
	}
}

// TestMutationCorruptOpcode smashes an opcode byte.
func TestMutationCorruptOpcode(t *testing.T) {
	spec := cloneSpec(compileSpec(t, parsim.Config{}))
	spec.Sim.Code[0].Op = 250
	r := verify.Check(spec, verify.Options{})
	if !r.HasRule(verify.RuleStructure) {
		t.Fatalf("corrupt opcode not detected as %s:\n%s", verify.RuleStructure, r)
	}
}

// TestMutationsOnAlignedPrograms re-runs the shift corruption against the
// shift-eliminated layout, whose ShrMove carries must stay consistent.
func TestMutationsOnAlignedPrograms(t *testing.T) {
	c, err := gen.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	spec := func() *verify.Spec {
		norm, a, err := parsim.Analyze(c)
		if err != nil {
			t.Fatal(err)
		}
		res := align.PathTrace(a)
		if err := res.Validate(); err != nil {
			t.Fatal(err)
		}
		s, err := parsim.Compile(norm, parsim.Config{WordBits: 8, Align: res})
		if err != nil {
			t.Fatal(err)
		}
		sp := s.Spec()
		if err := verify.Check(sp, verify.Options{}).Err(); err != nil {
			t.Fatalf("baseline aligned spec not clean: %v", err)
		}
		return sp
	}()
	mutated := false
	for i := range spec.Sim.Code {
		in := &spec.Sim.Code[i]
		if in.Op == program.OpShrMove && in.Sh >= 1 && in.Sh < 7 {
			in.Sh++
			mutated = true
			break
		}
	}
	if !mutated {
		t.Skip("aligned c432 program has no interior ShrMove")
	}
	r := verify.Check(spec, verify.Options{})
	if !r.HasRule(verify.RulePhase) {
		t.Fatalf("corrupted aligned shift not detected as %s:\n%s", verify.RulePhase, r)
	}
}

// FuzzCheck feeds arbitrary instruction streams through the analyzer:
// whatever the bytes decode to, Check must terminate without panicking
// and report structural problems as findings.
func FuzzCheck(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{255, 254, 253, 252})
	f.Add([]byte{3, 0, 1, 2, 3, 4, 0, 0, 9, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const nv = 8
		var code []program.Instr
		for i := 0; i+3 < len(data); i += 4 {
			code = append(code, program.Instr{
				Op:  program.Op(data[i] % 24), // includes invalid opcodes
				Dst: int32(data[i+1]%10) - 1,  // includes −1 and out-of-range
				A:   int32(data[i+2]%10) - 1,
				B:   int32(data[i+3]%10) - 1,
				Sh:  data[i] % 9,
			})
		}
		spec := &verify.Spec{
			Name:           "fuzz",
			Sim:            &program.Program{WordBits: 8, NumVars: nv, Code: code},
			ScratchStart:   4,
			RuntimeWritten: []int32{0},
			LiveOut:        []int32{1, 2},
		}
		if len(data) > 0 && data[0]%2 == 0 {
			spec.Phase = []int{0, 0, 1, 8, verify.NoPhase, verify.NoPhase, verify.NoPhase, verify.NoPhase}
		}
		if len(data) > 1 && data[1]%3 == 0 {
			// Arbitrary shard schedules, including malformed shapes and
			// out-of-range coordinates, must surface as V008/V012 findings,
			// never panics.
			lv := make([]int32, len(code))
			shd := make([]int32, len(code))
			for i := range code {
				lv[i] = int32(data[(i+2)%len(data)]%6) - 1
				shd[i] = int32(data[(i+3)%len(data)]%5) - 1
			}
			spec.Shards = &verify.ShardAssignment{
				Workers: int(data[1] % 4), Levels: int(data[1] % 6),
				Level: lv, Shard: shd,
			}
		}
		verify.Check(spec, verify.Options{ReportDead: true, ReportConst: true})
	})
}
