package validate

import (
	"strings"
	"testing"

	"udsim/internal/ckttest"
	"udsim/internal/codegen/ir"
	"udsim/internal/parsim"
	"udsim/internal/pcset"
	"udsim/internal/program"
	"udsim/internal/verify"
)

// fig4Parallel compiles the paper's Fig. 4 circuit with the parallel
// technique and returns the emission inputs.
func fig4Parallel(t *testing.T) ([]ir.Source, *verify.Spec) {
	t.Helper()
	s, err := parsim.Compile(ckttest.Fig4(), parsim.Config{WordBits: 32})
	if err != nil {
		t.Fatal(err)
	}
	pi, ps := s.Programs()
	units := []ir.Source{{Name: "initvec", Prog: pi}, {Name: "simvec", Prog: ps}}
	return units, s.Spec()
}

func fig4PCSet(t *testing.T) ([]ir.Source, *verify.Spec) {
	t.Helper()
	s, err := pcset.Compile(ckttest.Fig4(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pi, ps := s.Programs()
	units := []ir.Source{{Name: "initvec", Prog: pi}, {Name: "simvec", Prog: ps}}
	return units, s.Spec()
}

func TestCleanEmissionValidates(t *testing.T) {
	for name, build := range map[string]func(*testing.T) ([]ir.Source, *verify.Spec){
		"parallel": fig4Parallel, "pcset": fig4PCSet,
	} {
		units, spec := build(t)
		res, err := CheckUnits("gensim", units, spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := res.Report.Err(); err != nil {
			t.Fatalf("%s: clean emission did not validate: %v", name, err)
		}
		if res.Exact == 0 {
			t.Errorf("%s: no exact decisions", name)
		}
		if res.Semantic != 0 {
			t.Errorf("%s: deterministic emitter produced %d semantic decisions", name, res.Semantic)
		}
		if res.Cert == nil || res.Cert.Decisions() != res.Exact {
			t.Errorf("%s: certificate does not cover every decision", name)
		}
	}
}

func TestCertificateReplays(t *testing.T) {
	units, spec := fig4Parallel(t)
	goSrc, cSrc, err := Sources("gensim", units)
	if err != nil {
		t.Fatal(err)
	}
	res := Check("gensim", goSrc, cSrc, units, spec)
	if err := res.Report.Err(); err != nil {
		t.Fatal(err)
	}
	r := Replay(res.Cert, "gensim", goSrc, cSrc, units, spec)
	if err := r.Err(); err != nil {
		t.Fatalf("authentic certificate did not replay: %v", err)
	}
}

func TestCertificateTamperDetected(t *testing.T) {
	units, spec := fig4Parallel(t)
	goSrc, cSrc, err := Sources("gensim", units)
	if err != nil {
		t.Fatal(err)
	}
	res := Check("gensim", goSrc, cSrc, units, spec)

	copyCert := func() *Certificate {
		c := *res.Cert
		c.Units = append([]UnitCert(nil), res.Cert.Units...)
		for i := range c.Units {
			c.Units[i].Decisions = append([]Decision(nil), res.Cert.Units[i].Decisions...)
		}
		return &c
	}

	t.Run("wrong-hash", func(t *testing.T) {
		c := copyCert()
		c.GoSHA256 = strings.Repeat("0", 64)
		if r := Replay(c, "gensim", goSrc, cSrc, units, spec); !r.HasRule(verify.RuleLiftCert) {
			t.Fatal("hash tamper not detected")
		}
	})
	t.Run("unproven-method", func(t *testing.T) {
		c := copyCert()
		c.Units[1].Decisions[0].Method = "sampled"
		if r := Replay(c, "gensim", goSrc, cSrc, units, spec); !r.HasRule(verify.RuleLiftCert) {
			t.Fatal("unproven method accepted")
		}
	})
	t.Run("drifted-decision", func(t *testing.T) {
		c := copyCert()
		c.Units[1].Decisions[0].Dst++
		if r := Replay(c, "gensim", goSrc, cSrc, units, spec); !r.HasRule(verify.RuleLiftCert) {
			t.Fatal("decision drift not detected")
		}
	})
	t.Run("missing-decisions", func(t *testing.T) {
		c := copyCert()
		c.Units[1].Decisions = c.Units[1].Decisions[:1]
		if r := Replay(c, "gensim", goSrc, cSrc, units, spec); !r.HasRule(verify.RuleLiftCert) {
			t.Fatal("truncated certificate accepted")
		}
	})
	t.Run("stale-source", func(t *testing.T) {
		// Certificate from this emission, replayed against a different one.
		other := strings.Replace(goSrc, "st[0]", "st[1]", 1)
		if r := Replay(res.Cert, "gensim", other, cSrc, units, spec); !r.HasRule(verify.RuleLiftCert) {
			t.Fatal("stale certificate accepted against a different source")
		}
	})
}

// mutateSim deep-copies the units and applies f to the sim program.
func mutateSim(units []ir.Source, f func(p *program.Program)) []ir.Source {
	out := make([]ir.Source, len(units))
	for i, u := range units {
		out[i] = ir.Source{Name: u.Name, Prog: u.Prog.Clone()}
	}
	f(out[len(out)-1].Prog)
	return out
}

// findOp returns the index of the first sim instruction matching ops.
func findOp(t *testing.T, p *program.Program, match func(*program.Instr) bool) int {
	t.Helper()
	for i := range p.Code {
		if match(&p.Code[i]) {
			return i
		}
	}
	t.Skip("no matching instruction in this compile")
	return -1
}

// TestMutationSuite deliberately miscompiles — emits source from a
// mutated program — and requires the validator to catch every mutant
// with the mutated instruction's coordinate as witness.
func TestMutationSuite(t *testing.T) {
	units, spec := fig4Parallel(t)

	// A synthetic unit exercising the opcodes Fig. 4's compile may lack
	// (masked fill, carry shifts), validated against a matching spec.
	synth := &program.Program{WordBits: 32, NumVars: 6, Code: []program.Instr{
		{Op: program.OpShrMove, Dst: 2, A: 0, B: 1, Sh: 3},
		{Op: program.OpFillLowN, Dst: 3, A: 0, B: 7, Sh: 2},
		{Op: program.OpShlMove, Dst: 4, A: 1, B: 0, Sh: 5},
		{Op: program.OpFill, Dst: 5, A: 2, B: program.None, Sh: 9},
	}}
	synthUnits := []ir.Source{{Name: "simvec", Prog: synth}}

	type class struct {
		name  string
		units []ir.Source // original emission inputs
		spec  *verify.Spec
		pick  func(*testing.T, *program.Program) int
		apply func(*program.Instr)
	}
	classes := []class{
		{"swapped-operands", synthUnits, nil,
			func(t *testing.T, p *program.Program) int { return 0 },
			func(in *program.Instr) { in.A, in.B = in.B, in.A }},
		{"dropped-statement", units, spec,
			func(t *testing.T, p *program.Program) int {
				return findOp(t, p, func(in *program.Instr) bool { return in.Op != program.OpNop })
			},
			func(in *program.Instr) { *in = program.Instr{Op: program.OpNop} }},
		{"wrong-shift", synthUnits, nil,
			func(t *testing.T, p *program.Program) int { return 3 },
			func(in *program.Instr) { in.Sh++ }},
		{"widened-mask", synthUnits, nil,
			func(t *testing.T, p *program.Program) int { return 1 },
			func(in *program.Instr) { in.B++ }},
		{"wrong-opcode", units, spec,
			func(t *testing.T, p *program.Program) int {
				return findOp(t, p, func(in *program.Instr) bool {
					return in.Op == program.OpAnd && in.A != in.B
				})
			},
			func(in *program.Instr) { in.Op = program.OpOr }},
		{"redirected-destination", units, spec,
			func(t *testing.T, p *program.Program) int {
				return findOp(t, p, func(in *program.Instr) bool { return in.Op != program.OpNop })
			},
			func(in *program.Instr) {
				in.Dst = (in.Dst + 1) % int32(spec.Sim.NumVars)
			}},
		{"duplicated-statement", units, spec,
			func(t *testing.T, p *program.Program) int {
				return 1 + findOp(t, p, func(in *program.Instr) bool { return in.Op != program.OpNop })
			},
			func(in *program.Instr) {}}, // handled below: overwrite with predecessor
		{"carry-swap", synthUnits, nil,
			func(t *testing.T, p *program.Program) int { return 2 },
			func(in *program.Instr) { in.A, in.B = in.B, in.A }},
	}

	for _, cl := range classes {
		t.Run(cl.name, func(t *testing.T) {
			idx := cl.pick(t, cl.units[len(cl.units)-1].Prog)
			mutated := mutateSim(cl.units, func(p *program.Program) {
				if cl.name == "duplicated-statement" {
					p.Code[idx] = p.Code[idx-1]
					return
				}
				cl.apply(&p.Code[idx])
			})
			goSrc, cSrc, err := Sources("gensim", mutated)
			if err != nil {
				t.Fatal(err)
			}
			res := Check("gensim", goSrc, cSrc, cl.units, cl.spec)
			if res.Report.Count(verify.SevError) == 0 {
				t.Fatalf("mutant not caught:\n%s", res.Report)
			}
			witnessed := false
			for _, f := range res.Report.Findings {
				if f.Rule == verify.RuleLift && f.Severity == verify.SevError && f.Instr == idx {
					witnessed = true
				}
			}
			if !witnessed {
				t.Fatalf("mutant caught without the instruction-coordinate witness (want instr %d):\n%s",
					idx, res.Report)
			}
		})
	}
}

// TestCOnlyMutantCaught mutates the C emission alone: the Go side lifts
// clean, so only the IR re-render comparison can catch it.
func TestCOnlyMutantCaught(t *testing.T) {
	units, spec := fig4Parallel(t)
	goSrc, cSrc, err := Sources("gensim", units)
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(cSrc, " & ", " | ", 1)
	if bad == cSrc {
		t.Fatal("no AND statement to mutate")
	}
	res := Check("gensim", goSrc, bad, units, spec)
	found := false
	for _, f := range res.Report.Findings {
		if f.Rule == verify.RuleLift && f.Severity == verify.SevError && f.Instr >= 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("C-side mutant not caught with a coordinate witness:\n%s", res.Report)
	}
}

// TestSemanticFallback hand-canonicalizes emitted statements into
// equivalent-but-different forms; the symbolic evaluator must prove them
// and record semantic decisions.
func TestSemanticFallback(t *testing.T) {
	p := &program.Program{WordBits: 16, NumVars: 4, Code: []program.Instr{
		{Op: program.OpAnd, Dst: 2, A: 0, B: 1},
		{Op: program.OpNand, Dst: 3, A: 0, B: 1},
	}}
	units := []ir.Source{{Name: "simvec", Prog: p}}
	goSrc := `// Package gensim holds generated unit-delay compiled simulation code.
package gensim

func simvec(st []uint16) {
	st[2] = st[1] & st[0]
	st[3] = ^st[0] | ^st[1]
}
`
	res := Check("gensim", goSrc, "", units, nil)
	if err := res.Report.Err(); err != nil {
		t.Fatalf("equivalent canonicalization rejected: %v", err)
	}
	if res.Semantic != 2 {
		t.Fatalf("want 2 semantic decisions, got %d exact / %d semantic", res.Exact, res.Semantic)
	}

	// The same shapes with a real divergence must still fail.
	badSrc := strings.Replace(goSrc, "^st[0] | ^st[1]", "^st[0] & ^st[1]", 1)
	res = Check("gensim", badSrc, "", units, nil)
	if res.Report.Count(verify.SevError) == 0 {
		t.Fatal("inequivalent canonicalization accepted")
	}
}

// TestHygieneOnAST duplicates an emitted statement textually: the lifted
// stream then assigns one persistent slot twice, which V018 must report
// from the AST evidence alone.
func TestHygieneOnAST(t *testing.T) {
	units, spec := fig4Parallel(t)
	goSrc, _, err := Sources("gensim", units)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate the first simvec statement line.
	lines := strings.Split(goSrc, "\n")
	out := make([]string, 0, len(lines)+1)
	inSim, done := false, false
	for _, l := range lines {
		out = append(out, l)
		if strings.HasPrefix(l, "func simvec") {
			inSim = true
			continue
		}
		if inSim && !done && strings.HasPrefix(strings.TrimSpace(l), "st[") {
			out = append(out, l)
			done = true
		}
	}
	if !done {
		t.Fatal("no statement to duplicate")
	}
	res := Check("gensim", strings.Join(out, "\n"), "", units, spec)
	if res.Report.Count(verify.SevError) == 0 {
		t.Fatal("duplicated statement accepted")
	}
	if !res.Report.HasRule(verify.RuleLift) {
		t.Errorf("no V016 finding for the extra statement:\n%s", res.Report)
	}
}

// TestHygieneDoubleAssign feeds a hand-built emission whose statement
// stream matches the program exactly — but the program itself double
// assigns a persistent slot. V018's AST proof must flag it even though
// V016 stream comparison passes.
func TestHygieneDoubleAssign(t *testing.T) {
	p := &program.Program{WordBits: 8, NumVars: 3, Code: []program.Instr{
		{Op: program.OpMove, Dst: 2, A: 0, B: program.None},
		{Op: program.OpMove, Dst: 2, A: 1, B: program.None},
	}}
	units := []ir.Source{{Name: "simvec", Prog: p}}
	spec := &verify.Spec{Name: "synth", Sim: p, ScratchStart: 3,
		RuntimeWritten: []int32{0, 1}, LiveOut: []int32{2}}
	goSrc, cSrc, err := Sources("gensim", units)
	if err != nil {
		t.Fatal(err)
	}
	res := Check("gensim", goSrc, cSrc, units, spec)
	if !res.Report.HasRule(verify.RuleEmitHygiene) {
		t.Fatalf("double assignment not re-proven on the AST:\n%s", res.Report)
	}
}

func TestLiftRejectsForeignCode(t *testing.T) {
	units, _ := fig4Parallel(t)
	for name, src := range map[string]string{
		"syntax-error":  "package gensim\nfunc simvec(st []uint32) { st[0] = }\n",
		"non-function":  "package gensim\nvar x = 1\n",
		"loop-body":     "package gensim\nfunc initvec(st []uint32) {\n\tfor range st {\n\t}\n}\n",
		"call-body":     "package gensim\nfunc initvec(st []uint32) {\n\tst[0] = f(st[1])\n}\n",
		"bad-signature": "package gensim\nfunc initvec(st []float64) {\n\t_ = st\n}\n",
	} {
		res := Check("gensim", src, "", units, nil)
		if res.Report.Count(verify.SevError) == 0 {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFindingOrderDeterministic(t *testing.T) {
	units, spec := fig4Parallel(t)
	mutated := mutateSim(units, func(p *program.Program) {
		for i := range p.Code {
			if p.Code[i].Op != program.OpNop {
				p.Code[i].Dst = (p.Code[i].Dst + 1) % int32(p.NumVars)
			}
		}
	})
	goSrc, cSrc, err := Sources("gensim", mutated)
	if err != nil {
		t.Fatal(err)
	}
	first := Check("gensim", goSrc, cSrc, units, spec).Report.String()
	for i := 0; i < 3; i++ {
		if got := Check("gensim", goSrc, cSrc, units, spec).Report.String(); got != first {
			t.Fatal("finding order is not deterministic")
		}
	}
}
