package codegen

import (
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"udsim/internal/align"
	"udsim/internal/ckttest"
	"udsim/internal/gen"
	"udsim/internal/lcc"
	"udsim/internal/parsim"
	"udsim/internal/pcset"
	"udsim/internal/program"
	"udsim/internal/verify"
)

// allUnits compiles Fig. 4 with every technique and collects the programs.
func allUnits(t *testing.T) map[string][]Unit {
	t.Helper()
	c := ckttest.Fig4()
	out := map[string][]Unit{}

	l, err := lcc.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	out["lcc"] = []Unit{{Name: "sim", Prog: l.Program()}}

	p, err := pcset.Compile(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	pi, ps := p.Programs()
	out["pcset"] = []Unit{{Name: "initvec", Prog: pi}, {Name: "sim", Prog: ps}}

	par, err := parsim.Compile(c, parsim.Config{WordBits: 32})
	if err != nil {
		t.Fatal(err)
	}
	pri, prs := par.Programs()
	out["parallel"] = []Unit{{Name: "initvec", Prog: pri}, {Name: "sim", Prog: prs}}

	norm, a, err := parsim.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := parsim.Compile(norm, parsim.Config{WordBits: 32, Trim: true, Align: align.PathTrace(a)})
	if err != nil {
		t.Fatal(err)
	}
	oi, os := opt.Programs()
	out["optimized"] = []Unit{{Name: "initvec", Prog: oi}, {Name: "sim", Prog: os}}
	return out
}

func TestGoEmissionParses(t *testing.T) {
	for tech, units := range allUnits(t) {
		var b strings.Builder
		n, err := Emit(&b, Go, "gensim", units)
		if err != nil {
			t.Fatalf("%s: %v", tech, err)
		}
		if n == 0 && tech != "optimized" {
			t.Errorf("%s: no statements emitted", tech)
		}
		if err := CheckGo(b.String()); err != nil {
			t.Errorf("%s: generated Go does not parse: %v\n%s", tech, err, b.String())
		}
	}
}

func TestCEmissionShape(t *testing.T) {
	for tech, units := range allUnits(t) {
		var b strings.Builder
		if _, err := Emit(&b, C, "gensim", units); err != nil {
			t.Fatalf("%s: %v", tech, err)
		}
		src := b.String()
		if !strings.Contains(src, "#include <stdint.h>") {
			t.Errorf("%s: missing include", tech)
		}
		if !strings.Contains(src, "void sim(uint") {
			t.Errorf("%s: missing sim function:\n%s", tech, src)
		}
		// Every statement line ends with a semicolon.
		for _, line := range strings.Split(src, "\n") {
			l := strings.TrimSpace(line)
			if strings.HasPrefix(l, "st[") && !strings.HasSuffix(l, ";") &&
				!strings.Contains(l, "/*") {
				t.Errorf("%s: statement without semicolon: %q", tech, line)
			}
		}
	}
}

func TestStatementCountMatchesInstructions(t *testing.T) {
	units := allUnits(t)["pcset"]
	var b strings.Builder
	n, err := Emit(&b, Go, "g", units)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, u := range units {
		want += len(u.Prog.Code)
	}
	if n != want {
		t.Errorf("statement count %d, want %d", n, want)
	}
}

func TestAllOpcodesEmit(t *testing.T) {
	// A synthetic program touching every opcode must emit in both
	// languages and parse as Go.
	code := []program.Instr{
		{Op: program.OpNop},
		{Op: program.OpAnd, Dst: 0, A: 1, B: 2},
		{Op: program.OpOr, Dst: 0, A: 1, B: 2},
		{Op: program.OpXor, Dst: 0, A: 1, B: 2},
		{Op: program.OpNand, Dst: 0, A: 1, B: 2},
		{Op: program.OpNor, Dst: 0, A: 1, B: 2},
		{Op: program.OpXnor, Dst: 0, A: 1, B: 2},
		{Op: program.OpNot, Dst: 0, A: 1, B: program.None},
		{Op: program.OpMove, Dst: 0, A: 1, B: program.None},
		{Op: program.OpOrMove, Dst: 0, A: 1, B: program.None},
		{Op: program.OpConst0, Dst: 0, A: program.None, B: program.None},
		{Op: program.OpConst1, Dst: 0, A: program.None, B: program.None},
		{Op: program.OpShlOr, Dst: 0, A: 1, B: program.None, Sh: 1},
		{Op: program.OpShlOr, Dst: 0, A: 1, B: 2, Sh: 1},
		{Op: program.OpShlMove, Dst: 0, A: 1, B: 2, Sh: 3},
		{Op: program.OpShlMove, Dst: 0, A: 1, B: program.None, Sh: 3},
		{Op: program.OpShrMove, Dst: 0, A: 1, B: 2, Sh: 3},
		{Op: program.OpShrMove, Dst: 0, A: 1, B: program.None, Sh: 3},
		{Op: program.OpFill, Dst: 0, A: 1, B: program.None, Sh: 7},
		{Op: program.OpBit, Dst: 0, A: 1, B: program.None, Sh: 7},
	}
	p := &program.Program{WordBits: 32, NumVars: 3, Code: code}
	for _, lang := range []Language{C, Go} {
		var b strings.Builder
		n, err := Emit(&b, lang, "g", []Unit{{Name: "sim", Prog: p}})
		if err != nil {
			t.Fatalf("%v: %v", lang, err)
		}
		if n != len(code)-1 { // nop emits nothing
			t.Errorf("%v: %d statements, want %d", lang, n, len(code)-1)
		}
		if lang == Go {
			if err := CheckGo(b.String()); err != nil {
				t.Errorf("Go output does not parse: %v\n%s", err, b.String())
			}
		}
	}
}

// TestGeneratedGoSemantics interprets the emitted Go via the reference
// executor contract: running the program through program.Run must produce
// the same state that manual evaluation of the generated statements would.
// As a proxy, we emit from a small PC-set compile, run the in-process
// executor, and check a couple of values embedded in the text.
func TestPCSetCodeMatchesPaperFig4(t *testing.T) {
	units := allUnits(t)["pcset"]
	var b strings.Builder
	if _, err := Emit(&b, C, "fig4", units); err != nil {
		t.Fatal(err)
	}
	src := b.String()
	// The paper's Fig. 4 generated code contains exactly three AND gate
	// simulations and one initialization move.
	if got := strings.Count(src, "&"); got < 3 {
		t.Errorf("expected at least 3 AND statements, got %d:\n%s", got, src)
	}
}

// compileProofBudget caps the per-emission statement count the
// compile-proof test hands to the external toolchain by default. The
// compiler's cost on one straight-line function grows superlinearly
// (~11s at 10k statements even with -N -l; the 73k-statement c6288
// PC-set emission takes tens of minutes), so the giant tail would blow
// the package's test budget. 16000 covers both techniques on eight
// circuits and the parallel technique on all ten; over-budget emissions
// are skipped loudly, never silently, and UDSIM_COMPILE_PROOF=full
// lifts the cap for an exhaustive (slow) sweep.
const compileProofBudget = 16000

// TestEmittedGoCompiles is the compile-proof upgrade of the parse check:
// on every profile circuit, both compiled techniques' Go emissions must
// build with the real toolchain, not merely parse. Each emission becomes
// a module of its own in a temp dir; optimization is turned off
// (-gcflags -N -l) because the interesting property is acceptance, not
// code quality.
func TestEmittedGoCompiles(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
	if testing.Short() {
		t.Skip("builds twenty emissions with the external toolchain")
	}
	full := os.Getenv("UDSIM_COMPILE_PROOF") == "full"
	for _, name := range gen.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, err := gen.ISCAS85(name)
			if err != nil {
				t.Fatal(err)
			}
			par, err := parsim.Compile(c, parsim.Config{WordBits: 64})
			if err != nil {
				t.Fatal(err)
			}
			pi, ps := par.Programs()
			pc, err := pcset.Compile(c, nil)
			if err != nil {
				t.Fatal(err)
			}
			qi, qs := pc.Programs()
			for _, tc := range []struct {
				tech  string
				units []Unit
			}{
				{"parallel", []Unit{{Name: "initvec", Prog: pi}, {Name: "simvec", Prog: ps}}},
				{"pcset", []Unit{{Name: "initvec", Prog: qi}, {Name: "simvec", Prog: qs}}},
			} {
				tc := tc
				t.Run(tc.tech, func(t *testing.T) {
					t.Parallel()
					var b strings.Builder
					n, err := Emit(&b, Go, "gensim", tc.units)
					if err != nil {
						t.Fatal(err)
					}
					if n > compileProofBudget && !full {
						t.Skipf("%d statements exceeds the %d-statement compile budget (set UDSIM_COMPILE_PROOF=full to build it)",
							n, compileProofBudget)
					}
					dir := t.TempDir()
					if err := os.WriteFile(filepath.Join(dir, "go.mod"),
						[]byte("module gensim\n\ngo 1.21\n"), 0o644); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(filepath.Join(dir, "gensim.go"),
						[]byte(b.String()), 0o644); err != nil {
						t.Fatal(err)
					}
					cmd := exec.Command(goTool, "build", "-gcflags=-N -l", "./...")
					cmd.Dir = dir
					if out, err := cmd.CombinedOutput(); err != nil {
						t.Fatalf("emitted Go does not compile: %v\n%s", err, out)
					}
				})
			}
		})
	}
}

func TestEmitErrors(t *testing.T) {
	var b strings.Builder
	if _, err := Emit(&b, Go, "g", nil); err == nil {
		t.Error("expected no-units error")
	}
	p8 := &program.Program{WordBits: 8, NumVars: 1}
	p16 := &program.Program{WordBits: 16, NumVars: 1}
	if _, err := Emit(&b, Go, "g", []Unit{{Name: "a", Prog: p8}, {Name: "b", Prog: p16}}); err == nil {
		t.Error("expected mixed-width error")
	}
	if _, err := Emit(&b, Language(99), "g", []Unit{{Name: "a", Prog: p8}}); err == nil {
		t.Error("expected unknown-language error")
	}
}

func TestLanguageString(t *testing.T) {
	if C.String() != "C" || Go.String() != "Go" {
		t.Error("language names wrong")
	}
}

func TestEmitChecked(t *testing.T) {
	c := ckttest.Fig4()
	par, err := parsim.Compile(c, parsim.Config{WordBits: 32})
	if err != nil {
		t.Fatal(err)
	}
	pi, ps := par.Programs()
	units := []Unit{{Name: "initvec", Prog: pi}, {Name: "sim", Prog: ps}}

	// A clean spec emits normally.
	var b strings.Builder
	n, err := EmitChecked(&b, Go, "gen", units, par.Spec(), verify.Options{})
	if err != nil {
		t.Fatalf("EmitChecked on clean spec: %v", err)
	}
	if n == 0 || b.Len() == 0 {
		t.Fatal("no code emitted")
	}

	// A corrupted spec refuses to emit.
	spec := par.Spec()
	bad := spec.Sim.Clone()
	bad.Code[0].Op = 200
	spec.Sim = bad
	units[1].Prog = bad
	if _, err := EmitChecked(io.Discard, Go, "gen", units, spec, verify.Options{}); err == nil {
		t.Fatal("EmitChecked emitted code from a structurally invalid program")
	}

	// A nil spec skips verification.
	if _, err := EmitChecked(io.Discard, Go, "gen",
		[]Unit{{Name: "sim", Prog: ps}}, nil, verify.Options{}); err != nil {
		t.Fatal(err)
	}
}
