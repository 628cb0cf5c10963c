package vet

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// parse builds a Pass-ready file list from (filename, source) pairs.
func parse(t *testing.T, srcs map[string]string) (*token.FileSet, []File) {
	t.Helper()
	fset := token.NewFileSet()
	var files []File
	for name, src := range srcs {
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		files = append(files, File{Path: name, AST: f})
	}
	return fset, files
}

// diagsContain asserts exactly want diagnostics fired and each expected
// substring appears in one.
func diagsContain(t *testing.T, diags []Diagnostic, want int, subs ...string) {
	t.Helper()
	if len(diags) != want {
		t.Fatalf("got %d diagnostics, want %d: %v", len(diags), want, diags)
	}
	for _, sub := range subs {
		found := false
		for _, d := range diags {
			if strings.Contains(d.String(), sub) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic contains %q in %v", sub, diags)
		}
	}
}

const obsCounters = `package obs

import "sync/atomic"

type Observer struct {
	vectors atomic.Int64
	steps   []atomic.Int64
	faults  [4]atomic.Int64
	name    string
}
`

func TestAtomicCounterAllowsAPI(t *testing.T) {
	fset, files := parse(t, map[string]string{
		"obs.go": obsCounters,
		"use.go": `package obs

func (o *Observer) ok(n int64) int64 {
	o.vectors.Add(n)
	o.faults[2].Store(0)
	for i := range o.steps {
		o.steps[i].Load()
	}
	o.steps = make([]atomic.Int64, 8)
	o.steps = nil
	_ = len(o.steps)
	if o.steps != nil {
		return 0
	}
	return o.vectors.Load()
}
`,
	})
	diags := Run(fset, files, []*Analyzer{AtomicCounter()})
	if len(diags) != 0 {
		t.Fatalf("unexpected diagnostics: %v", diags)
	}
}

func TestAtomicCounterFlagsRawAccess(t *testing.T) {
	fset, files := parse(t, map[string]string{
		"obs.go": obsCounters,
		"bad.go": `package obs

import "sync/atomic"

func (o *Observer) bad(p *Observer) int64 {
	v := o.vectors          // copy of an atomic value
	o.faults = p.faults     // array copy: two raw accesses
	var s atomic.Int64
	o.steps = append(o.steps, s) // not a make/nil re-init: both sides fire
	return v.Load()
}
`,
	})
	diags := Run(fset, files, []*Analyzer{AtomicCounter()})
	diagsContain(t, diags, 5,
		"counter field vectors", "counter field faults", "counter field steps")
}

func TestAtomicCounterIgnoresOtherPackages(t *testing.T) {
	fset, files := parse(t, map[string]string{
		"obs.go": obsCounters,
		"other.go": `package other

type thing struct{ vectors int }

func raw(t *thing) int { return t.vectors }
`,
	})
	diags := Run(fset, files, []*Analyzer{AtomicCounter()})
	if len(diags) != 0 {
		t.Fatalf("unexpected diagnostics: %v", diags)
	}
}

// TestRepoIsVetClean runs the multichecker over the repository itself —
// the same gate the CI lint leg enforces.
func TestRepoIsVetClean(t *testing.T) {
	_, here, _, ok := runtime.Caller(0)
	if !ok {
		t.Skip("caller path unavailable")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(here)))
	fset, files, err := Load([]string{root})
	if err != nil {
		t.Fatal(err)
	}
	if diags := Run(fset, files, Analyzers()); len(diags) != 0 {
		t.Errorf("repository is not udvet-clean:")
		for _, d := range diags {
			t.Errorf("  %s", d)
		}
	}
}

func TestDiagnosticOrderDeterministic(t *testing.T) {
	srcs := map[string]string{
		"obs.go": obsCounters,
		"b.go": `package obs

func (o *Observer) b() { _ = o.vectors }
`,
		"a.go": `package obs

func (o *Observer) a() { _ = o.vectors; _ = o.steps[0] }
`,
	}
	var last string
	for i := 0; i < 4; i++ {
		fset, files := parse(t, srcs)
		diags := Run(fset, files, Analyzers())
		var b strings.Builder
		for _, d := range diags {
			b.WriteString(d.String())
			b.WriteByte('\n')
		}
		if i > 0 && b.String() != last {
			t.Fatalf("diagnostic order not deterministic:\n%s\nvs\n%s", b.String(), last)
		}
		last = b.String()
	}
	if !strings.HasPrefix(last, "a.go") {
		t.Fatalf("expected a.go diagnostics first:\n%s", last)
	}
}
