package udsim

import (
	"bytes"
	"strings"
	"testing"

	"udsim/internal/vectors"
)

// TestFacadeAccessors sweeps the thin wrappers the larger tests miss.
func TestFacadeAccessors(t *testing.T) {
	c := glitchCircuit()

	par, err := openParallelSim(c, WithTrimming(), WithWordBits(16))
	if err != nil {
		t.Fatal(err)
	}
	if par.EngineName() != "parallel+trim" {
		t.Errorf("name %q", par.EngineName())
	}
	if par.CodeSize() == 0 || par.WordsPerField() != 1 || par.ShiftCount() == 0 {
		t.Errorf("stats: code=%d words=%d shifts=%d", par.CodeSize(), par.WordsPerField(), par.ShiftCount())
	}
	_ = par.ResetConsistent(nil)
	_ = par.Apply([]bool{true})
	cid, _ := par.Circuit().NetByName("C")
	if h := par.History(cid); len(h) != par.Depth()+1 {
		t.Errorf("history length %d", len(h))
	}

	pt, err := openParallelSim(c, WithShiftElimination(PathTracing))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pt.EngineName(), "path-tracing") {
		t.Errorf("name %q", pt.EngineName())
	}
	cb, err := openParallelSim(c, WithShiftElimination(CycleBreaking))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cb.EngineName(), "cycle-breaking") {
		t.Errorf("name %q", cb.EngineName())
	}

	ps, err := openPCSetSim(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ps.NumVars() == 0 || ps.CodeSize() == 0 || ps.EngineName() != "pcset" {
		t.Error("pcset stats wrong")
	}
	_ = ps.ResetConsistent(nil)
	vecs := vectors.Random(64, 1, 3)
	if err := ps.ApplyLanes(vecs.Packed()[0]); err != nil {
		t.Fatal(err)
	}
	if _, ok := ps.LaneValueAt(cid, ps.Depth(), 63); !ok {
		t.Error("lane value unobservable at depth")
	}
	for _, lane := range []int{-1, 64} {
		if _, ok := ps.LaneValueAt(cid, ps.Depth(), lane); ok {
			t.Errorf("nonexistent lane %d reported observable", lane)
		}
	}

	ev, err := NewEventDriven(c, true)
	if err != nil {
		t.Fatal(err)
	}
	_ = ev.ResetConsistent(nil)
	if err := ev.ApplyFast([]bool{true}); err != nil {
		t.Fatal(err)
	}
	if ev.Evals() == 0 || ev.Events() == 0 {
		t.Error("event counters zero")
	}
	if ev.Value3(cid).Valid() == false {
		t.Error("Value3 invalid")
	}
	if _, ok := ev.ValueAt(cid, 0); ok {
		t.Error("ApplyFast must not retain a trace")
	}
	if ev.EngineName() != "event-driven-3v" {
		t.Errorf("name %q", ev.EngineName())
	}

	zi, err := NewZeroDelayInterpreted(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := zi.ApplyVector([]bool{true}); err != nil {
		t.Fatal(err)
	}
	ziC, _ := zi.Circuit().NetByName("C")
	if zi.Value(ziC) != V0 {
		t.Errorf("steady C = %v", zi.Value(ziC))
	}

	zd, _ := NewZeroDelay(c)
	if zd.EngineName() != "lcc-zero-delay" || zd.Depth() != 0 {
		t.Error("zero-delay accessors wrong")
	}
}

func TestFacadeIOHelpers(t *testing.T) {
	dir := t.TempDir()
	c, err := ISCAS85("c499")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"/a.bench", "/a.v"} {
		if err := SaveCircuitFile(dir+name, c); err != nil {
			t.Fatal(err)
		}
		back, err := LoadCircuitFile(dir + name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := CheckEquivalence(c, back, 512, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equivalent {
			t.Fatalf("%s round trip inequivalent: %+v", name, res.Counterexample)
		}
	}
	if err := SaveCircuitFile(dir+"/a.xyz", c); err == nil {
		t.Error("expected unknown-extension error")
	}
	if _, err := LoadCircuitFile(dir + "/missing.bench"); err == nil {
		t.Error("expected missing-file error")
	}
	if _, err := LoadCircuitFile(dir + "/a.xyz"); err == nil {
		t.Error("expected unknown-extension error on load")
	}

	var buf bytes.Buffer
	if err := WriteVerilog(&buf, c.Normalize()); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseVerilog(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeActivityOptions(t *testing.T) {
	c := glitchCircuit()
	rep, err := ProfileActivity(c, [][]bool{{true}, {false}}, WithWordBits(8), WithTrimming())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Vectors != 2 {
		t.Errorf("vectors %d", rep.Vectors)
	}
	hot := rep.Hot(1)
	if len(hot) != 1 {
		t.Errorf("hot %v", hot)
	}
}
