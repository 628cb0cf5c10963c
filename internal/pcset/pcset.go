// Package pcset implements the PC-set method of compiled unit-delay
// simulation (§2 of the paper).
//
// The compiler allocates one variable per element of every net's PC-set,
// performs zero-insertion for nets that must retain their previous-vector
// values, and generates one straight-line gate simulation per element of
// each gate's PC-set, selecting operands by the largest-PC-element-
// strictly-below rule (Fig. 4). The code executes once per input vector
// and produces the complete unit-delay history of the vector.
//
// The code is levelized, as in the paper, and within a level grouped by
// gate class (type and arity) and emitted one fold stage at a time
// across the class: the gates of a level read only values of lower
// levels, so their order is free, and grouping makes each class's stage
// one run list for the program kernel (package program).
//
// Because every variable is a machine word of independent bit lanes, the
// generated code is amenable to data-parallel simulation of up to 64 input
// vectors at once (§3 notes this as the PC-set method's advantage over the
// parallel technique); ApplyLanes exposes that mode.
package pcset

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"udsim/internal/circuit"
	"udsim/internal/engine"
	"udsim/internal/levelize"
	"udsim/internal/obs"
	"udsim/internal/program"
	"udsim/internal/verify"
)

// Sim is a compiled PC-set unit-delay simulator: the PC-set layout and
// compiler over the shared engine runtime, whose execution, guard,
// observer and optimization surface it promotes. The method keeps all
// mutable per-vector state in the variable array (zero-insertion
// preserves previous-vector values in place), so it needs no auxiliary
// state: a checkpoint is just the arena.
type Sim struct {
	*engine.Core

	c *circuit.Circuit
	a *levelize.Analysis

	vars    [][]int32       // per net: state index per PC element, parallel to a.NetPC
	monitor []circuit.NetID // resolved monitor set (PRINT-gate inputs)
}

// Compile builds the PC-set program for a combinational circuit. The
// monitor set determines which nets receive zero-insertion as inputs of
// the implicit PRINT gate and are therefore observable at every time step;
// nil monitors the primary outputs. Wired nets are normalized away first.
func Compile(c *circuit.Circuit, monitor []circuit.NetID) (*Sim, error) {
	return CompileWithDelays(c, monitor, nil)
}

// CompileWithDelays generalizes the PC-set method to nominal integer gate
// delays — the paper's closing "more accurate timing models" direction.
// PC-sets become sets of path-delay sums (levelize.AnalyzeWithDelays) and
// each gate simulation at potential-change time t reads its operands at
// time t−d(g); everything else, including zero-insertion and the
// straight-line structure, carries over unchanged. gateDelay is indexed
// by GateID of the NORMALIZED circuit (resolution gates introduced for
// wired nets would need delays too, so circuits with wired nets must be
// normalized by the caller first when delays are supplied); nil means
// unit delays. Note that the generated code remains branch-free and
// queue-free: nominal delay costs only larger PC-sets.
func CompileWithDelays(c *circuit.Circuit, monitor []circuit.NetID, gateDelay []int) (*Sim, error) {
	if !c.Combinational() {
		return nil, fmt.Errorf("pcset: circuit %s is sequential; break flip-flops first", c.Name)
	}
	if gateDelay != nil && c.HasWiredNets() {
		return nil, fmt.Errorf("pcset: normalize wired nets before supplying per-gate delays")
	}
	c = c.Normalize()
	a, err := levelize.AnalyzeWithDelays(c, gateDelay)
	if err != nil {
		return nil, err
	}
	if monitor == nil {
		monitor = c.Outputs
	}
	a.InsertZeros(monitor)

	// Allocate one variable per PC element of every net.
	vars := make([][]int32, c.NumNets())
	next := int32(0)
	for i := range c.Nets {
		vs := make([]int32, len(a.NetPC[i]))
		for j := range vs {
			vs[j] = next
			next++
		}
		vars[i] = vs
	}
	names := varNames(c, a, int(next))

	// Initialization code: for every net with an inserted zero, move the
	// final value (the variable of the maximum PC element) into the
	// time-zero variable (Fig. 4: "D_0 = D_1;").
	var initCode []program.Instr
	for i := range c.Nets {
		if !a.ZeroAdded[i] {
			continue
		}
		vs := vars[i]
		initCode = append(initCode, program.Instr{
			Op: program.OpMove, Dst: vs[0], A: vs[len(vs)-1], B: program.None,
		})
	}

	simCode := emitSim(c, a, vars)

	mk := func(code []program.Instr) *program.Program {
		return &program.Program{WordBits: 64, NumVars: int(next), Code: code, VarNames: names}
	}
	initProg, simProg := mk(initCode), mk(simCode)
	if err := initProg.Validate(); err != nil {
		return nil, err
	}
	if err := simProg.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{c: c, a: a, vars: vars, monitor: monitor}
	s.Core = engine.New(engine.Config{
		Name:     "pcset",
		Circuit:  c,
		Analysis: a,
		Init:     initProg,
		Sim:      simProg,
		// The PC-set method has no scratch region: every slot is persistent.
		ScratchStart: next,
	}, s)
	return s, nil
}

// varNames names variable k "net_t" for the net and PC element it
// holds. The names are cut from one shared string rather than formatted
// one by one: one allocation instead of one per variable.
func varNames(c *circuit.Circuit, a *levelize.Analysis, n int) []string {
	var buf []byte
	ends := make([]int, 0, n)
	for i := range c.Nets {
		for _, t := range a.NetPC[i] {
			buf = append(buf, c.Nets[i].Name...)
			buf = append(buf, '_')
			buf = strconv.AppendInt(buf, int64(t), 10)
			ends = append(ends, len(buf))
		}
	}
	all := string(buf)
	names := make([]string, n)
	start := 0
	for k, end := range ends {
		names[k] = all[start:end]
		start = end
	}
	return names
}

// emitSim generates the simulation code: one gate simulation per gate PC
// element, operands selected by the strictly-below rule.
//
// The code is level-major: every gate of level L reads only variables of
// nets of lower levels (each gate delay is at least one), so the gates of
// one level are independent and run in any order. Within a level the
// gates are grouped by class (type and arity), and each class is emitted
// stage by stage (program.GateStage) across the whole group: the first
// fold stage of every gate, then the second, and so on. Each gate-stage
// is one run over the gate's PC elements in ascending time, so a class's
// stage is a sequence of same-opcode runs that the program kernel
// executes as one run list.
func emitSim(c *circuit.Circuit, a *levelize.Analysis, vars [][]int32) []program.Instr {
	order := classOrder(c, a)
	var code []program.Instr
	// opnd holds, per gate of the group and per PC element, the
	// destination followed by the operand of every input.
	var opnd []int32
	for lo := 0; lo < len(order); {
		g0 := c.Gate(order[lo])
		hi := lo + 1
		for hi < len(order) && sameClass(c, a, order[hi], order[lo]) {
			hi++
		}
		width := 1 + len(g0.Inputs)
		opnd = opnd[:0]
		for _, gid := range order[lo:hi] {
			g := c.Gate(gid)
			d := a.GateDelay[gid]
			for _, t := range a.GatePC[gid] {
				opnd = append(opnd, varAt(a, vars, g.Output, t))
				for _, in := range g.Inputs {
					// The output at time t is the gate function of its
					// inputs at time t−d; each input's value then is held
					// by its largest PC element ≤ t−d.
					opnd = append(opnd, varAt(a, vars, in, a.OperandAt(in, t-d)))
				}
			}
		}
		for s := range program.GateStages(g0.Type, len(g0.Inputs)) {
			for k := 0; k < len(opnd); k += width {
				code = append(code, program.GateStage(g0.Type, s, opnd[k], opnd[k+1:k+width]))
			}
		}
		lo = hi
	}
	return code
}

// sameClass reports whether gates g and h share a level and a class
// (type and arity): gates of one class have the same fold stages.
func sameClass(c *circuit.Circuit, a *levelize.Analysis, g, h circuit.GateID) bool {
	gg, hg := c.Gate(g), c.Gate(h)
	return a.GateLevel[g] == a.GateLevel[h] && gg.Type == hg.Type && len(gg.Inputs) == len(hg.Inputs)
}

// classOrder returns a.LevelOrder with the gates of each level grouped
// by class: a stable sort by (level, type, arity). LevelOrder is sorted
// by level, so no gate leaves its level.
func classOrder(c *circuit.Circuit, a *levelize.Analysis) []circuit.GateID {
	order := slices.Clone(a.LevelOrder)
	slices.SortStableFunc(order, func(g, h circuit.GateID) int {
		gg, hg := c.Gate(g), c.Gate(h)
		return cmp.Or(cmp.Compare(a.GateLevel[g], a.GateLevel[h]),
			cmp.Compare(gg.Type, hg.Type),
			cmp.Compare(len(gg.Inputs), len(hg.Inputs)))
	})
	return order
}

// CompileChecked is Compile followed by the static analyzer (package
// verify); any warning or error finding fails the compile.
func CompileChecked(c *circuit.Circuit, monitor []circuit.NetID) (*Sim, error) {
	s, err := Compile(c, monitor)
	if err != nil {
		return nil, err
	}
	if err := verify.Check(s.Spec(), verify.Options{}).Err(); err != nil {
		return nil, fmt.Errorf("pcset: %w", err)
	}
	return s, nil
}

// LayoutSpec implements engine.Technique: the static-verification spec
// for the compiled programs. Every variable is persistent state (the
// PC-set method has no scratch region and no packed bit-fields, so the
// layout and phase rules are vacuous); the runtime writes each primary
// input's time-zero variable, and the observable slots are every
// variable of every monitored net plus the final-value variable of every
// net, which Final and the next vector's zero-insertion read.
func (s *Sim) LayoutSpec() *verify.Spec {
	initProg, simProg := s.Programs()
	spec := &verify.Spec{
		Name:         "pcset",
		Init:         initProg,
		Sim:          simProg,
		ScratchStart: int32(simProg.NumVars),
	}
	for _, id := range s.c.Inputs {
		spec.RuntimeWritten = append(spec.RuntimeWritten, s.vars[id][0])
	}
	for _, id := range s.monitor {
		spec.LiveOut = append(spec.LiveOut, s.vars[id]...)
	}
	for i := range s.c.Nets {
		if vs := s.vars[i]; len(vs) > 0 {
			spec.LiveOut = append(spec.LiveOut, vs[len(vs)-1])
		}
	}
	return spec
}

// varAt returns the state index of net's variable for PC element t,
// panicking if t is not in the net's PC-set (a compiler invariant).
func varAt(a *levelize.Analysis, vars [][]int32, net circuit.NetID, t int) int32 {
	pc := a.NetPC[net]
	lo, hi := 0, len(pc)
	for lo < hi {
		mid := (lo + hi) / 2
		if pc[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(pc) || pc[lo] != t {
		panic(fmt.Sprintf("pcset: time %d not in PC-set %v of net %d", t, pc, net))
	}
	return vars[net][lo]
}

// Rebind implements engine.Technique: the clone shares the layout (the
// PC-set method has no auxiliary state to re-slice).
func (s *Sim) Rebind(c *engine.Core) engine.Technique {
	cl := *s
	cl.Core = c
	return &cl
}

// ResetSettled implements engine.Technique: every variable of every net
// takes the net's settled value, in all lanes.
func (s *Sim) ResetSettled(settled []bool) {
	st := s.State()
	for i := range s.c.Nets {
		var w uint64
		if settled[i] {
			w = ^uint64(0)
		}
		for _, v := range s.vars[i] {
			st[v] = w
		}
	}
}

// BeginVector implements engine.Technique; the PC-set method keeps its
// previous-vector state in place, so there is nothing to capture.
func (s *Sim) BeginVector() {}

// WriteInputs implements engine.Technique: each primary input's
// time-zero variable takes the vector's value in all 64 lanes.
func (s *Sim) WriteInputs(inputs []bool) {
	st := s.State()
	for i, id := range s.c.Inputs {
		var w uint64
		if inputs[i] {
			w = ^uint64(0)
		}
		st[s.vars[id][0]] = w
	}
}

// FinalSlot implements engine.Technique: net id's final value is lane 0
// of the variable of its maximum PC element.
func (s *Sim) FinalSlot(id circuit.NetID) (slot int, mask uint64) {
	vs := s.vars[id]
	return int(vs[len(vs)-1]), 1
}

// InputField implements engine.Technique: primary input i is broadcast
// into the single variable of its one PC element.
func (s *Sim) InputField(i int) (base, words int32, split int) {
	return s.vars[s.c.Inputs[i]][0], 1, 0
}

// ObserveActivity implements engine.Technique: it scans lane 0 of every
// net's history into the observer's activity profile. A net's value
// only changes at its PC elements, so the scan compares consecutive PC
// variables instead of stepping time — O(total PC-set size) per vector,
// allocation-free.
// Unmonitored nets (no zero inserted) have no observable time-zero
// value, so a change from the previous vector's final into the first PC
// element is not counted — activity is profiled under the engine's own
// observability, exactly like ValueAt. Monitor every net to make the
// profile complete.
func (s *Sim) ObserveActivity(o *obs.Observer) {
	st := s.State()
	for n := range s.c.Nets {
		pc := s.a.NetPC[n]
		vs := s.vars[n]
		var toggles int64
		for j := 1; j < len(vs); j++ {
			if (st[vs[j]]^st[vs[j-1]])&1 != 0 {
				o.AddTransition(pc[j])
				toggles++
			}
		}
		if toggles > 0 {
			o.AddNetToggles(n, toggles)
		}
	}
	o.AddActivityVector()
}

// ApplyLanes simulates up to 64 independent input vectors at once:
// packed[i] carries one bit per vector for primary input i. Lane k of
// every variable then holds the history of vector k. Note that lanes are
// independent *streams*: each lane's previous-vector state is that lane's
// own previous vector.
func (s *Sim) ApplyLanes(packed []uint64) error {
	if len(packed) != len(s.c.Inputs) {
		return fmt.Errorf("pcset: %d packed inputs for %d primary inputs", len(packed), len(s.c.Inputs))
	}
	s.RunInit(64)
	st := s.State()
	for i, id := range s.c.Inputs {
		st[s.vars[id][0]] = packed[i]
	}
	s.RunSim()
	if o := s.Observer(); o.ActivityEnabled() {
		s.ObserveActivity(o) // lane 0 only; the other 63 lanes are not scanned
	}
	return nil
}

// ValueAt returns the lane-0 value of a net at time t (0..Depth) for the
// last applied vector. The second result is false when the value is not
// observable, i.e. t precedes the net's first PC element and the net had
// no zero inserted (it was not monitored).
func (s *Sim) ValueAt(id circuit.NetID, t int) (bool, bool) { return s.LaneValueAt(id, t, 0) }

// LaneValueAt is ValueAt for a specific lane. A lane outside [0, 64)
// does not exist and is never observable.
func (s *Sim) LaneValueAt(id circuit.NetID, t, lane int) (bool, bool) {
	if lane < 0 || lane >= 64 {
		return false, false
	}
	pc := s.a.NetPC[id]
	// Largest element ≤ t.
	lo, hi := 0, len(pc)
	for lo < hi {
		mid := (lo + hi) / 2
		if pc[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return false, false
	}
	return s.State()[s.vars[id][lo-1]]>>uint(lane)&1 == 1, true
}

// Trace implements engine.Technique and the facade's Tracer contract:
// the value of net n at time t and whether that value is observable.
// Negative times belong to the previous vector and are never observable;
// otherwise observability follows the PC-set monitoring rule (ValueAt):
// false when t precedes the net's first PC element and the net had no
// zero inserted.
func (s *Sim) Trace(n circuit.NetID, t int) (bool, bool) {
	if t < 0 {
		return false, false
	}
	return s.ValueAt(n, t)
}
