// Package parsim implements the parallel technique of compiled unit-delay
// simulation (§3 of the paper) together with both of its optimizations:
// bit-field trimming and shift elimination (§4).
//
// Every net owns a bit-field in which bit i holds the net's value at time
// alignment+i (alignment is 0 for the unoptimized technique). Gate
// simulations are bit-parallel word operations; the unit gate delay is a
// one-bit left shift ORed into the output field (Fig. 5). Multi-word
// fields replicate the gate simulation per word and carry bits across
// word boundaries (Fig. 8). Trimming skips words without PC-set
// representatives (Fig. 9); shift elimination assigns per-net alignments
// (package align) and moves any remaining shifts to gate inputs (Fig. 18).
//
// The logical word width defaults to the paper's 32 bits and is
// configurable down to 8 bits so that tests can exercise many-word fields
// on small circuits.
package parsim

import (
	"fmt"

	"udsim/internal/align"
	"udsim/internal/circuit"
	"udsim/internal/engine"
	"udsim/internal/levelize"
	"udsim/internal/obs"
	"udsim/internal/program"
	"udsim/internal/verify"
)

// Config selects the compilation variant.
type Config struct {
	// WordBits is the logical word width W (8, 16, 32 or 64). Zero means
	// the paper's 32.
	WordBits int
	// Trim enables bit-field trimming (§4, Figs. 9 and 20).
	Trim bool
	// Align supplies per-net alignments from a shift-elimination
	// algorithm; nil compiles the classic zero-aligned layout.
	Align *align.Result
	// Delays supplies nominal per-gate delays (indexed by GateID of the
	// normalized circuit; nil = the paper's unit delays). The technique
	// generalizes directly — the per-gate shift becomes d bits instead
	// of one and the d low bit positions carry previous-vector values —
	// but the optimizations are unit-delay constructions, so Delays is
	// mutually exclusive with Trim and Align.
	Delays []int
	// Verify runs the static analyzer (package verify) over the compiled
	// programs and fails the compile on any warning or error finding.
	Verify bool
}

// Sim is a compiled parallel-technique simulator: the parallel layout
// and compiler over the shared engine runtime, whose execution, guard,
// observer and optimization surface it promotes.
type Sim struct {
	*engine.Core

	c   *circuit.Circuit
	a   *levelize.Analysis
	cfg Config

	base    []int32 // per net: state index of field word 0
	words   []int32 // per net: words in the field
	alignOf []int   // per net: alignment (all zero when cfg.Align == nil)
	width   []int   // per net: valid field width in bits

	scratchStart int32 // first non-field (temporary/scratch) state slot

	// Views into the Core's auxiliary state, so checkpoints and clones
	// carry them with the arena. prevFinal is current only for the nets
	// BeginVector captures.
	prevFinal []bool // final values before the last vector (for t < alignment reads)
	prevPI    []bool // previous primary-input values (for negative-alignment PI bits)

	// capture lists the nets whose previous final only prevFinal can
	// answer: primary inputs (their fields take the new value in every
	// bit) and nets aligned above time 0 (ValueAt reads prevFinal for
	// t < alignment). Every other field's bit 0 holds its previous final
	// after the vector, at time alignment ≤ 0.
	capture []circuit.NetID
}

// Compile builds the parallel-technique program for a combinational
// circuit under the given configuration. Wired nets are normalized away
// first. When cfg.Align is provided it must have been computed for the
// same normalized circuit (use Analyze/align on sim.Circuit() of a prior
// Compile, or normalize the circuit first).
func Compile(c *circuit.Circuit, cfg Config) (*Sim, error) {
	if !c.Combinational() {
		return nil, fmt.Errorf("parsim: circuit %s is sequential; break flip-flops first", c.Name)
	}
	if cfg.WordBits == 0 {
		cfg.WordBits = 32
	}
	switch cfg.WordBits {
	case 8, 16, 32, 64:
	default:
		return nil, fmt.Errorf("parsim: unsupported word width %d", cfg.WordBits)
	}
	norm := c.Normalize()
	if cfg.Delays != nil {
		if cfg.Trim || cfg.Align != nil {
			return nil, fmt.Errorf("parsim: nominal delays are mutually exclusive with trimming and shift elimination")
		}
		if c.HasWiredNets() {
			return nil, fmt.Errorf("parsim: normalize wired nets before supplying per-gate delays")
		}
	}
	var a *levelize.Analysis
	if cfg.Align != nil {
		if cfg.Align.A.C != norm {
			return nil, fmt.Errorf("parsim: alignment was computed for a different circuit; align the normalized circuit")
		}
		if err := cfg.Align.Validate(); err != nil {
			return nil, err
		}
		a = cfg.Align.A
	} else {
		var err error
		a, err = levelize.AnalyzeWithDelays(norm, cfg.Delays)
		if err != nil {
			return nil, err
		}
	}
	s := &Sim{
		c:       norm,
		a:       a,
		cfg:     cfg,
		alignOf: make([]int, norm.NumNets()),
		width:   make([]int, norm.NumNets()),
		base:    make([]int32, norm.NumNets()),
		words:   make([]int32, norm.NumNets()),
	}
	var (
		initProg, simProg *program.Program
		err               error
	)
	if cfg.Align == nil {
		initProg, simProg, err = s.compileFlat()
	} else {
		initProg, simProg, err = s.compileAligned()
	}
	if err != nil {
		return nil, err
	}
	if err := initProg.Validate(); err != nil {
		return nil, fmt.Errorf("parsim: init program invalid: %w", err)
	}
	if err := simProg.Validate(); err != nil {
		return nil, fmt.Errorf("parsim: sim program invalid: %w", err)
	}
	s.Core = engine.New(engine.Config{
		Name:         "parallel",
		Circuit:      norm,
		Analysis:     a,
		Init:         initProg,
		Sim:          simProg,
		ScratchStart: s.scratchStart,
		Aux:          norm.NumNets() + len(norm.Inputs),
	}, s)
	s.bindAux()
	for i := range norm.Nets {
		if norm.Nets[i].IsInput || s.alignOf[i] > 0 {
			s.capture = append(s.capture, circuit.NetID(i))
		}
	}
	if cfg.Verify {
		if err := verify.Check(s.Spec(), verify.Options{}).Err(); err != nil {
			return nil, fmt.Errorf("parsim: %w", err)
		}
	}
	return s, nil
}

// bindAux slices the previous-vector views out of the Core's auxiliary
// state.
func (s *Sim) bindAux() {
	aux, n := s.Aux(), s.c.NumNets()
	s.prevFinal, s.prevPI = aux[:n:n], aux[n:]
}

// Rebind implements engine.Technique: the clone shares the layout and
// re-derives its previous-vector views from the clone's state.
func (s *Sim) Rebind(c *engine.Core) engine.Technique {
	cl := *s
	cl.Core = c
	cl.bindAux()
	return &cl
}

// Analyze normalizes a circuit and returns its levelization analysis —
// the input the align package needs. The returned circuit must be the one
// passed to Compile together with an alignment built from the analysis.
func Analyze(c *circuit.Circuit) (*circuit.Circuit, *levelize.Analysis, error) {
	if !c.Combinational() {
		return nil, nil, fmt.Errorf("parsim: circuit %s is sequential; break flip-flops first", c.Name)
	}
	norm := c.Normalize()
	a, err := levelize.Analyze(norm)
	if err != nil {
		return nil, nil, err
	}
	return norm, a, nil
}

// Config returns the compile configuration (with defaults resolved).
func (s *Sim) Config() Config { return s.cfg }

// WordsPerField returns the maximum number of words any net's bit-field
// occupies (the parenthesized counts of Fig. 20).
func (s *Sim) WordsPerField() int {
	max := int32(0)
	for _, w := range s.words {
		if w > max {
			max = w
		}
	}
	return int(max)
}

// fieldWord returns the state index of word w of a net's field.
func (s *Sim) fieldWord(n circuit.NetID, w int) int32 { return s.base[n] + int32(w) }

// ResetSettled implements engine.Technique: every bit of every field
// takes the net's settled value, which is also its previous final.
func (s *Sim) ResetSettled(settled []bool) {
	st := s.State()
	mask := s.simProg().Mask()
	for i := range s.c.Nets {
		var w uint64
		if settled[i] {
			w = mask
		}
		for j := int32(0); j < s.words[i]; j++ {
			st[s.base[i]+j] = w
		}
		s.prevFinal[i] = settled[i]
	}
	for i, id := range s.c.Inputs {
		s.prevPI[i] = settled[id]
	}
}

// simProg returns the current simulation program.
func (s *Sim) simProg() *program.Program {
	_, sim := s.Programs()
	return sim
}

// BeginVector implements engine.Technique: capture the previous finals
// that have a reader before the init program overwrites the fields —
// the capture list's nets for ValueAt, and every net while an activity
// gate is attached (Flatten rewrites skipped fields from them).
func (s *Sim) BeginVector() {
	if s.Gate() != nil {
		for i := range s.prevFinal {
			s.prevFinal[i] = s.Final(circuit.NetID(i))
		}
		return
	}
	for _, n := range s.capture {
		s.prevFinal[n] = s.Final(n)
	}
}

// WriteInputs implements engine.Technique: it broadcasts the vector
// into the primary-input fields. With shift elimination a field's bits
// below -align belong to simulated times before 0 and carry the previous
// vector's value.
func (s *Sim) WriteInputs(inputs []bool) {
	st := s.State()
	mask := s.simProg().Mask()
	W := s.cfg.WordBits
	for i, id := range s.c.Inputs {
		var newW uint64
		if inputs[i] {
			newW = mask
		}
		split := -s.alignOf[id] // bits below split hold the previous value
		if split <= 0 {
			for w := int32(0); w < s.words[id]; w++ {
				st[s.base[id]+w] = newW
			}
		} else {
			var prevW uint64
			if s.prevPI[i] {
				prevW = mask
			}
			for w := int32(0); w < s.words[id]; w++ {
				lo := int(w) * W
				switch {
				case lo+W <= split:
					st[s.base[id]+w] = prevW
				case lo >= split:
					st[s.base[id]+w] = newW
				default:
					pm := (uint64(1) << uint(split-lo)) - 1
					st[s.base[id]+w] = (prevW & pm) | (newW &^ pm)
				}
			}
		}
		s.prevPI[i] = inputs[i]
	}
}

// ObserveActivity implements engine.Technique: it scans every net's
// waveform of the last vector into the observer's activity profile: one
// transition per (net, time) value change, per-net toggle totals.
// Allocation-free; O(nets × depth).
func (s *Sim) ObserveActivity(o *obs.Observer) {
	d := s.a.Depth
	for n := range s.c.Nets {
		id := circuit.NetID(n)
		prev := s.ValueAt(id, 0)
		var toggles int64
		for t := 1; t <= d; t++ {
			v := s.ValueAt(id, t)
			if v != prev {
				o.AddTransition(t)
				toggles++
			}
			prev = v
		}
		if toggles > 0 {
			o.AddNetToggles(n, toggles)
		}
	}
	o.AddActivityVector()
}

// FinalSlot implements engine.Technique: net n's final value is bit
// level−alignment of its field.
func (s *Sim) FinalSlot(n circuit.NetID) (slot int, mask uint64) {
	idx := s.width[n] - 1
	w, b := idx/s.cfg.WordBits, idx%s.cfg.WordBits
	return int(s.base[n] + int32(w)), uint64(1) << uint(b)
}

// InputField implements engine.Technique: primary input i's field and
// the delayed-alignment split WriteInputs uses.
func (s *Sim) InputField(i int) (base, words int32, split int) {
	id := s.c.Inputs[i]
	return s.base[id], s.words[id], -s.alignOf[id]
}

// ValueAt returns the value of a net at time t (0..Depth) for the last
// applied vector. Times before the field's alignment resolve to the
// previous vector's final value; times beyond the net's level hold the
// final value.
func (s *Sim) ValueAt(n circuit.NetID, t int) bool {
	idx := t - s.alignOf[n]
	if idx < 0 {
		if s.alignOf[n] > 0 || s.c.Nets[n].IsInput {
			return s.prevFinal[n]
		}
		// Bit 0 is time alignment ≤ 0, where the net still holds the
		// previous vector's final value.
		idx = 0
	}
	if idx >= s.width[n] {
		idx = s.width[n] - 1
	}
	w, b := idx/s.cfg.WordBits, idx%s.cfg.WordBits
	return s.State()[s.base[n]+int32(w)]>>uint(b)&1 == 1
}

// Trace implements engine.Technique and the facade's Tracer contract:
// the value of net n at time t and whether that value is observable.
// The parallel technique retains every net's complete waveform, so every
// time 0..Depth (and beyond, clamped to the final value) is observable;
// negative times are not — they belong to the previous vector.
func (s *Sim) Trace(n circuit.NetID, t int) (bool, bool) {
	if t < 0 {
		return false, false
	}
	return s.ValueAt(n, t), true
}

// History returns the full waveform of one net over times 0..Depth.
func (s *Sim) History(n circuit.NetID) []bool {
	h := make([]bool, s.a.Depth+1)
	for t := range h {
		h[t] = s.ValueAt(n, t)
	}
	return h
}
