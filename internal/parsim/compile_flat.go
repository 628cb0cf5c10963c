package parsim

import (
	"fmt"

	"udsim/internal/circuit"
	"udsim/internal/program"
)

// compileFlat builds the zero-aligned parallel-technique program
// (§3, Figs. 5–8), with optional bit-field trimming (§4, Fig. 9).
//
// Every net gets a uniform field of depth+1 bits rounded up to whole
// words. Per input vector the initialization phase moves each net's final
// bit into bit 0 and zeroes the rest (Fig. 6); the simulation phase folds
// each gate's input fields word-wise into a temporary and ORs the
// one-bit-left-shifted result into the output field.
//
// Trimming classifies each word of each net's field:
//
//   - low: every time the word covers is below the net's minlevel. The
//     word holds the previous final value in all bits; a single fill in
//     the init phase replaces computation entirely.
//   - assigned: the word contains a PC-set representative.
//   - gap: no representative; the word is a broadcast of the previous
//     word's top bit, emitted in the sim phase after that word settles.
//
// Independently, the fold (unshifted intermediate) word w is computed only
// when a representative exists in (w·W, (w+1)·W] — the shifted-vs-
// unshifted distinction of Fig. 9.
func (s *Sim) compileFlat() (init, sim *program.Program, err error) {
	W := s.cfg.WordBits
	n := s.a.Depth + 1
	nw := (n + W - 1) / W
	c := s.c

	for i := range c.Nets {
		s.alignOf[i] = 0
		s.width[i] = n
		s.base[i] = int32(i * nw)
		s.words[i] = int32(nw)
	}
	tempBase := int32(c.NumNets() * nw)
	numVars := int(tempBase) + nw
	s.scratchStart = tempBase

	names := make([]string, numVars)
	for i := range c.Nets {
		for w := 0; w < nw; w++ {
			names[int(s.base[i])+w] = fmt.Sprintf("%s.%d", c.Nets[i].Name, w)
		}
	}
	for w := 0; w < nw; w++ {
		names[int(tempBase)+w] = fmt.Sprintf("temp.%d", w)
	}

	// Word classification.
	low := func(net circuit.NetID, w int) bool {
		if !s.cfg.Trim {
			return false
		}
		return w*W+W-1 < s.a.NetMin[net]
	}
	pcIn := func(net circuit.NetID, lo, hi int) bool {
		for _, t := range s.a.NetPC[net] {
			if t > hi {
				return false
			}
			if t >= lo {
				return true
			}
		}
		return false
	}
	assigned := func(net circuit.NetID, w int) bool {
		if !s.cfg.Trim {
			return true
		}
		return !low(net, w) && pcIn(net, w*W, w*W+W-1)
	}
	foldNeeded := func(net circuit.NetID, w int) bool {
		if !s.cfg.Trim {
			return true
		}
		return pcIn(net, w*W+1, (w+1)*W)
	}

	// ---- Initialization program (runs once per input vector). ----
	var initCode []program.Instr
	for i := range c.Nets {
		net := circuit.NetID(i)
		if c.Nets[i].IsInput {
			continue // primary inputs are written by the runtime
		}
		if drv := c.Nets[i].Drivers; len(drv) == 1 && len(c.Gate(drv[0]).Inputs) == 0 {
			continue // constant-driven: the sim phase writes every live word outright
		}
		top := s.fieldWord(net, nw-1)
		// Delay of the single driving gate: the d lowest bit positions
		// carry previous-vector values (d = 1 in the paper's model).
		d := 1
		if drv := c.Nets[i].Drivers; len(drv) == 1 {
			d = s.a.GateDelay[drv[0]]
		}
		lowFull, rem := d/W, d%W
		// Reads of the top word first, then the zeroing writes, so a
		// net's own final value is consumed before being cleared.
		var zeros []program.Instr
		for w := 0; w < nw; w++ {
			dst := s.fieldWord(net, w)
			switch {
			case low(net, w):
				initCode = append(initCode, program.Instr{
					Op: program.OpFill, Dst: dst, A: top, B: program.None, Sh: uint8(W - 1),
				})
			case d == 1 && w == 0:
				initCode = append(initCode, program.Instr{
					Op: program.OpBit, Dst: dst, A: top, B: program.None, Sh: uint8(W - 1),
				})
			case d > 1 && w < lowFull:
				// Words entirely below the gate delay hold the previous
				// final value in every bit.
				initCode = append(initCode, program.Instr{
					Op: program.OpFill, Dst: dst, A: top, B: program.None, Sh: uint8(W - 1),
				})
			case d > 1 && w == lowFull && rem > 0:
				initCode = append(initCode, program.Instr{
					Op: program.OpFillLowN, Dst: dst, A: top, B: int32(rem), Sh: uint8(W - 1),
				})
			case assigned(net, w):
				zeros = append(zeros, program.Instr{
					Op: program.OpConst0, Dst: dst, A: program.None, B: program.None,
				})
			default:
				// Gap word: fully overwritten by a sim-phase fill.
			}
		}
		initCode = append(initCode, zeros...)
	}

	// ---- Simulation program (levelized order). ----
	var simCode []program.Instr
	srcs := make([]int32, 0, 8)
	for _, gid := range s.a.LevelOrder {
		g := c.Gate(gid)
		out := g.Output

		// Phase A: fold input fields word-wise into the temporaries.
		// Zero-input (constant) gates have nothing to fold — and under
		// trimming no fold word is ever classified as needed for them —
		// so their output words are written directly in phase B.
		folded := make([]bool, nw)
		for w := 0; w < nw; w++ {
			if len(g.Inputs) == 0 || !foldNeeded(out, w) {
				continue
			}
			folded[w] = true
			srcs = srcs[:0]
			for _, in := range g.Inputs {
				srcs = append(srcs, s.fieldWord(in, w))
			}
			simCode = program.EmitGateEval(simCode, g.Type, tempBase+int32(w), srcs)
		}

		// Phase B: shift the intermediate result d bits left (one in the
		// paper's unit-delay model) and OR it into the output field, word
		// by word in ascending order so gap fills see settled lower
		// words. Multi-bit delays decompose into a word offset plus a
		// residual shift; trimming and shift elimination only combine
		// with d = 1.
		d := s.a.GateDelay[gid]
		if d != 1 {
			off, rem := d/W, d%W
			for w := 0; w < nw; w++ {
				srcHi := w - off
				if srcHi < 0 {
					continue // bits entirely below the delay: previous values from init
				}
				dst := s.fieldWord(out, w)
				if rem == 0 {
					simCode = append(simCode, program.Instr{
						Op: program.OpOrMove, Dst: dst, A: tempBase + int32(srcHi), B: program.None,
					})
					continue
				}
				carry := program.None
				if srcHi > 0 {
					carry = tempBase + int32(srcHi-1)
				}
				simCode = append(simCode, program.Instr{
					Op: program.OpShlOr, Dst: dst, A: tempBase + int32(srcHi), B: carry, Sh: uint8(rem),
				})
			}
			continue
		}
		for w := 0; w < nw; w++ {
			dst := s.fieldWord(out, w)
			switch {
			case low(out, w):
				// Entirely previous-vector value; filled in init.
			case assigned(out, w):
				if len(g.Inputs) == 0 {
					// A constant net holds its value at every simulated
					// time: write the whole word, no shift or carry.
					simCode = program.EmitGateEval(simCode, g.Type, dst, nil)
					continue
				}
				carry := program.None
				if w > 0 {
					if folded[w-1] {
						carry = tempBase + int32(w-1)
					} else {
						carry = s.fieldWord(out, w-1)
					}
				}
				if folded[w] {
					simCode = append(simCode, program.Instr{
						Op: program.OpShlOr, Dst: dst, A: tempBase + int32(w), B: carry, Sh: 1,
					})
				} else {
					// The only representative is at exactly w·W: the
					// whole word is a broadcast of the carry bit, which
					// must come from a computed fold (a representative
					// at w·W forces fold word w−1).
					if w == 0 || !folded[w-1] {
						return nil, nil, fmt.Errorf("parsim: internal: word %d of net %s assigned without fold support", w, c.Nets[out].Name)
					}
					simCode = append(simCode, program.Instr{
						Op: program.OpFill, Dst: dst, A: tempBase + int32(w-1), B: program.None, Sh: uint8(W - 1),
					})
				}
			default:
				// Gap: broadcast the previous word's settled top bit.
				// Word 0 can never be a gap: when it is not low, the
				// minlevel representative lives in it.
				if w == 0 {
					return nil, nil, fmt.Errorf("parsim: internal: word 0 of net %s classified as gap", c.Nets[out].Name)
				}
				simCode = append(simCode, program.Instr{
					Op: program.OpFill, Dst: dst, A: s.fieldWord(out, w-1), B: program.None, Sh: uint8(W - 1),
				})
			}
		}
	}

	init = &program.Program{WordBits: W, NumVars: numVars, Code: initCode, VarNames: names}
	sim = &program.Program{WordBits: W, NumVars: numVars, Code: simCode, VarNames: names}
	return init, sim, nil
}
