package program

import "unsafe"

// Kernel is a program's code lowered once into superinstructions, the
// stream Program.Run executes. Lowering merges, in one pass over Code:
//
//   - a maximal sequence of runs (units) of one gate operation (and …
//     xnor, not, move), each unit the operation over n ≥ 1 consecutive
//     slots (every field word of a multi-word parallel-technique gate, or
//     consecutive PC-set time slots), into one run list: the units live
//     as (dst, a, b, n) records in the kernel's operand array, and one
//     dispatch executes them in order. A lone multi-word run is a
//     one-unit list, a lone single word a single instruction. A level's
//     gate class in a PC-set program is one list per fold stage;
//   - a run of ormove, const0 or const1 over consecutive slots into one
//     n-word operation;
//   - the parallel technique's carry chain (shlor Dst+k, A+k, A+k−1)
//     into one operation;
//   - a gate operation (a run or a single word) with the shlor chain
//     that reads its temporaries into one operation that still writes
//     the temporaries; a run list stops before such a run;
//   - the init program's bit extraction with the const0 run that
//     follows it into one operation.
//
// A merge is made only where no element of a run reads a slot that an
// earlier element of the same run wrote, so every superinstruction may
// keep values in registers and still leaves the state array exactly as
// Exec over the original instructions would. A run list's units need no
// such condition between them: each executes completely, in order, as
// the instructions it replaces. The generated program is unchanged:
// instruction counts, verification and code generation all see Code.
type Kernel struct {
	src   *Instr // &Code[0] when lowered (nil for empty code)
	n     int    // len(Code) when lowered
	code  []kinstr
	units []kunit // the run lists' units, each list a contiguous range
	mask  uint64
	w     uint
}

// kop is a superinstruction opcode.
type kop uint8

const (
	// Single instructions, one per generated opcode. The "0" shift
	// variants have no carry or fill word (B == None).
	kAnd kop = iota
	kOr
	kXor
	kNand
	kNor
	kXnor
	kNot
	kMove
	kOrMove
	kConst0
	kConst1
	kShlOr
	kShlOr0
	kShlMove
	kShlMove0
	kShrMove
	kShrMove0
	kFill
	kBit
	kFillLowN

	// n-word runs: element k is the word operation on Dst+k, A+k, B+k.
	kOrMoveN
	kConst0N
	kConst1N

	// Run lists: units[A : A+N] executed in order, unit u the n-word
	// run of the operation over u.dst+k, u.a+k, u.b+k for k < u.n.
	kAndL
	kOrL
	kXorL
	kNandL
	kNorL
	kXnorL
	kNotL
	kMoveL

	// kChain is a carry chain: element k is shlor Dst+k, A+k, A+k−1,
	// with carry word C (None: no carry) for element 0.
	kChain

	// Gate plus chain: element k computes v = op(A+k, B+k) into T+k and
	// ORs (v << Sh) | (v' >> (W−Sh)) into Dst+k, where v' is element
	// k−1's v (St[C] for element 0, zero when C is None).
	kAndShl
	kOrShl
	kXorShl
	kNandShl
	kNorShl
	kXnorShl
	kNotShl
	kMoveShl

	// The single-word forms of the gate-plus-chain operations (N == 1),
	// executed inline by the dispatch loop.
	kAndShl1
	kOrShl1
	kXorShl1
	kNandShl1
	kNorShl1
	kXnorShl1
	kNotShl1
	kMoveShl1

	// kBitZero extracts bit Sh of A into Dst, then zeroes N words from
	// B.
	kBitZero
)

// kinstr is one superinstruction. n is the element count of a run, t
// and c the temporary base and first carry of a gate-plus-chain or
// chain; B keeps Instr's meaning for single instructions (a bit count
// for filllown).
type kinstr struct {
	op   kop
	sh   uint8
	n    uint16
	dst  int32
	a, b int32
	t, c int32
}

// kunit is one unit of a run list: an n-word run (n ≥ 1) of the list's
// word operation, stored as an int32 (dst, a, b, n) record.
type kunit struct {
	dst, a, b, n int32
}

// maxRun caps a run, and a run list's unit count, at what kinstr.n
// holds.
const maxRun = 1<<16 - 1

// Ops returns the number of superinstructions.
func (k *Kernel) Ops() int { return len(k.code) }

// Bytes returns the memory the kernel occupies: its instruction stream
// and the run lists' operand array.
func (k *Kernel) Bytes() int {
	return cap(k.code)*int(unsafe.Sizeof(kinstr{})) + cap(k.units)*int(unsafe.Sizeof(kunit{}))
}

// lowers reports whether k was lowered from code (the same backing array
// and length): a program whose Code slice has been replaced is lowered
// again.
func (k *Kernel) lowers(code []Instr) bool {
	if len(code) != k.n {
		return false
	}
	return k.n == 0 || &code[0] == k.src
}

// Kernel returns the program's lowered superinstruction stream, lowering
// Code on first use and again whenever the Code slice has been replaced.
// Goroutines sharing a program may race to lower it; the first kernel
// published is the one every caller gets. Modifying Code's elements in
// place after the first Run is not detected: replace the slice instead.
func (p *Program) Kernel() *Kernel {
	old := p.kern.Load()
	if old != nil && old.lowers(p.Code) {
		return old
	}
	k := lower(p.Code, p.WordBits)
	if !p.kern.CompareAndSwap(old, k) {
		if cur := p.kern.Load(); cur != nil && cur.lowers(p.Code) {
			return cur
		}
	}
	return k
}

// Clone returns a copy of the program with its own Code slice (VarNames
// is shared: it is never modified). The copy lowers its own kernel.
func (p *Program) Clone() *Program {
	return &Program{
		WordBits: p.WordBits,
		NumVars:  p.NumVars,
		Code:     append([]Instr(nil), p.Code...),
		VarNames: p.VarNames,
	}
}

// MemBytes returns the memory the program's instruction streams occupy:
// the generated code and its lowered kernel.
func (p *Program) MemBytes() int {
	return cap(p.Code)*int(unsafe.Sizeof(Instr{})) + p.Kernel().Bytes()
}

// inRange reports whether slot s lies in [lo, lo+n).
func inRange(s, lo int32, n int) bool { return s >= lo && int64(s) < int64(lo)+int64(n) }

// listOps maps the word operations that merge into run lists.
var listOps = [numOps]kop{
	OpAnd: kAndL, OpOr: kOrL, OpXor: kXorL, OpNand: kNandL, OpNor: kNorL,
	OpXnor: kXnorL, OpNot: kNotL, OpMove: kMoveL,
}

// runOps maps the word operations that merge into n-word runs.
var runOps = [numOps]kop{OpOrMove: kOrMoveN, OpConst0: kConst0N, OpConst1: kConst1N}

// shlOps maps the gate operations that fuse with a following chain.
var shlOps = [numOps]kop{
	OpAnd: kAndShl, OpOr: kOrShl, OpXor: kXorShl, OpNand: kNandShl,
	OpNor: kNorShl, OpXnor: kXnorShl, OpNot: kNotShl, OpMove: kMoveShl,
}

// runs reports whether op merges into runs (run lists' units or n-word
// runs). Binary operations
// need a slot operand B (Exec faults on B == None; lowering leaves such
// an instruction single so the kernel faults the same way).
func runs(in *Instr) bool {
	switch in.Op {
	case OpAnd, OpOr, OpXor, OpNand, OpNor, OpXnor:
		return in.B != None
	case OpNot, OpMove, OpOrMove, OpConst0, OpConst1:
		return true
	}
	return false
}

// wordRun returns the length of the run of code[0]'s word operation over
// consecutive slots: element k has the same opcode on Dst+k,
// A+k and B+k, and reads no slot in [Dst, Dst+k).
func wordRun(code []Instr) int {
	f := &code[0]
	usesA, usesB := f.UsesA(), f.UsesBSlot()
	n := 1
	for ; n < len(code) && n < maxRun; n++ {
		in := &code[n]
		k := int32(n)
		if in.Op != f.Op || in.Dst != f.Dst+k {
			break
		}
		if usesA && (in.A != f.A+k || inRange(in.A, f.Dst, n)) {
			break
		}
		if usesB && (in.B != f.B+k || inRange(in.B, f.Dst, n)) {
			break
		}
	}
	return n
}

// chainRun returns the length of the carry chain starting at code[0], a
// shlor: element k ≥ 1 is shlor Dst+k, A+k, A+k−1 with code[0]'s shift,
// and no element reads a slot in [Dst, Dst+k).
func chainRun(code []Instr, wordBits int) int {
	f := &code[0]
	if f.Op != OpShlOr || f.Sh == 0 || int(f.Sh) >= wordBits {
		return 0 // the kernel's chains shift by 1..W−1
	}
	n := 1
	for ; n < len(code) && n < maxRun; n++ {
		in := &code[n]
		k := int32(n)
		if in.Op != OpShlOr || in.Sh != f.Sh || in.Dst != f.Dst+k || in.A != f.A+k || in.B != f.A+k-1 {
			break
		}
		if inRange(in.A, f.Dst, n) || inRange(in.B, f.Dst, n) {
			break
		}
	}
	return n
}

// zeroRun returns the length of the const0 run over consecutive slots at
// the start of code.
func zeroRun(code []Instr) int {
	n := 0
	for ; n < len(code) && n < maxRun; n++ {
		if code[n].Op != OpConst0 || code[n].Dst != code[0].Dst+int32(n) {
			break
		}
	}
	return n
}

// fusesChain reports whether the n-element gate run g (writing
// temporaries T..T+n−1) and the chain c that follows it can execute
// interleaved, element by element: the chain reads exactly the
// temporaries, its destinations and first carry are not temporaries,
// and no gate element reads a destination an earlier chain element
// wrote.
func fusesChain(g []Instr, c []Instr, wordBits int) bool {
	n := len(g)
	t := g[0].Dst
	ch := &c[0]
	if ch.A != t || chainRun(c, wordBits) < n {
		return false
	}
	if inRange(ch.Dst, t, n) || inRange(t, ch.Dst, n) {
		return false
	}
	if ch.B != None && inRange(ch.B, t, n) {
		return false
	}
	for k := range g {
		if inRange(g[k].A, ch.Dst, k) || (g[k].UsesBSlot() && inRange(g[k].B, ch.Dst, k)) {
			return false
		}
	}
	return true
}

// fusesAt reports whether the n-element word run at code[i] fuses with
// the carry chain that follows it.
func fusesAt(code []Instr, i, n, wordBits int) bool {
	return shlOps[code[i].Op] != 0 && i+n < len(code) && fusesChain(code[i:i+n], code[i+n:], wordBits)
}

// listRun appends to units the run list that starts with the n-element
// run at code[i]: that run and every following run of the same
// operation, up to one that fuses with the carry chain after it. It
// returns the number of instructions the list covers. Units execute in
// order, each as the sequential instructions it replaces, so no alias
// condition holds between units; within a unit wordRun's does.
func listRun(code []Instr, i, n, wordBits int, units []kunit) (int, []kunit) {
	op, first := code[i].Op, len(units)
	j := i
	for {
		in := &code[j]
		units = append(units, kunit{dst: in.Dst, a: in.A, b: in.B, n: int32(n)})
		j += n
		if j == len(code) || code[j].Op != op || !runs(&code[j]) || len(units)-first == maxRun {
			break
		}
		if n = wordRun(code[j:]); fusesAt(code, j, n, wordBits) {
			break
		}
	}
	return j - i, units
}

// lower builds the kernel for code at the given word width.
func lower(code []Instr, wordBits int) *Kernel {
	k := &Kernel{n: len(code), w: uint(wordBits), mask: ^uint64(0)}
	if wordBits < 64 {
		k.mask = (uint64(1) << wordBits) - 1
	}
	if len(code) > 0 {
		k.src = &code[0]
	}
	out := make([]kinstr, 0, len(code)/2+1)
	var units []kunit
	for i := 0; i < len(code); {
		in := &code[i]
		switch {
		case in.Op == OpNop || in.Op >= numOps:
			i++ // Exec does nothing for these either
			continue
		case in.Op == OpBit && int(in.Sh) < wordBits:
			if m := zeroRun(code[i+1:]); m > 0 {
				out = append(out, kinstr{op: kBitZero, sh: in.Sh, n: uint16(m), dst: in.Dst, a: in.A, b: code[i+1].Dst})
				i += 1 + m
				continue
			}
		case in.Op == OpShlOr:
			if n := chainRun(code[i:], wordBits); n > 1 {
				out = append(out, kinstr{op: kChain, sh: in.Sh, n: uint16(n), dst: in.Dst, a: in.A, c: in.B})
				i += n
				continue
			}
		case runs(in):
			n := wordRun(code[i:])
			if fusesAt(code, i, n, wordBits) {
				ch := &code[i+n]
				sop := shlOps[in.Op]
				if n == 1 {
					sop += kAndShl1 - kAndShl
				}
				out = append(out, kinstr{op: sop, sh: ch.Sh, n: uint16(n), dst: ch.Dst, a: in.A, b: in.B, t: in.Dst, c: ch.B})
				i += 2 * n
				continue
			}
			if lop := listOps[in.Op]; lop != 0 {
				first := len(units)
				// A lone single word stays a single instruction.
				if m, ext := listRun(code, i, n, wordBits, units); m > 1 {
					units = ext
					out = append(out, kinstr{op: lop, n: uint16(len(units) - first), a: int32(first)})
					i += m
					continue
				}
			}
			if n > 1 {
				out = append(out, kinstr{op: runOps[in.Op], n: uint16(n), dst: in.Dst, a: in.A, b: in.B})
				i += n
				continue
			}
		}
		out = append(out, single(in))
		i++
	}
	// Keep an exact-size copy: the kernel lives as long as the program,
	// and Bytes reports what it holds.
	k.code = append(make([]kinstr, 0, len(out)), out...)
	if len(units) > 0 {
		k.units = append(make([]kunit, 0, len(units)), units...)
	}
	return k
}

// single lowers one instruction unmerged.
func single(in *Instr) kinstr {
	op := map1[in.Op]
	if in.B == None {
		switch in.Op {
		case OpShlOr:
			op = kShlOr0
		case OpShlMove:
			op = kShlMove0
		case OpShrMove:
			op = kShrMove0
		}
	}
	return kinstr{op: op, sh: in.Sh, dst: in.Dst, a: in.A, b: in.B}
}

// map1 maps a generated opcode to its single-instruction kernel opcode.
var map1 = [numOps]kop{
	OpAnd: kAnd, OpOr: kOr, OpXor: kXor, OpNand: kNand, OpNor: kNor,
	OpXnor: kXnor, OpNot: kNot, OpMove: kMove, OpOrMove: kOrMove,
	OpConst0: kConst0, OpConst1: kConst1, OpShlOr: kShlOr,
	OpShlMove: kShlMove, OpShrMove: kShrMove, OpFill: kFill, OpBit: kBit,
	OpFillLowN: kFillLowN,
}
