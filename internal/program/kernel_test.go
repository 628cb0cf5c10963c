package program

import (
	"encoding/binary"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// kgen decodes fuzz bytes into decisions; an exhausted input reads as
// zeros, so every byte string is a valid program description.
type kgen struct {
	data []byte
	pos  int
}

func (g *kgen) byte() byte {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return b
}

// intn returns a decision in [0, n).
func (g *kgen) intn(n int) int { return int(g.byte()) % n }

// slot returns a state index in [0, vars).
func (g *kgen) slot(vars int) int32 { return int32(g.intn(vars)) }

// base returns the first slot of an n-slot range in [0, vars).
func (g *kgen) base(vars, n int) int32 { return int32(g.intn(vars - n + 1)) }

// kernelProgram decodes a random valid program that exercises every
// lowering pattern: single instructions of every opcode, multi-word
// gate runs followed by the carry chain reading their temporaries (with
// and without a first carry word), bare chains, bit + const0 runs,
// filllown bit counts, and long same-opcode sequences of runs over
// arbitrary slots (run lists). Operand ranges are drawn from a small
// arena, so destination, operand and temporary ranges overlap often.
func kernelProgram(data []byte) *Program {
	g := &kgen{data: data}
	w := []int{8, 16, 32, 64}[g.intn(4)]
	vars := 4 + g.intn(40)
	p := &Program{WordBits: w, NumVars: vars}
	gates := []Op{OpAnd, OpOr, OpXor, OpNand, OpNor, OpXnor, OpNot, OpMove}
	for steps := 1 + g.intn(24); steps > 0; steps-- {
		switch g.intn(6) {
		case 0: // one instruction of any opcode
			in := Instr{Op: Op(g.intn(int(numOps))), Dst: g.slot(vars), A: g.slot(vars), B: None}
			switch in.Op {
			case OpAnd, OpOr, OpXor, OpNand, OpNor, OpXnor:
				in.B = g.slot(vars)
			case OpShlOr, OpShlMove, OpShrMove:
				in.Sh = uint8(g.intn(w))
				if in.Sh > 0 && g.intn(2) == 0 {
					in.B = g.slot(vars)
				}
			case OpFill, OpBit:
				in.Sh = uint8(g.intn(w))
			case OpFillLowN:
				in.Sh = uint8(g.intn(w))
				in.B = int32(1 + g.intn(w))
			}
			p.Code = append(p.Code, in)
		case 1, 2: // multi-word gate run, optionally followed by its chain
			n := 1 + g.intn(min(6, vars))
			op := gates[g.intn(len(gates))]
			t, a, b := g.base(vars, n), g.base(vars, n), g.base(vars, n)
			for k := int32(0); k < int32(n); k++ {
				in := Instr{Op: op, Dst: t + k, A: a + k, B: None}
				if op != OpNot && op != OpMove {
					in.B = b + k
				}
				p.Code = append(p.Code, in)
			}
			if g.intn(4) == 0 {
				break
			}
			p.Code = appendChain(p.Code, g, vars, n, t, w)
		case 3: // bare carry chain
			n := 1 + g.intn(min(6, vars))
			p.Code = appendChain(p.Code, g, vars, n, g.base(vars, n), w)
		case 4: // bit + const0 run (the flat init's per-net shape)
			n := 1 + g.intn(min(5, vars))
			p.Code = append(p.Code, Instr{Op: OpBit, Dst: g.slot(vars), A: g.slot(vars), B: None, Sh: uint8(g.intn(w))})
			z := g.base(vars, n)
			for k := int32(0); k < int32(n); k++ {
				p.Code = append(p.Code, Instr{Op: OpConst0, Dst: z + k, A: None, B: None})
			}
		case 5: // same-opcode runs (a run list), optionally ending in a gate + chain
			p.Code = appendRunList(p.Code, g, vars, w, gates[g.intn(len(gates))])
		}
	}
	return p
}

// appendRunList appends a sequence of op runs of mixed lengths over
// arbitrary slots, the PC-set fold stage's shape. A unit's operands
// often start at a slot an earlier unit wrote; the sequence may end with
// one more run followed by the carry chain reading it.
func appendRunList(code []Instr, g *kgen, vars, w int, op Op) []Instr {
	var wrote []int32
	unit := func(n int) int32 {
		t, a, b := g.base(vars, n), g.base(vars, n), g.base(vars, n)
		if len(wrote) > 0 && g.intn(2) == 0 {
			a = min(wrote[g.intn(len(wrote))], int32(vars-n))
		}
		for k := int32(0); k < int32(n); k++ {
			in := Instr{Op: op, Dst: t + k, A: a + k, B: None}
			if op != OpNot && op != OpMove {
				in.B = b + k
			}
			code = append(code, in)
		}
		wrote = append(wrote, t)
		return t
	}
	for units := 2 + g.intn(10); units > 0; units-- {
		unit(1 + g.intn(min(4, vars)))
	}
	if g.intn(3) == 0 {
		n := 1 + g.intn(min(4, vars))
		code = appendChain(code, g, vars, n, unit(n), w)
	}
	return code
}

// appendChain appends an n-element shlor carry chain over temporaries
// src..src+n−1 into a random destination range; element 0 carries from
// a random slot or from nothing.
func appendChain(code []Instr, g *kgen, vars, n int, src int32, w int) []Instr {
	d := g.base(vars, n)
	sh := uint8(1 + g.intn(w-1))
	c := None
	if g.intn(3) == 0 {
		c = g.slot(vars)
	}
	for k := int32(0); k < int32(n); k++ {
		in := Instr{Op: OpShlOr, Dst: d + k, A: src + k, B: src + k - 1, Sh: sh}
		if k == 0 {
			in.B = c
		}
		code = append(code, in)
	}
	return code
}

// checkKernel runs p once through Exec and once through the lowered
// kernel from the same masked arena and reports any differing slot.
func checkKernel(t *testing.T, p *Program, seed []byte) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("generated program invalid: %v", err)
	}
	want := make([]uint64, p.NumVars)
	for i := range want {
		var b [8]byte
		copy(b[:], seed[min(len(seed), i*3%max(len(seed), 1)):])
		want[i] = (binary.LittleEndian.Uint64(b[:]) ^ uint64(i)*0x9e3779b97f4a7c15) & p.Mask()
	}
	got := slices.Clone(want)
	Exec(p.Code, want, p.WordBits)
	p.Run(got)
	if !slices.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("slot %d: kernel %#x, Exec %#x\n%s", i, got[i], want[i], p.Disassemble())
			}
		}
	}
}

// FuzzKernel is the differential check of the lowering: for random
// valid programs, the kernel behind Program.Run leaves the arena
// bit-identical to Exec over the generated code.
func FuzzKernel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 30, 8, 1, 3, 4, 9, 2, 7, 1, 0, 2, 5, 1, 4, 3, 1, 1, 4, 4, 0})
	f.Add([]byte{2, 12, 12, 2, 3, 2, 1, 0, 0, 5, 3, 2, 2, 2, 0, 3, 0, 4, 0})
	f.Add([]byte{1, 20, 20, 0, 17, 3, 5, 1, 3, 0, 17, 3, 5, 9, 4, 6, 2, 0, 4, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkKernel(t, kernelProgram(data), data)
	})
}

// TestKernelRandomPrograms runs the fuzz target's generator over a fixed
// sweep of inputs, so plain go test covers the lowering's corner cases.
func TestKernelRandomPrograms(t *testing.T) {
	data := make([]byte, 96)
	x := uint64(1)
	for i := 0; i < 3000; i++ {
		for j := range data {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			data[j] = byte(x)
		}
		checkKernel(t, kernelProgram(data), data)
	}
}

// TestKernelMerges pins the lowering of the parallel technique's
// per-gate shape (a 4-word gate run with its carry chain is one
// superinstruction, an init bit with its const0 run another) and of run
// lists: same-opcode runs of mixed lengths over arbitrary slots are one
// superinstruction, units may read what earlier units wrote, a list
// stops before a run that fuses with the carry chain after it, a lone
// multi-word run is a one-unit list and a lone single word a single
// instruction.
func TestKernelMerges(t *testing.T) {
	p := &Program{WordBits: 32, NumVars: 16}
	for k := int32(0); k < 4; k++ {
		p.Code = append(p.Code, Instr{Op: OpNor, Dst: 12 + k, A: k, B: 4 + k})
	}
	for k := int32(0); k < 4; k++ {
		in := Instr{Op: OpShlOr, Dst: 8 + k, A: 12 + k, B: 11 + k, Sh: 1}
		if k == 0 {
			in.B = None
		}
		p.Code = append(p.Code, in)
	}
	p.Code = append(p.Code, Instr{Op: OpBit, Dst: 0, A: 3, B: None, Sh: 31},
		Instr{Op: OpConst0, Dst: 1, A: None, B: None},
		Instr{Op: OpConst0, Dst: 2, A: None, B: None},
		Instr{Op: OpConst0, Dst: 3, A: None, B: None})
	k := p.Kernel()
	if k.Ops() != 2 || k.code[0].op != kNorShl || k.code[0].n != 4 || k.code[1].op != kBitZero || k.code[1].n != 3 {
		t.Fatalf("lowered %d superinstructions: %+v", k.Ops(), k.code)
	}
	checkKernel(t, p, []byte{0xa5, 0x3c, 0x77, 0x10, 0xfe})

	// A chain whose destination range overlaps its temporaries is not
	// fused: chain element 1 would read a temporary element 0 rewrote.
	q := &Program{WordBits: 8, NumVars: 8, Code: []Instr{
		{Op: OpAnd, Dst: 2, A: 0, B: 4},
		{Op: OpAnd, Dst: 3, A: 1, B: 5},
		{Op: OpShlOr, Dst: 2, A: 2, B: None, Sh: 1},
		{Op: OpShlOr, Dst: 3, A: 3, B: 2, Sh: 1},
	}}
	if k := q.Kernel(); k.code[0].op != kAndL || !slices.Equal(k.listUnits(k.code[0]), []kunit{{2, 0, 4, 2}}) {
		t.Fatalf("gate run not a one-unit list: %+v", k.code)
	}
	for _, in := range q.Kernel().code {
		if in.op >= kAndShl && in.op <= kMoveShl1 {
			t.Fatalf("fused an aliased chain: %+v", q.Kernel().code)
		}
	}
	checkKernel(t, q, []byte{0x5a, 0xc3})

	// Two 3-input nand gates over 3 and 1 time slots, emitted stage by
	// stage: and (s0, s1), and (dst, s2), not. The second gate's first
	// stage reads a slot the first gate's wrote.
	r := &Program{WordBits: 64, NumVars: 32, Code: []Instr{
		{Op: OpAnd, Dst: 10, A: 0, B: 3}, {Op: OpAnd, Dst: 11, A: 1, B: 4}, {Op: OpAnd, Dst: 12, A: 2, B: 5},
		{Op: OpAnd, Dst: 20, A: 11, B: 8},
		{Op: OpAnd, Dst: 10, A: 10, B: 16}, {Op: OpAnd, Dst: 11, A: 11, B: 17}, {Op: OpAnd, Dst: 12, A: 12, B: 18},
		{Op: OpAnd, Dst: 20, A: 20, B: 6},
		{Op: OpNot, Dst: 10, A: 10, B: None}, {Op: OpNot, Dst: 11, A: 11, B: None}, {Op: OpNot, Dst: 12, A: 12, B: None},
		{Op: OpNot, Dst: 20, A: 20, B: None},
	}}
	k = r.Kernel()
	want := [][]kunit{
		{{10, 0, 3, 3}, {20, 11, 8, 1}, {10, 10, 16, 3}, {20, 20, 6, 1}},
		{{10, 10, None, 3}, {20, 20, None, 1}},
	}
	if k.Ops() != 2 || k.code[0].op != kAndL || k.code[1].op != kNotL {
		t.Fatalf("lowered %d superinstructions: %+v", k.Ops(), k.code)
	}
	for i, w := range want {
		if got := k.listUnits(k.code[i]); !slices.Equal(got, w) {
			t.Fatalf("list %d: units %+v, want %+v", i, got, w)
		}
	}
	if k.Bytes() != 2*int(unsafe.Sizeof(kinstr{}))+6*int(unsafe.Sizeof(kunit{})) {
		t.Fatalf("Bytes %d does not count the operand array", k.Bytes())
	}
	checkKernel(t, r, []byte{0x13, 0x9f, 0x44, 0xd0})

	// A list ends before a run that fuses with its carry chain; the
	// chained run keeps its gate+chain superinstruction.
	q = &Program{WordBits: 16, NumVars: 16, Code: []Instr{
		{Op: OpOr, Dst: 0, A: 1, B: 2},
		{Op: OpOr, Dst: 3, A: 0, B: 5},
		{Op: OpOr, Dst: 8, A: 0, B: 2}, {Op: OpOr, Dst: 9, A: 1, B: 3},
		{Op: OpShlOr, Dst: 12, A: 8, B: None, Sh: 1}, {Op: OpShlOr, Dst: 13, A: 9, B: 8, Sh: 1},
		{Op: OpXor, Dst: 6, A: 7, B: 10},
	}}
	k = q.Kernel()
	if k.Ops() != 3 || k.code[0].op != kOrL || k.code[1].op != kOrShl || k.code[1].n != 2 || k.code[2].op != kXor {
		t.Fatalf("lowered %d superinstructions: %+v", k.Ops(), k.code)
	}
	if got := k.listUnits(k.code[0]); !slices.Equal(got, []kunit{{0, 1, 2, 1}, {3, 0, 5, 1}}) {
		t.Fatalf("list units %+v", got)
	}
	checkKernel(t, q, []byte{0x71, 0x0e})
}

// listUnits returns the units of run list in.
func (k *Kernel) listUnits(in kinstr) []kunit { return k.units[in.a:][:in.n] }

// TestKernelFollowsCode checks that replacing Code lowers again, and
// that a Clone lowers its own kernel.
func TestKernelFollowsCode(t *testing.T) {
	p := &Program{WordBits: 8, NumVars: 2, Code: []Instr{{Op: OpConst1, Dst: 0, A: None, B: None}}}
	st := []uint64{0, 0}
	p.Run(st)
	k := p.Kernel()
	if p.Kernel() != k {
		t.Fatal("kernel lowered twice for the same code")
	}
	p.Code = []Instr{{Op: OpConst1, Dst: 1, A: None, B: None}}
	p.Run(st)
	if st[1] != 0xFF {
		t.Fatal("Run executed a stale kernel after Code was replaced")
	}
	// An opcode outside the instruction set does nothing, as in Exec.
	p.Code = []Instr{{Op: numOps + 7, Dst: 0}, {Op: OpConst0, Dst: 1, A: None, B: None}}
	p.Run(st)
	if st[0] != 0xFF || st[1] != 0 {
		t.Fatalf("invalid opcode: state %#x", st)
	}
	c := p.Clone()
	if c.Kernel() == p.Kernel() {
		t.Fatal("clone shares its source's kernel")
	}
	if c.MemBytes() < len(c.Code)*20 {
		t.Fatalf("MemBytes %d below the code's own size", c.MemBytes())
	}
}

// TestKernelConcurrentRuns runs one program from several goroutines at
// once, each over its own arena, starting before anything has lowered
// it: under -race this checks that lazy lowering publishes safely, and
// every goroutine must end with the one published kernel.
func TestKernelConcurrentRuns(t *testing.T) {
	p := kernelProgram([]byte{3, 30, 8, 1, 3, 4, 9, 2, 7, 1, 0, 2, 5, 1, 4, 3, 1, 1, 4, 4, 0})
	want := make([]uint64, p.NumVars)
	Exec(p.Code, want, p.WordBits)
	var wg sync.WaitGroup
	kernels := make([]*Kernel, 4)
	for g := range kernels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := make([]uint64, p.NumVars)
			p.Run(st)
			if !slices.Equal(st, want) {
				t.Error("concurrent run differs from Exec")
			}
			kernels[g] = p.Kernel()
		}()
	}
	wg.Wait()
	for _, k := range kernels {
		if k != kernels[0] {
			t.Fatal("goroutines sharing a program ended with different kernels")
		}
	}
}
