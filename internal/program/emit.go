package program

import (
	"fmt"

	"udsim/internal/logic"
)

// EmitGateEval appends instructions computing the full gate function of
// srcs into dst (including any output inversion): every stage of the
// gate's evaluation (see GateStage), in order. dst must not alias any
// element of srcs beyond the first two: multi-input folds accumulate
// into dst. Returns the extended code slice.
func EmitGateEval(code []Instr, t logic.GateType, dst int32, srcs []int32) []Instr {
	for s := range GateStages(t, len(srcs)) {
		code = append(code, GateStage(t, s, dst, srcs))
	}
	return code
}

// GateStages returns the number of instructions (stages) that evaluate
// a gate of type t with n inputs: one for constants, buffers, inverters
// and two-input gates; for a k-input fold, k−1 base operations plus a
// trailing not when the gate inverts.
func GateStages(t logic.GateType, n int) int {
	switch t {
	case logic.Const0, logic.Const1, logic.Buf, logic.Not:
		return 1
	}
	if n == 2 {
		return 1
	}
	if t.Inverting() {
		return n
	}
	return n - 1
}

// GateStage returns stage s of the evaluation of a gate of type t over
// srcs into dst. Stage 0 is the gate itself for one-stage gates and
// "base dst, s0, s1" for a multi-input fold; stage j ≥ 1 of a fold is
// "base dst, dst, s(j+1)", and the last stage of an inverting fold is
// "not dst, dst". Stage j reads dst only as written by stage j−1, so a
// compiler may interleave the stages of independent gates freely as long
// as each gate's stages stay in order.
func GateStage(t logic.GateType, s int, dst int32, srcs []int32) Instr {
	switch t {
	case logic.Const0:
		return Instr{Op: OpConst0, Dst: dst, A: None, B: None}
	case logic.Const1:
		return Instr{Op: OpConst1, Dst: dst, A: None, B: None}
	case logic.Buf:
		return Instr{Op: OpMove, Dst: dst, A: srcs[0], B: None}
	case logic.Not:
		return Instr{Op: OpNot, Dst: dst, A: srcs[0], B: None}
	}
	var fused, base Op
	switch t.Base() {
	case logic.And:
		base = OpAnd
	case logic.Or:
		base = OpOr
	case logic.Xor:
		base = OpXor
	default:
		panic(fmt.Sprintf("program: GateStage: unsupported gate type %v", t))
	}
	switch t {
	case logic.Nand:
		fused = OpNand
	case logic.Nor:
		fused = OpNor
	case logic.Xnor:
		fused = OpXnor
	default:
		fused = base
	}
	switch {
	case len(srcs) == 2:
		return Instr{Op: fused, Dst: dst, A: srcs[0], B: srcs[1]}
	case s == 0:
		return Instr{Op: base, Dst: dst, A: srcs[0], B: srcs[1]}
	case s < len(srcs)-1:
		return Instr{Op: base, Dst: dst, A: dst, B: srcs[s+1]}
	}
	// The inverting fold's trailing stage inverts in place.
	return Instr{Op: OpNot, Dst: dst, A: dst, B: None}
}
