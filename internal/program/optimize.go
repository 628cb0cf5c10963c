package program

// Strip returns a copy of the program without the instructions marked in
// dead (indexed by instruction), plus the number removed. Slot numbering
// is preserved — the state array keeps its layout, only the stores into
// slots nothing reads are gone — so every Spec, field table and shard
// boundary computed for the original program stays valid. When nothing is
// marked the receiver is returned unchanged.
//
// Strip itself trusts the mask; computing a provably-safe one is the
// dataflow package's liveness analysis, and the compiled simulators
// re-run the full verifier after stripping (see parsim/pcset
// EliminateDeadStores).
func Strip(p *Program, dead []bool) (*Program, int) {
	removed := 0
	for i := range p.Code {
		if i < len(dead) && dead[i] {
			removed++
		}
	}
	if removed == 0 {
		return p, 0
	}
	q := &Program{WordBits: p.WordBits, NumVars: p.NumVars, VarNames: p.VarNames,
		Code: make([]Instr, 0, len(p.Code)-removed)}
	for i := range p.Code {
		if i < len(dead) && dead[i] {
			continue
		}
		q.Code = append(q.Code, p.Code[i])
	}
	return q, removed
}
