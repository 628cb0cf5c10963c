package program

// run executes the kernel over st. Every case is the sequential
// semantics of the instructions it replaces (see Exec). The n-word runs
// slice their operand ranges once, so their element loops carry no
// per-word bounds checks; a run list does the same per unit, except for
// single-word units (most of a PC-set program's), which it indexes
// directly. The multi-word chain and gate-plus-chain
// loops live in their own functions: there the register allocator
// keeps a whole element in registers, where inline in this loop it
// spilled them around the dispatch state (c6288's simulation program,
// all 4-word gates, ran about 1.2x slower inline).
func (k *Kernel) run(st []uint64) {
	mask, w, code := k.mask, k.w, k.code
	for i := range code {
		in := &code[i]
		switch in.op {
		case kAnd:
			st[in.dst] = st[in.a] & st[in.b]
		case kOr:
			st[in.dst] = st[in.a] | st[in.b]
		case kXor:
			st[in.dst] = st[in.a] ^ st[in.b]
		case kNand:
			st[in.dst] = mask &^ (st[in.a] & st[in.b])
		case kNor:
			st[in.dst] = mask &^ (st[in.a] | st[in.b])
		case kXnor:
			st[in.dst] = mask &^ (st[in.a] ^ st[in.b])
		case kNot:
			st[in.dst] = mask &^ st[in.a]
		case kMove:
			st[in.dst] = st[in.a]
		case kOrMove:
			st[in.dst] |= st[in.a]
		case kConst0:
			st[in.dst] = 0
		case kConst1:
			st[in.dst] = mask
		case kShlOr:
			st[in.dst] |= (st[in.a]<<in.sh | st[in.b]>>(w-uint(in.sh))) & mask
		case kShlOr0:
			st[in.dst] |= st[in.a] << in.sh & mask
		case kShlMove:
			st[in.dst] = (st[in.a]<<in.sh | st[in.b]>>(w-uint(in.sh))) & mask
		case kShlMove0:
			st[in.dst] = st[in.a] << in.sh & mask
		case kShrMove:
			st[in.dst] = ((st[in.a]&mask)>>in.sh | st[in.b]<<(w-uint(in.sh))) & mask
		case kShrMove0:
			st[in.dst] = (st[in.a] & mask) >> in.sh
		case kFill:
			st[in.dst] = (0 - st[in.a]>>in.sh&1) & mask
		case kBit:
			st[in.dst] = st[in.a] >> in.sh & 1
		case kFillLowN:
			st[in.dst] = (0 - st[in.a]>>in.sh&1) & (^uint64(0) >> (64 - uint(in.b)))

		case kOrMoveN:
			n := int(in.n)
			d, a := st[in.dst:][:n], st[in.a:][:n]
			for j := range d {
				d[j] |= a[j]
			}
		case kConst0N:
			clear(st[in.dst:][:in.n])
		case kConst1N:
			d := st[in.dst:][:in.n]
			for j := range d {
				d[j] = mask
			}

		case kAndL:
			for _, u := range k.units[in.a:][:in.n] {
				if u.n == 1 {
					st[u.dst] = st[u.a] & st[u.b]
					continue
				}
				d, a, b := st[u.dst:][:u.n], st[u.a:][:u.n], st[u.b:][:u.n]
				for j := range d {
					d[j] = a[j] & b[j]
				}
			}
		case kOrL:
			for _, u := range k.units[in.a:][:in.n] {
				if u.n == 1 {
					st[u.dst] = st[u.a] | st[u.b]
					continue
				}
				d, a, b := st[u.dst:][:u.n], st[u.a:][:u.n], st[u.b:][:u.n]
				for j := range d {
					d[j] = a[j] | b[j]
				}
			}
		case kXorL:
			for _, u := range k.units[in.a:][:in.n] {
				if u.n == 1 {
					st[u.dst] = st[u.a] ^ st[u.b]
					continue
				}
				d, a, b := st[u.dst:][:u.n], st[u.a:][:u.n], st[u.b:][:u.n]
				for j := range d {
					d[j] = a[j] ^ b[j]
				}
			}
		case kNandL:
			for _, u := range k.units[in.a:][:in.n] {
				if u.n == 1 {
					st[u.dst] = mask &^ (st[u.a] & st[u.b])
					continue
				}
				d, a, b := st[u.dst:][:u.n], st[u.a:][:u.n], st[u.b:][:u.n]
				for j := range d {
					d[j] = mask &^ (a[j] & b[j])
				}
			}
		case kNorL:
			for _, u := range k.units[in.a:][:in.n] {
				if u.n == 1 {
					st[u.dst] = mask &^ (st[u.a] | st[u.b])
					continue
				}
				d, a, b := st[u.dst:][:u.n], st[u.a:][:u.n], st[u.b:][:u.n]
				for j := range d {
					d[j] = mask &^ (a[j] | b[j])
				}
			}
		case kXnorL:
			for _, u := range k.units[in.a:][:in.n] {
				if u.n == 1 {
					st[u.dst] = mask &^ (st[u.a] ^ st[u.b])
					continue
				}
				d, a, b := st[u.dst:][:u.n], st[u.a:][:u.n], st[u.b:][:u.n]
				for j := range d {
					d[j] = mask &^ (a[j] ^ b[j])
				}
			}
		case kNotL:
			for _, u := range k.units[in.a:][:in.n] {
				if u.n == 1 {
					st[u.dst] = mask &^ st[u.a]
					continue
				}
				d, a := st[u.dst:][:u.n], st[u.a:][:u.n]
				for j := range d {
					d[j] = mask &^ a[j]
				}
			}
		case kMoveL:
			for _, u := range k.units[in.a:][:in.n] {
				if u.n == 1 {
					st[u.dst] = st[u.a]
					continue
				}
				d, a := st[u.dst:][:u.n], st[u.a:][:u.n]
				for j := range d {
					d[j] = a[j]
				}
			}

		case kChain:
			chain(st, in, mask, w)

		case kAndShl:
			andShl(st, in, mask, w)
		case kOrShl:
			orShl(st, in, mask, w)
		case kXorShl:
			xorShl(st, in, mask, w)
		case kNandShl:
			nandShl(st, in, mask, w)
		case kNorShl:
			norShl(st, in, mask, w)
		case kXnorShl:
			xnorShl(st, in, mask, w)
		case kNotShl:
			notShl(st, in, mask, w)
		case kMoveShl:
			moveShl(st, in, mask, w)
		case kAndShl1:
			v := st[in.a] & st[in.b]
			st[in.t] = v
			st[in.dst] |= shlCarry(v, carry(st, in.c), in.sh, w, mask)
		case kOrShl1:
			v := st[in.a] | st[in.b]
			st[in.t] = v
			st[in.dst] |= shlCarry(v, carry(st, in.c), in.sh, w, mask)
		case kXorShl1:
			v := st[in.a] ^ st[in.b]
			st[in.t] = v
			st[in.dst] |= shlCarry(v, carry(st, in.c), in.sh, w, mask)
		case kNandShl1:
			v := mask &^ (st[in.a] & st[in.b])
			st[in.t] = v
			st[in.dst] |= shlCarry(v, carry(st, in.c), in.sh, w, mask)
		case kNorShl1:
			v := mask &^ (st[in.a] | st[in.b])
			st[in.t] = v
			st[in.dst] |= shlCarry(v, carry(st, in.c), in.sh, w, mask)
		case kXnorShl1:
			v := mask &^ (st[in.a] ^ st[in.b])
			st[in.t] = v
			st[in.dst] |= shlCarry(v, carry(st, in.c), in.sh, w, mask)
		case kNotShl1:
			v := mask &^ st[in.a]
			st[in.t] = v
			st[in.dst] |= shlCarry(v, carry(st, in.c), in.sh, w, mask)
		case kMoveShl1:
			v := st[in.a]
			st[in.t] = v
			st[in.dst] |= shlCarry(v, carry(st, in.c), in.sh, w, mask)
		case kBitZero:
			st[in.dst] = st[in.a] >> (in.sh & 63) & 1
			// An indexed loop, not clear: a few words each, too short to
			// pay for a memclr call.
			z := st[in.b:][:in.n]
			for j := 0; j < len(z); j++ {
				z[j] = 0
			}
		}
	}
}

// shlCarry is one carry-chain element: v shifted left by sh with the
// top sh bits of the carry word cw shifted in, masked to the word. The
// lowering emits chains only for shifts in [1, W), so masking the shift
// counts to 6 bits changes nothing and spares Go's over-width handling.
func shlCarry(v, cw uint64, sh uint8, w uint, mask uint64) uint64 {
	return (v<<(sh&63) | cw>>((w-uint(sh))&63)) & mask
}

// carry loads a chain's first carry word; None carries zeros.
func carry(st []uint64, c int32) uint64 {
	if c == None {
		return 0
	}
	return st[c]
}

// andShl executes an and gate run fused with its carry chain (kAndShl).
func andShl(st []uint64, in *kinstr, mask uint64, w uint) {
	n, sh, d, t, a, b := int(in.n), in.sh, int(in.dst), int(in.t), int(in.a), int(in.b)
	prev := carry(st, in.c)
	for j := 0; j < n; j++ {
		v := st[a+j] & st[b+j]
		st[t+j] = v
		st[d+j] |= shlCarry(v, prev, sh, w, mask)
		prev = v
	}
}

// orShl executes an or gate run fused with its carry chain (kOrShl).
func orShl(st []uint64, in *kinstr, mask uint64, w uint) {
	n, sh, d, t, a, b := int(in.n), in.sh, int(in.dst), int(in.t), int(in.a), int(in.b)
	prev := carry(st, in.c)
	for j := 0; j < n; j++ {
		v := st[a+j] | st[b+j]
		st[t+j] = v
		st[d+j] |= shlCarry(v, prev, sh, w, mask)
		prev = v
	}
}

// xorShl executes an xor gate run fused with its carry chain (kXorShl).
func xorShl(st []uint64, in *kinstr, mask uint64, w uint) {
	n, sh, d, t, a, b := int(in.n), in.sh, int(in.dst), int(in.t), int(in.a), int(in.b)
	prev := carry(st, in.c)
	for j := 0; j < n; j++ {
		v := st[a+j] ^ st[b+j]
		st[t+j] = v
		st[d+j] |= shlCarry(v, prev, sh, w, mask)
		prev = v
	}
}

// nandShl executes a nand gate run fused with its carry chain (kNandShl).
func nandShl(st []uint64, in *kinstr, mask uint64, w uint) {
	n, sh, d, t, a, b := int(in.n), in.sh, int(in.dst), int(in.t), int(in.a), int(in.b)
	prev := carry(st, in.c)
	for j := 0; j < n; j++ {
		v := mask &^ (st[a+j] & st[b+j])
		st[t+j] = v
		st[d+j] |= shlCarry(v, prev, sh, w, mask)
		prev = v
	}
}

// norShl executes a nor gate run fused with its carry chain (kNorShl).
func norShl(st []uint64, in *kinstr, mask uint64, w uint) {
	n, sh, d, t, a, b := int(in.n), in.sh, int(in.dst), int(in.t), int(in.a), int(in.b)
	prev := carry(st, in.c)
	for j := 0; j < n; j++ {
		v := mask &^ (st[a+j] | st[b+j])
		st[t+j] = v
		st[d+j] |= shlCarry(v, prev, sh, w, mask)
		prev = v
	}
}

// xnorShl executes an xnor gate run fused with its carry chain (kXnorShl).
func xnorShl(st []uint64, in *kinstr, mask uint64, w uint) {
	n, sh, d, t, a, b := int(in.n), in.sh, int(in.dst), int(in.t), int(in.a), int(in.b)
	prev := carry(st, in.c)
	for j := 0; j < n; j++ {
		v := mask &^ (st[a+j] ^ st[b+j])
		st[t+j] = v
		st[d+j] |= shlCarry(v, prev, sh, w, mask)
		prev = v
	}
}

// notShl executes a not gate run fused with its carry chain (kNotShl).
func notShl(st []uint64, in *kinstr, mask uint64, w uint) {
	n, sh, d, t, a := int(in.n), in.sh, int(in.dst), int(in.t), int(in.a)
	prev := carry(st, in.c)
	for j := 0; j < n; j++ {
		v := mask &^ st[a+j]
		st[t+j] = v
		st[d+j] |= shlCarry(v, prev, sh, w, mask)
		prev = v
	}
}

// moveShl executes a move gate run fused with its carry chain (kMoveShl).
func moveShl(st []uint64, in *kinstr, mask uint64, w uint) {
	n, sh, d, t, a := int(in.n), in.sh, int(in.dst), int(in.t), int(in.a)
	prev := carry(st, in.c)
	for j := 0; j < n; j++ {
		v := st[a+j]
		st[t+j] = v
		st[d+j] |= shlCarry(v, prev, sh, w, mask)
		prev = v
	}
}

// chain executes a carry chain (kChain).
func chain(st []uint64, in *kinstr, mask uint64, w uint) {
	n, sh, d, a := int(in.n), in.sh, int(in.dst), int(in.a)
	prev := carry(st, in.c)
	for j := 0; j < n; j++ {
		v := st[a+j]
		st[d+j] |= shlCarry(v, prev, sh, w, mask)
		prev = v
	}
}
