package native

import (
	"math/bits"

	"udsim/internal/engine"
)

// LayoutOf derives the child layout from a compiled engine: each
// primary input is a (possibly multi-word) field with the
// delayed-alignment split the engine's input write uses, each primary
// output the bit holding its settled value.
func LayoutOf(e *engine.Core) Layout {
	init, sim := e.Programs()
	c := e.Circuit()
	numVars := sim.NumVars
	if init.NumVars > numVars {
		numVars = init.NumVars
	}
	l := Layout{
		WordBits: sim.WordBits,
		NumVars:  numVars,
		Inputs:   make([]InputField, len(c.Inputs)),
		Outputs:  make([]OutputBit, len(c.Outputs)),
	}
	tech := e.Technique()
	for i := range c.Inputs {
		base, words, split := tech.InputField(i)
		l.Inputs[i] = InputField{Base: base, Words: words, Split: int32(split)}
	}
	for i, id := range c.Outputs {
		slot, mask := e.FinalSlot(id)
		l.Outputs[i] = OutputBit{Slot: int32(slot), Bit: uint8(bits.TrailingZeros64(mask))}
	}
	return l
}
