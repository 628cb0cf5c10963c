// Multiplier: simulate the c6288-class 16×16 array multiplier with the
// fully optimized parallel technique (path-tracing shift elimination plus
// bit-field trimming) and verify every product against native integer
// multiplication — the generated circuit really multiplies.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"udsim"
)

const width = 16

func main() {
	ckt := udsim.Multiplier(width, true) // authentic 9-NOR adder cells
	fmt.Printf("circuit: %s\n", ckt)

	eng, err := udsim.Open(ckt, udsim.TechParallel,
		udsim.WithShiftElimination(udsim.PathTracing),
		udsim.WithTrimming(),
	)
	if err != nil {
		log.Fatal(err)
	}
	sim := eng.(*udsim.CompiledSim) // ShiftCount sits below the Introspector surface
	fmt.Printf("engine: %s, depth %d gate delays, %d compiled instructions, %d retained shifts\n",
		sim.EngineName(), sim.Depth(), sim.CodeSize(), sim.ShiftCount())

	if err := sim.ResetConsistent(nil); err != nil {
		log.Fatal(err)
	}

	// Output nets p0..p31 on the engine's circuit.
	outs := make([]udsim.NetID, 2*width)
	for i := range outs {
		id, ok := sim.Circuit().NetByName(fmt.Sprintf("p%d", i))
		if !ok {
			log.Fatalf("output p%d missing", i)
		}
		outs[i] = id
	}

	r := rand.New(rand.NewSource(42))
	const trials = 2000
	vec := make([]bool, 2*width)
	start := time.Now()
	for k := 0; k < trials; k++ {
		x := uint64(r.Intn(1 << width))
		y := uint64(r.Intn(1 << width))
		for i := 0; i < width; i++ {
			vec[i] = x>>uint(i)&1 == 1
			vec[width+i] = y>>uint(i)&1 == 1
		}
		if err := sim.Apply(vec); err != nil {
			log.Fatal(err)
		}
		var p uint64
		for i, id := range outs {
			if sim.Final(id) {
				p |= 1 << uint(i)
			}
		}
		if p != x*y {
			log.Fatalf("MISMATCH: %d * %d = %d, circuit says %d", x, y, x*y, p)
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("verified %d random products in %v (%.0f vectors/sec) — all correct\n",
		trials, elapsed.Round(time.Millisecond), float64(trials)/elapsed.Seconds())

	// Show the settling profile of one multiply: how many product bits
	// already hold their final value at each gate delay.
	x, y := uint64(40503), uint64(28764)
	for i := 0; i < width; i++ {
		vec[i] = x>>uint(i)&1 == 1
		vec[width+i] = y>>uint(i)&1 == 1
	}
	if err := sim.Apply(vec); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsettling profile of %d * %d = %d:\n", x, y, x*y)
	for t := 0; t <= sim.Depth(); t += 10 {
		settled := 0
		for _, id := range outs {
			v, _ := sim.ValueAt(id, t)
			if v == sim.Final(id) {
				settled++
			}
		}
		fmt.Printf("  t=%3d: %2d/%d output bits at final value\n", t, settled, len(outs))
	}
}
