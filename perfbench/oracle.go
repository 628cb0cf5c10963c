package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"

	"udsim"
	"udsim/internal/circuit"
	"udsim/internal/refsim"
)

// randomVectors draws n uniform random input vectors of the given width.
func randomVectors(rng *rand.Rand, n, width int) [][]bool {
	vecs := make([][]bool, n)
	for i := range vecs {
		v := make([]bool, width)
		for j := range v {
			v[j] = rng.Intn(2) == 1
		}
		vecs[i] = v
	}
	return vecs
}

// expectedOutputs renders, for every vector, the settled primary-output
// values refsim computes as a '0'/'1' string in c.Outputs order. On a
// combinational circuit the unit-delay final of a net is its zero-delay
// settled value, whatever the previous vector was.
func expectedOutputs(c *circuit.Circuit, vecs [][]bool) ([][]byte, error) {
	ev, err := refsim.NewEvaluator(c)
	if err != nil {
		return nil, err
	}
	want := make([][]byte, len(vecs))
	for i, v := range vecs {
		vals, err := ev.Evaluate(v)
		if err != nil {
			return nil, err
		}
		b := make([]byte, len(c.Outputs))
		for j, o := range c.Outputs {
			b[j] = bit(vals[o])
		}
		want[i] = b
	}
	return want, nil
}

func bit(v bool) byte {
	if v {
		return '1'
	}
	return '0'
}

// readFinals writes the engine's primary-output finals into buf.
func readFinals(eng udsim.Engine, pos []circuit.NetID, buf []byte) {
	for j, o := range pos {
		buf[j] = bit(eng.Final(o))
	}
}

// digest is the FNV-1a digest the service returns for digest_only
// batches: one hash over every vector's output string in order.
func digest(outs [][]byte) string {
	h := fnv.New64a()
	for _, o := range outs {
		h.Write(o)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkOutputs compares one vector's outputs with the reference.
func checkOutputs(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("outputs %s, reference %s", got, want)
	}
	return nil
}

// checkDigest compares a batch digest with the reference.
func checkDigest(got, want string) error {
	if got != want {
		return fmt.Errorf("digest %q, reference %q", got, want)
	}
	return nil
}

// referenceHistory is refsim's full unit-delay history of vec applied
// after prev has settled (nil prev = the all-zeros consistent state).
func referenceHistory(c *circuit.Circuit, prev, vec []bool, depth int) ([][]bool, error) {
	if prev == nil {
		prev = make([]bool, len(c.Inputs))
	}
	state, err := refsim.Evaluate(c, prev)
	if err != nil {
		return nil, err
	}
	return refsim.UnitDelayHistory(c, state, vec, depth)
}

// checkHistory compares every observable (net, time) value of the
// engine's last vector with the reference history. It fails when no
// value was observable, so an engine that hides everything cannot pass.
func checkHistory(tr udsim.Tracer, hist [][]bool) error {
	seen := 0
	for t, row := range hist {
		for n, want := range row {
			got, ok := tr.ValueAt(circuit.NetID(n), t)
			if !ok {
				continue
			}
			seen++
			if got != want {
				return fmt.Errorf("net %d at t=%d is %t, reference %t", n, t, got, want)
			}
		}
	}
	if seen == 0 {
		return fmt.Errorf("no observable history values")
	}
	return nil
}

// oracleSelfTest shows that each check catches a corrupted reference: it
// simulates a few vectors on a small generated circuit, confirms the
// checks pass against the true reference, and confirms each fails once
// one bit of the reference is flipped.
func oracleSelfTest() error {
	c, err := udsim.ISCAS85("c432")
	if err != nil {
		return err
	}
	eng, err := udsim.Open(c, udsim.TechParallel)
	if err != nil {
		return err
	}
	cc := eng.Circuit()
	vecs := randomVectors(rand.New(rand.NewSource(1)), 4, len(cc.Inputs))
	want, err := expectedOutputs(cc, vecs)
	if err != nil {
		return err
	}
	if err := eng.ResetConsistent(nil); err != nil {
		return err
	}
	got := make([][]byte, len(vecs))
	for i, v := range vecs {
		if err := eng.Apply(v); err != nil {
			return err
		}
		got[i] = make([]byte, len(cc.Outputs))
		readFinals(eng, cc.Outputs, got[i])
	}
	hist, err := referenceHistory(cc, vecs[2], vecs[3], eng.Depth())
	if err != nil {
		return err
	}
	tr := eng.(udsim.Tracer)
	if err := checkOutputs(got[3], want[3]); err != nil {
		return fmt.Errorf("true reference rejected: %v", err)
	}
	if err := checkDigest(digest(got), digest(want)); err != nil {
		return fmt.Errorf("true reference rejected: %v", err)
	}
	if err := checkHistory(tr, hist); err != nil {
		return fmt.Errorf("true reference rejected: %v", err)
	}

	bad := append([]byte(nil), want[3]...)
	bad[0] ^= '0' ^ '1'
	if checkOutputs(got[3], bad) == nil {
		return fmt.Errorf("corrupted output reference not caught")
	}
	badAll := append([][]byte(nil), want...)
	badAll[3] = bad
	if checkDigest(digest(got), digest(badAll)) == nil {
		return fmt.Errorf("corrupted digest reference not caught")
	}
	o := cc.Outputs[0]
	hist[len(hist)-1][o] = !hist[len(hist)-1][o]
	if checkHistory(tr, hist) == nil {
		return fmt.Errorf("corrupted history reference not caught")
	}
	return nil
}
