package parsim

import (
	"math/rand"
	"slices"
	"testing"

	"udsim/internal/align"
	"udsim/internal/circuit"
	"udsim/internal/ckttest"
	"udsim/internal/refsim"
	"udsim/internal/shard"
)

// TestPrevFinalReaders covers every reader of the previous finals that
// BeginVector captures: ValueAt before a net's alignment (aligned nets
// read prevFinal, the rest read their field's bit 0) and the activity
// gate's Flatten (skipped fields are rewritten from prevFinal). In the
// default, shift-eliminated and activity-gated configurations it checks
// ValueAt(n, t) for every t < alignOf[n] against the previous vector's
// reference final after each vector, and checks the gated run's
// waveforms against sequential execution.
func TestPrevFinalReaders(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	c := ckttest.Random(r, 60, 6)
	norm, aligned := alignedConfig(t, c, align.MethodCycleBreak, 8, false)

	// A fresh vector, a second one, then single-bit deltas and a repeat:
	// the gated strategy runs everything on its first vector and skips
	// unchanged cones on the later ones.
	vecs := make([][]bool, 6)
	for i := range vecs {
		vecs[i] = make([]bool, len(norm.Inputs))
		switch {
		case i < 2:
			for j := range vecs[i] {
				vecs[i][j] = r.Intn(2) == 1
			}
		default:
			copy(vecs[i], vecs[i-1])
			if i%2 == 0 {
				j := r.Intn(len(vecs[i]))
				vecs[i][j] = !vecs[i][j]
			}
		}
	}

	cases := []struct {
		name  string
		cfg   Config
		gated bool
	}{
		{"default", Config{WordBits: 8}, false},
		{"aligned", aligned, false},
		{"gated", Config{WordBits: 8}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Compile(norm, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "aligned" && !slices.ContainsFunc(s.alignOf, func(a int) bool { return a > 0 }) {
				t.Fatal("no net aligned above time 0: the prevFinal read path is not exercised")
			}
			if tc.gated {
				if _, err := s.ConfigureExec(shard.ActivityGated, 1); err != nil {
					t.Fatal(err)
				}
				defer s.Close()
			}
			hists, _, err := ckttest.Waveforms(norm, vecs, s.Depth())
			if err != nil {
				t.Fatal(err)
			}
			prev, err := refsim.ConsistentState(norm, make([]bool, len(norm.Inputs)))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.ResetConsistent(nil); err != nil {
				t.Fatal(err)
			}
			for v, vec := range vecs {
				if err := s.ApplyVector(vec); err != nil {
					t.Fatal(err)
				}
				for n := range norm.Nets {
					id := circuit.NetID(n)
					for tm := -2; tm < s.alignOf[n]; tm++ {
						if got := s.ValueAt(id, tm); got != prev[n] {
							t.Fatalf("vector %d net %s t=%d (align %d): ValueAt %v, previous final %v",
								v, norm.Nets[n].Name, tm, s.alignOf[n], got, prev[n])
						}
					}
					for tm := 0; tm <= s.Depth(); tm++ {
						if got := s.ValueAt(id, tm); got != hists[v][tm][n] {
							t.Fatalf("vector %d net %s t=%d: ValueAt %v, reference %v",
								v, norm.Nets[n].Name, tm, got, hists[v][tm][n])
						}
					}
				}
				prev = hists[v][s.Depth()]
			}
			if tc.gated {
				if _, _, skipped := s.GatingLevels(); skipped == 0 {
					t.Fatal("the gated run skipped no level: Flatten's prevFinal read is not exercised")
				}
				seq, err := Compile(norm, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(applyAll(t, s, vecs), applyAll(t, seq, vecs)) {
					t.Fatal("gated waveforms differ from sequential")
				}
			}
		})
	}
}
