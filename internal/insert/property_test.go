package insert

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dscts/internal/ctree"
	"dscts/internal/tech"
)

// Properties of the pattern transfer functions: the DP's correctness rests
// on these monotonicity and bookkeeping invariants.

func sanitizeLen(l float64) float64 {
	if l != l || math.IsInf(l, 0) || l < 0 {
		return 1
	}
	return 0.1 + math.Mod(l, 400)
}

func sanitizeCap(c float64) float64 {
	if c != c || math.IsInf(c, 0) || c < 0 {
		return 1
	}
	return 0.1 + math.Mod(c, 50)
}

// Delay through any pattern is strictly increasing in downstream cap.
func TestTransferMonotoneInCap(t *testing.T) {
	tc := tech.ASAP7()
	tv := viewOf(tc)
	f := func(lRaw, cRaw float64) bool {
		l := sanitizeLen(lRaw)
		c := sanitizeCap(cRaw)
		for p := Pattern(0); int(p) < numPatterns; p++ {
			_, d1, _, ok1 := transfer(p, &tv, l, c, 0, 0)
			_, d2, _, ok2 := transfer(p, &tv, l, c+1, 0, 0)
			if !ok1 || !ok2 {
				continue // max-cap rejection is allowed
			}
			if d2 <= d1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Upstream cap of every pattern is increasing in downstream cap except the
// buffer pattern, which shields (constant in downstream cap).
func TestTransferCapShielding(t *testing.T) {
	tc := tech.ASAP7()
	tv := viewOf(tc)
	f := func(lRaw, cRaw float64) bool {
		l := sanitizeLen(lRaw)
		c := sanitizeCap(cRaw)
		for p := Pattern(0); int(p) < numPatterns; p++ {
			c1, _, _, ok1 := transfer(p, &tv, l, c, 0, 0)
			c2, _, _, ok2 := transfer(p, &tv, l, c+1, 0, 0)
			if !ok1 || !ok2 {
				continue
			}
			if p == PBuffer {
				if c1 != c2 {
					return false // buffer must shield
				}
			} else if c2 <= c1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The max/min delay bookkeeping shifts both bounds by the same edge delay:
// skew below an edge never changes by assigning a pattern to it.
func TestTransferPreservesSubtreeSkew(t *testing.T) {
	tc := tech.ASAP7()
	tv := viewOf(tc)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		l := rng.Float64()*300 + 0.1
		c := rng.Float64()*40 + 0.1
		minD := rng.Float64() * 100
		maxD := minD + rng.Float64()*50
		for p := Pattern(0); int(p) < numPatterns; p++ {
			_, nMax, nMin, ok := transfer(p, &tv, l, c, maxD, minD)
			if !ok {
				continue
			}
			if diff := (nMax - nMin) - (maxD - minD); diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("%v changed subtree skew by %v", p, diff)
			}
		}
	}
}

// Back-side patterns always beat the plain front wire on delay for long
// wires (the technology premise).
func TestBackPatternsWinOnLongWires(t *testing.T) {
	tc := tech.ASAP7()
	tv := viewOf(tc)
	for _, l := range []float64{50, 100, 200, 400} {
		c := 10.0
		_, front, _, _ := transfer(PWireF, &tv, l, c, 0, 0)
		for _, p := range []Pattern{PWireB, PNTSV1, PNTSV2, PNTSV3} {
			_, d, _, ok := transfer(p, &tv, l, c, 0, 0)
			if !ok {
				t.Fatalf("%v infeasible at l=%v", p, l)
			}
			if d >= front {
				t.Errorf("%v (%v) not faster than front wire (%v) at l=%v", p, d, front, l)
			}
		}
	}
}

// Pruning keeps at least one solution whenever the input is non-empty, and
// never invents solutions.
func TestPruneNeverEmptiesNonEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60) + 1
		sols := make([]Solution, n)
		for i := range sols {
			side := ctree.Front
			if rng.Intn(2) == 0 {
				side = ctree.Back
			}
			sols[i] = Solution{
				Up:   side,
				Cap:  rng.Float64() * 100,
				MaxD: rng.Float64() * 500,
				Bufs: rng.Intn(10), TSVs: rng.Intn(10),
			}
		}
		for _, diverse := range []bool{false, true} {
			out := prune(sols, 16, diverse)
			if len(out) == 0 {
				t.Fatalf("prune emptied %d solutions", n)
			}
			if len(out) > n {
				t.Fatalf("prune grew the set")
			}
			// The min-latency solution must survive (latency optimality).
			bestIn, bestOut := 1e18, 1e18
			for _, s := range sols {
				if s.MaxD < bestIn {
					bestIn = s.MaxD
				}
			}
			for _, s := range out {
				if s.MaxD < bestOut {
					bestOut = s.MaxD
				}
			}
			if bestOut > bestIn+1e-9 {
				t.Fatalf("pruning lost the min-latency solution: %v vs %v (diverse=%v)", bestOut, bestIn, diverse)
			}
		}
	}
}

// DP determinism: identical inputs give identical decisions.
func TestRunDeterministic(t *testing.T) {
	trA, tc := routedTree(t, 150, 77, 40)
	trB := trA.Clone()
	ra, err := Run(trA, DefaultConfig(tc))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(trB, DefaultConfig(tc))
	if err != nil {
		t.Fatal(err)
	}
	if ra.Chosen != rbChosenNoMOES(rb) && ra.Chosen != rb.Chosen {
		t.Fatalf("nondeterministic DP: %+v vs %+v", ra.Chosen, rb.Chosen)
	}
	for i := range trA.Nodes {
		if trA.Nodes[i].Wiring != trB.Nodes[i].Wiring {
			t.Fatalf("wiring differs at node %d", i)
		}
	}
}

func rbChosenNoMOES(r *Result) RootCandidate { return r.Chosen }
