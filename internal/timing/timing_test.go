package timing

import (
	"math"
	"math/rand"
	"testing"

	"dscts/internal/tech"
)

func asap7() *tech.Tech { return tech.ASAP7() }

// Eq. (2) of the paper, expanded form:
// D = (rb·cb)L² + (rb·Ct + rb·Cd + Rt·cb)L + Rt(3Ct + 2Cd).
func TestEq2Expansion(t *testing.T) {
	tc := asap7()
	back := tc.Back()
	tsv := tc.TSV
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		L := rng.Float64()*500 + 1
		cd := rng.Float64() * 50
		got := NTSVOnWireDelay(back, tsv, L, cd)
		rb, cb := back.UnitRes, back.UnitCap
		rt, ct := tsv.Res, tsv.Cap
		want := rb*cb*L*L + (rb*ct+rb*cd+rt*cb)*L + rt*(3*ct+2*cd)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("Eq2 mismatch L=%v: got %v want %v", L, got, want)
		}
	}
}

func TestBackSideBeatsFrontOnLongWires(t *testing.T) {
	tc := asap7()
	// For long wires the back-side quadratic term rb·cb << rf·cf dominates:
	// moving the wire back (even paying two nTSVs) must win.
	for _, L := range []float64{50, 100, 200, 400} {
		cd := 10.0
		front := WireDelay(tc.Front(), L, cd)
		back := NTSVOnWireDelay(tc.Back(), tc.TSV, L, cd)
		if back >= front {
			t.Errorf("L=%v: back %v >= front %v", L, back, front)
		}
	}
}

func TestSingleNTSVModels(t *testing.T) {
	tc := asap7()
	back, tsv := tc.Back(), tc.TSV
	L, cd := 100.0, 8.0
	// P5 and P6 have one nTSV; their delays must lie strictly below the
	// two-nTSV P4 delay plus one tsv worth of margin, and their caps differ
	// from P4 by exactly one tsv cap.
	p4c := NTSVOnWireCap(back, tsv, L, cd)
	p5c := SingleNTSVDownCap(back, tsv, L, cd)
	p6c := SingleNTSVUpCap(back, tsv, L, cd)
	if math.Abs(p4c-p5c-tsv.Cap) > 1e-12 || math.Abs(p4c-p6c-tsv.Cap) > 1e-12 {
		t.Errorf("cap bookkeeping wrong: p4=%v p5=%v p6=%v tsv=%v", p4c, p5c, p6c, tsv.Cap)
	}
	p4 := NTSVOnWireDelay(back, tsv, L, cd)
	p5 := SingleNTSVDownDelay(back, tsv, L, cd)
	p6 := SingleNTSVUpDelay(back, tsv, L, cd)
	if p5 >= p4 || p6 >= p4 {
		t.Errorf("one-tsv delay should be below two-tsv: p4=%v p5=%v p6=%v", p4, p5, p6)
	}
}

func TestWireDelayCapBasics(t *testing.T) {
	l := tech.Layer{Name: "T", UnitRes: 2, UnitCap: 3}
	if got := WireCap(l, 10, 5); got != 35 {
		t.Errorf("WireCap = %v, want 35", got)
	}
	if got := WireDelay(l, 10, 5); got != 2*10*(3*10+5) {
		t.Errorf("WireDelay = %v", got)
	}
}

func TestNLDMInterpolation(t *testing.T) {
	tbl := SynthesizeNLDM(asap7().Buf)
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	// Exact grid points must return the stored values.
	for i, s := range tbl.SlewAxis {
		for j, l := range tbl.LoadAxis {
			if got := tbl.Delay(s, l); math.Abs(got-tbl.CellDly[i][j]) > 1e-9 {
				t.Fatalf("grid point (%v,%v) = %v want %v", s, l, got, tbl.CellDly[i][j])
			}
		}
	}
	// Interpolated values must lie between the bracketing corners.
	s, l := 7.5, 3.0
	got := tbl.Delay(s, l)
	lo := math.Min(math.Min(tbl.Delay(5, 2), tbl.Delay(5, 4)), math.Min(tbl.Delay(10, 2), tbl.Delay(10, 4)))
	hi := math.Max(math.Max(tbl.Delay(5, 2), tbl.Delay(5, 4)), math.Max(tbl.Delay(10, 2), tbl.Delay(10, 4)))
	if got < lo-1e-9 || got > hi+1e-9 {
		t.Fatalf("interpolation out of bounds: %v not in [%v,%v]", got, lo, hi)
	}
	// Clamped extrapolation must not explode.
	if d := tbl.Delay(1000, 1000); d < tbl.Delay(160, 64) {
		t.Error("clamping should saturate at the corner")
	}
	if d := tbl.Delay(-5, -5); math.Abs(d-tbl.CellDly[0][0]) > 1e-9 {
		t.Errorf("low clamp = %v want %v", d, tbl.CellDly[0][0])
	}
}

func TestNLDMMonotoneInLoad(t *testing.T) {
	tbl := SynthesizeNLDM(asap7().Buf)
	prev := -1.0
	for l := 0.5; l <= 64; l += 0.5 {
		d := tbl.Delay(10, l)
		if d <= prev {
			t.Fatalf("NLDM delay not increasing in load at %v", l)
		}
		prev = d
	}
}

func TestNLDMValidateErrors(t *testing.T) {
	tbl := SynthesizeNLDM(asap7().Buf)
	bad := *tbl
	bad.SlewAxis = []float64{1}
	if bad.Validate() == nil {
		t.Error("short axis should fail")
	}
	bad2 := *tbl
	bad2.SlewAxis = append([]float64{}, tbl.SlewAxis...)
	bad2.SlewAxis[0], bad2.SlewAxis[1] = bad2.SlewAxis[1], bad2.SlewAxis[0]
	if bad2.Validate() == nil {
		t.Error("unsorted axis should fail")
	}
	bad3 := *tbl
	bad3.CellDly = tbl.CellDly[:2]
	if bad3.Validate() == nil {
		t.Error("row mismatch should fail")
	}
}
