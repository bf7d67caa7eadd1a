package bench

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"dscts/internal/def"
	"dscts/internal/geom"
)

func TestSuiteMatchesTableII(t *testing.T) {
	s := Suite()
	if len(s) != 5 {
		t.Fatalf("suite size %d", len(s))
	}
	want := []struct {
		id    string
		cells int
		ffs   int
		util  float64
	}{
		{"C1", 54973, 4380, 0.50},
		{"C2", 148407, 14338, 0.40},
		{"C3", 56851, 10018, 0.40},
		{"C4", 11579, 1056, 0.50},
		{"C5", 29306, 2072, 0.50},
	}
	for i, w := range want {
		d := s[i]
		if d.ID != w.id || d.Cells != w.cells || d.FFs != w.ffs || d.Util != w.util {
			t.Errorf("row %d = %+v, want %+v", i, d, w)
		}
	}
}

func TestByID(t *testing.T) {
	d, err := ByID("C3")
	if err != nil || d.Name != "ethmac" {
		t.Fatalf("ByID(C3) = %+v, %v", d, err)
	}
	d, err = ByID("aes")
	if err != nil || d.ID != "C5" {
		t.Fatalf("ByID(aes) = %+v, %v", d, err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id should error")
	}
}

func TestGenerateDeterministicAndComplete(t *testing.T) {
	d, _ := ByID("C4")
	a, err := Generate(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Sinks) != d.FFs {
		t.Fatalf("sinks %d, want %d", len(a.Sinks), d.FFs)
	}
	for i := range a.Sinks {
		if a.Sinks[i] != b.Sinks[i] {
			t.Fatal("generation not deterministic")
		}
	}
	c, err := Generate(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Sinks {
		if a.Sinks[i] != c.Sinks[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestGenerateRespectsDieAndMacros(t *testing.T) {
	for _, d := range Suite() {
		p, err := Generate(d, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Macros) != d.Macros {
			t.Errorf("%s: %d macros, want %d", d.ID, len(p.Macros), d.Macros)
		}
		for i, s := range p.Sinks {
			if !p.Die.Contains(s, 1e-9) {
				t.Fatalf("%s: sink %d at %v outside die %+v", d.ID, i, s, p.Die)
			}
			for _, m := range p.Macros {
				if m.Contains(s, -1e-9) {
					t.Fatalf("%s: sink %d at %v inside macro %+v", d.ID, i, s, m)
				}
			}
		}
		if !p.Die.Contains(p.Root, 1e-9) {
			t.Errorf("%s: root %v outside die", d.ID, p.Root)
		}
	}
}

func TestDieSideScalesWithCells(t *testing.T) {
	c4, _ := ByID("C4")
	c2, _ := ByID("C2")
	if DieSide(c4) >= DieSide(c2) {
		t.Errorf("die sides: C4 %v >= C2 %v", DieSide(c4), DieSide(c2))
	}
	if s := DieSide(c4); s < 100 || s > 400 {
		t.Errorf("C4 die side %v outside plausible range", s)
	}
}

func TestDEFRoundTrip(t *testing.T) {
	d, _ := ByID("C4")
	p, err := Generate(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := p.ToDEF()
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := def.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromDEF(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Sinks) != len(p.Sinks) {
		t.Fatalf("sink count %d vs %d", len(back.Sinks), len(p.Sinks))
	}
	// DBU quantization: each coordinate moves by at most 1/1000 µm.
	near := func(a, b geom.Point) bool {
		return math.Abs(a.X-b.X) <= 1e-3 && math.Abs(a.Y-b.Y) <= 1e-3
	}
	for i := range p.Sinks {
		if !near(back.Sinks[i], p.Sinks[i]) {
			t.Fatalf("sink %d moved: %v vs %v", i, back.Sinks[i], p.Sinks[i])
		}
	}
	if !near(back.Root, p.Root) {
		t.Errorf("root moved: %v vs %v", back.Root, p.Root)
	}
}

func TestGenerateRejectsMalformedDesigns(t *testing.T) {
	base := Design{ID: "X", Name: "x", Cells: 10000, FFs: 500, Util: 0.5, Macros: 1, Hotspots: 4}
	bad := []func(*Design){
		func(d *Design) { d.FFs = 0 },
		func(d *Design) { d.Cells = -1 },
		func(d *Design) { d.Util = 0 },
		func(d *Design) { d.Util = 1.5 },
		func(d *Design) { d.Hotspots = 0 }, // used to panic in the sampler
		func(d *Design) { d.Macros = -1 },
	}
	for i, mut := range bad {
		d := base
		mut(&d)
		if _, err := Generate(d, 1); err == nil {
			t.Errorf("malformed design %d (%+v) generated; want error", i, d)
		}
	}
}

func TestGenerateInfeasibleMacroCoverage(t *testing.T) {
	// Blanket the die with a hand-built macro set: the feasibility check
	// and the bounded rejection loops must produce descriptive errors
	// instead of spinning forever.
	d := Design{ID: "X1", Name: "blanket", Cells: 10000, FFs: 500, Util: 0.5, Hotspots: 4}
	side := DieSide(d)
	p := &Placement{
		Design: d,
		Die:    geom.NewBBox(geom.Pt(0, 0), geom.Pt(side, side)),
		Macros: []geom.BBox{geom.NewBBox(geom.Pt(-1, -1), geom.Pt(side+1, side+1))},
	}
	if err := p.feasible(); err == nil {
		t.Fatal("fully covered die passed the feasibility check")
	}
	// The bounded hotspot sampler must terminate with an error too.
	if _, err := p.hotspots(rand.New(rand.NewSource(1)), d.Hotspots); err == nil {
		t.Fatal("hotspot sampling on a fully covered die returned no error")
	}
}

func TestGenerateXLDeterministicAndComplete(t *testing.T) {
	const n = 150_000 // spans multiple chunks
	a, err := GenerateXL(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateXL(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Sinks) != n {
		t.Fatalf("sinks %d, want %d", len(a.Sinks), n)
	}
	for i := range a.Sinks {
		if a.Sinks[i] != b.Sinks[i] {
			t.Fatalf("XL generation not deterministic at sink %d", i)
		}
	}
	c, err := GenerateXL(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Sinks {
		if a.Sinks[i] != c.Sinks[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different XL seeds should differ")
	}
	for i, s := range a.Sinks {
		if !a.Die.Contains(s, 1e-9) {
			t.Fatalf("sink %d at %v outside die", i, s)
		}
		for _, m := range a.Macros {
			if m.Contains(s, -1e-9) {
				t.Fatalf("sink %d at %v inside macro %+v", i, s, m)
			}
		}
	}
}

func TestGenerateXLRejectsBadCount(t *testing.T) {
	if _, err := GenerateXL(0, 1); err == nil {
		t.Fatal("zero sink count accepted")
	}
	if _, err := GenerateXL(-5, 1); err == nil {
		t.Fatal("negative sink count accepted")
	}
}
