package def

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"dscts/internal/geom"
)

func sample() *File {
	return &File{
		Design: "tiny",
		DBU:    1000,
		Die:    geom.NewBBox(geom.Pt(0, 0), geom.Pt(100, 80)),
		Components: []Component{
			{Name: "ff_0", Macro: "DFFHQNx1_ASAP7_75t_R", Pos: geom.Pt(10.5, 20.25)},
			{Name: "ff_1", Macro: "DFFHQNx1_ASAP7_75t_R", Pos: geom.Pt(90, 70), Fixed: true},
			{Name: "u_buf", Macro: "BUFx4_ASAP7_75t_R", Pos: geom.Pt(50, 40)},
		},
		Pins: []Pin{{Name: "clk", Net: "clk", Direction: "INPUT", Pos: geom.Pt(50, 0)}},
		Nets: []Net{{Name: "clk", Conns: []NetConn{
			{Comp: "PIN", Pin: "clk"}, {Comp: "ff_0", Pin: "CLK"}, {Comp: "ff_1", Pin: "CLK"},
		}}},
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	src := sample()
	if err := src.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Design != "tiny" || got.DBU != 1000 {
		t.Fatalf("header: %q %d", got.Design, got.DBU)
	}
	if got.Die.MaxX != 100 || got.Die.MaxY != 80 {
		t.Fatalf("die: %+v", got.Die)
	}
	if len(got.Components) != 3 {
		t.Fatalf("components: %d", len(got.Components))
	}
	if got.Components[0].Pos.Dist(geom.Pt(10.5, 20.25)) > 1e-9 {
		t.Errorf("pos round-trip: %v", got.Components[0].Pos)
	}
	if !got.Components[1].Fixed || got.Components[0].Fixed {
		t.Error("fixed flags lost")
	}
	if len(got.Pins) != 1 || got.Pins[0].Net != "clk" || got.Pins[0].Pos.Dist(geom.Pt(50, 0)) > 1e-9 {
		t.Fatalf("pins: %+v", got.Pins)
	}
	if len(got.Nets) != 1 || len(got.Nets[0].Conns) != 3 {
		t.Fatalf("nets: %+v", got.Nets)
	}
}

func TestClockSinksViaNet(t *testing.T) {
	root, sinks, err := sample().ClockSinks("clk")
	if err != nil {
		t.Fatal(err)
	}
	if root.Dist(geom.Pt(50, 0)) > 1e-9 {
		t.Errorf("root %v", root)
	}
	// Net-based extraction must not pick up the buffer.
	if len(sinks) != 2 {
		t.Fatalf("sinks: %d", len(sinks))
	}
}

func TestClockSinksFallbackToDFF(t *testing.T) {
	f := sample()
	f.Nets = nil
	f.Pins = nil
	root, sinks, err := f.ClockSinks("")
	if err != nil {
		t.Fatal(err)
	}
	if len(sinks) != 2 {
		t.Fatalf("DFF fallback found %d sinks", len(sinks))
	}
	// Root falls back to bottom boundary center.
	if math.Abs(root.X-50) > 1e-9 || root.Y != 0 {
		t.Errorf("fallback root %v", root)
	}
}

func TestClockSinksNoSinks(t *testing.T) {
	f := &File{Design: "x", DBU: 1000}
	if _, _, err := f.ClockSinks(""); err == nil {
		t.Fatal("expected error for empty design")
	}
}

func TestParseSkipsUnknownStatements(t *testing.T) {
	src := `VERSION 5.8 ;
DESIGN foo ;
TECHNOLOGY asap7 ;
UNITS DISTANCE MICRONS 2000 ;
ROW row_0 core 0 0 N DO 100 BY 1 STEP 10 0 ;
DIEAREA ( 0 0 ) ( 200000 200000 ) ;
COMPONENTS 1 ;
  - a DFFX + PLACED ( 2000 4000 ) N ;
END COMPONENTS
PINS 0 ;
END PINS
NETS 0 ;
END NETS
END DESIGN
`
	f, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if f.DBU != 2000 {
		t.Errorf("DBU %d", f.DBU)
	}
	if f.Die.MaxX != 100 { // 200000 / 2000
		t.Errorf("die %v", f.Die)
	}
	if len(f.Components) != 1 || f.Components[0].Pos.Dist(geom.Pt(1, 2)) > 1e-9 {
		t.Errorf("components %+v", f.Components)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"UNITS DISTANCE MICRONS x ;",
		"DIEAREA ( 0 0 ) ;",
		"COMPONENTS 1 ;\n - a M + PLACED ( 1 ) N ;\nEND COMPONENTS",
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Errorf("expected parse error for %q", c)
		}
	}
}

func TestWriteDefaultsDBU(t *testing.T) {
	f := sample()
	f.DBU = 0
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "MICRONS 1000") {
		t.Error("zero DBU should default to 1000")
	}
}
