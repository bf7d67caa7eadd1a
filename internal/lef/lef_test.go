package lef

import (
	"strings"
	"testing"
)

func TestDefaultLibrary(t *testing.T) {
	lib := Default()
	buf, ok := lib.Macros["BUFx4_ASAP7_75t_R"]
	if !ok {
		t.Fatal("buffer macro missing")
	}
	// Footprints from Sec. IV-A of the paper.
	if buf.Width != 0.378 || buf.Height != 0.270 {
		t.Errorf("buffer size %gx%g", buf.Width, buf.Height)
	}
	tsv, ok := lib.Macros["NTSV"]
	if !ok || tsv.Width != 0.270 || tsv.Height != 0.270 {
		t.Errorf("ntsv: %+v ok=%v", tsv, ok)
	}
	if _, ok := lib.Macros["DFFHQNx1_ASAP7_75t_R"]; !ok {
		t.Error("dff macro missing")
	}
	if buf.Class != "CORE" {
		t.Errorf("class %q", buf.Class)
	}
}

func TestParseHandlesCommentsAndBlank(t *testing.T) {
	src := `# comment

MACRO X
  CLASS PAD ;
  SIZE 1.5 BY 2.5 ;
END X
`
	lib, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	m := lib.Macros["X"]
	if m.Width != 1.5 || m.Height != 2.5 || m.Class != "PAD" {
		t.Errorf("macro %+v", m)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("MACRO A\nMACRO B\nEND B")); err == nil {
		t.Error("nested macro should fail")
	}
	if _, err := Parse(strings.NewReader("MACRO A\nSIZE x BY 2 ;\nEND A")); err == nil {
		t.Error("bad size should fail")
	}
	if _, err := Parse(strings.NewReader("MACRO A\nSIZE 1 BY 2 ;")); err == nil {
		t.Error("unterminated macro should fail")
	}
}

// Default returns the embedded library.
func Default() *Library {
	lib, err := Parse(strings.NewReader(Embedded))
	if err != nil {
		panic("lef: embedded library invalid: " + err.Error())
	}
	return lib
}
