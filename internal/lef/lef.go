// Package lef reads the minimal LEF (Library Exchange Format) subset the
// flow consumes: MACRO blocks with SIZE and CLASS. It also embeds the
// ASAP7-like macros the paper's experiments use (the BUFx4 clock buffer,
// the nTSV cell, and a DFF standing in for the clock sinks), so the tools
// run without external library files.
package lef

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Macro is one library cell.
type Macro struct {
	Name   string
	Class  string
	Width  float64 // µm
	Height float64 // µm
}

// Library is a parsed LEF file.
type Library struct {
	Macros map[string]Macro
}

// Parse reads MACRO blocks from r.
func Parse(r io.Reader) (*Library, error) {
	lib := &Library{Macros: map[string]Macro{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	var cur *Macro
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		toks := strings.Fields(line)
		switch {
		case toks[0] == "MACRO" && len(toks) >= 2:
			if cur != nil {
				return nil, fmt.Errorf("lef: nested MACRO %s inside %s", toks[1], cur.Name)
			}
			cur = &Macro{Name: toks[1]}
		case cur != nil && toks[0] == "CLASS" && len(toks) >= 2:
			cur.Class = strings.TrimSuffix(toks[1], ";")
		case cur != nil && toks[0] == "SIZE" && len(toks) >= 4:
			w, err1 := strconv.ParseFloat(toks[1], 64)
			h, err2 := strconv.ParseFloat(toks[3], 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("lef: bad SIZE in %s: %q", cur.Name, line)
			}
			cur.Width, cur.Height = w, h
		case cur != nil && toks[0] == "END" && len(toks) >= 2 && toks[1] == cur.Name:
			lib.Macros[cur.Name] = *cur
			cur = nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("lef: %w", err)
	}
	if cur != nil {
		return nil, fmt.Errorf("lef: unterminated MACRO %s", cur.Name)
	}
	return lib, nil
}

// Embedded is the built-in ASAP7-like library source.
const Embedded = `# ASAP7-like minimal LEF for the double-side CTS flow
MACRO BUFx4_ASAP7_75t_R
  CLASS CORE ;
  SIZE 0.378 BY 0.270 ;
END BUFx4_ASAP7_75t_R
MACRO NTSV
  CLASS CORE ;
  SIZE 0.270 BY 0.270 ;
END NTSV
MACRO DFFHQNx1_ASAP7_75t_R
  CLASS CORE ;
  SIZE 0.810 BY 0.270 ;
END DFFHQNx1_ASAP7_75t_R
`
