// Package corner models process/voltage/temperature (PVT) corners for
// multi-corner timing sign-off. A Corner is a named set of multiplicative
// derating factors applied to every delay-relevant axis of the technology:
// metal-layer unit parasitics (tech.Layer UnitRes/UnitCap, front and back
// side alike), the clock buffer's drive resistance, input capacitance and
// intrinsic delay (which also rescale the synthesized NLDM table, since the
// table is derived from the buffer model), the nTSV via R/C, and the sink
// pin capacitance.
//
// The paper's flow (Sec. II-B) optimizes under a single typical-corner
// Elmore/linear-gate model; real sign-off evaluates the finished tree at
// every corner. Evaluate does exactly that: it fans the corner evaluations
// out over the shared worker budget (internal/par) and merges them in
// corner order, so the per-corner Metrics are bit-identical for every
// worker count and every corner permutation.
package corner

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"dscts/internal/tech"
)

// Corner is one named PVT corner: multiplicative factors on the
// technology's delay-relevant parameters. A factor of 0 in the JSON or
// zero-value form means "unchanged" (1.0); Normalize resolves that. All
// resolved factors must be positive and physically plausible (Validate).
type Corner struct {
	Name string `json:"name"`
	// WireRes and WireCap scale every routing layer's unit resistance and
	// capacitance (front- and back-side metal alike).
	WireRes float64 `json:"wire_res,omitempty"`
	WireCap float64 `json:"wire_cap,omitempty"`
	// BufRes, BufCap and BufIntrinsic scale the clock buffer's linear
	// drive resistance, input pin capacitance and intrinsic delay. The
	// NLDM delay/slew surfaces are synthesized from these parameters, so
	// scaling them rescales the table axes consistently.
	BufRes       float64 `json:"buf_res,omitempty"`
	BufCap       float64 `json:"buf_cap,omitempty"`
	BufIntrinsic float64 `json:"buf_intrinsic,omitempty"`
	// TSVRes and TSVCap scale the nano-TSV via parasitics.
	TSVRes float64 `json:"tsv_res,omitempty"`
	TSVCap float64 `json:"tsv_cap,omitempty"`
	// SinkCap scales the flip-flop clock pin capacitance.
	SinkCap float64 `json:"sink_cap,omitempty"`
}

// factors lists the corner's factor fields in a fixed order; used by
// Normalize, Validate and the tests' Interpolate so no axis can be missed.
func (c *Corner) factors() []*float64 {
	return []*float64{
		&c.WireRes, &c.WireCap,
		&c.BufRes, &c.BufCap, &c.BufIntrinsic,
		&c.TSVRes, &c.TSVCap, &c.SinkCap,
	}
}

// Normalize returns a copy with every unset (zero) factor resolved to 1.0.
func (c Corner) Normalize() Corner {
	for _, f := range c.factors() {
		if *f == 0 {
			*f = 1
		}
	}
	return c
}

// maxFactor bounds plausible derating: real PVT corners derate delay axes
// by tens of percent, not orders of magnitude. Factors outside
// (1/maxFactor, maxFactor) are rejected as likely unit mistakes.
const maxFactor = 10.0

// Validate checks the corner after normalization.
func (c Corner) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("corner: unnamed corner")
	}
	n := c.Normalize()
	for _, f := range n.factors() {
		if !(*f > 1/maxFactor && *f < maxFactor) {
			return fmt.Errorf("corner %s: factor %g outside (%g, %g)", c.Name, *f, 1/maxFactor, maxFactor)
		}
	}
	return nil
}

// Apply returns a derived technology with the corner's factors applied.
// The input technology is not modified. The result satisfies
// tech.Validate whenever the input does and the corner validates, because
// uniform positive scaling preserves every ordering Validate checks except
// the back-vs-front RC premise, which a uniform wire factor also preserves.
func (c Corner) Apply(tc *tech.Tech) *tech.Tech {
	n := c.Normalize()
	out := *tc
	out.Layers = make([]tech.Layer, len(tc.Layers))
	for i, l := range tc.Layers {
		l.UnitRes *= n.WireRes
		l.UnitCap *= n.WireCap
		out.Layers[i] = l
	}
	out.Buf.DriveRes *= n.BufRes
	out.Buf.InputCap *= n.BufCap
	out.Buf.Intrinsic *= n.BufIntrinsic
	out.TSV.Res *= n.TSVRes
	out.TSV.Cap *= n.TSVCap
	out.SinkCap *= n.SinkCap
	return &out
}

// Typ returns the typical corner: the technology as characterized (all
// factors 1.0).
func Typ() Corner {
	return Corner{Name: "typ"}.Normalize()
}

// Slow returns the slow sign-off corner for the ASAP7-derived technology:
// slow process, low voltage, high temperature. Wires gain resistance from
// metal temperature and capacitance from worst-case dielectric spread;
// gates slow down substantially (drive resistance and intrinsic delay up,
// pin caps up slightly).
func Slow() Corner {
	return Corner{
		Name:    "slow",
		WireRes: 1.08, WireCap: 1.05,
		BufRes: 1.45, BufCap: 1.10, BufIntrinsic: 1.40,
		TSVRes: 1.20, TSVCap: 1.05,
		SinkCap: 1.05,
	}
}

// Fast returns the fast sign-off corner: fast process, high voltage, low
// temperature — the hold-check corner.
func Fast() Corner {
	return Corner{
		Name:    "fast",
		WireRes: 0.92, WireCap: 0.95,
		BufRes: 0.70, BufCap: 0.92, BufIntrinsic: 0.75,
		TSVRes: 0.85, TSVCap: 0.95,
		SinkCap: 0.95,
	}
}

// Presets returns the built-in sign-off set in canonical order:
// slow, typ, fast.
func Presets() []Corner {
	return []Corner{Slow(), Typ(), Fast()}
}

// ByName resolves a built-in preset name (case-insensitive).
func ByName(name string) (Corner, error) {
	for _, c := range Presets() {
		if strings.EqualFold(c.Name, name) {
			return c, nil
		}
	}
	return Corner{}, fmt.Errorf("corner: unknown corner %q (have slow, typ, fast)", name)
}

// ParseList resolves a comma-separated preset list, e.g. "slow,typ,fast",
// through Resolve.
func ParseList(s string) ([]Corner, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("corner: empty corner list")
	}
	names := strings.Split(s, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	return Resolve(names)
}

// Resolve turns built-in preset names (case-insensitive) into corners, in
// order. Unknown names and duplicates are rejected: each corner may appear
// once per sign-off. No names resolve to no corners.
func Resolve(names []string) ([]Corner, error) {
	var out []Corner
	seen := map[string]bool{}
	for _, name := range names {
		c, err := ByName(name)
		if err != nil {
			return nil, err
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("corner: duplicate corner %q", c.Name)
		}
		seen[c.Name] = true
		out = append(out, c)
	}
	return out, nil
}

// LoadJSON reads a custom corner set: a JSON array of Corner objects.
// Unset factors default to 1.0; every corner must validate and names must
// be unique.
func LoadJSON(r io.Reader) ([]Corner, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var raw []Corner
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("corner: %w", err)
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("corner: no corners in input")
	}
	seen := map[string]bool{}
	out := make([]Corner, len(raw))
	for i, c := range raw {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("corner: duplicate corner %q", c.Name)
		}
		seen[c.Name] = true
		out[i] = c.Normalize()
	}
	return out, nil
}

// ValidateSet checks a sign-off corner list: non-empty, every corner
// valid, names unique. Flows call this before spending work that a bad
// list would throw away.
func ValidateSet(corners []Corner) error {
	if len(corners) == 0 {
		return fmt.Errorf("corner: no corners to evaluate")
	}
	seen := map[string]bool{}
	for _, c := range corners {
		if err := c.Validate(); err != nil {
			return err
		}
		if seen[c.Name] {
			return fmt.Errorf("corner: duplicate corner %q", c.Name)
		}
		seen[c.Name] = true
	}
	return nil
}
