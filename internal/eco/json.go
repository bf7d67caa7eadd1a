package eco

import (
	"encoding/json"
	"fmt"
	"io"

	"dscts/internal/corner"
	"dscts/internal/geom"
)

// jsonSpec is the on-disk delta format consumed by the CLI (-eco-from):
//
//	{
//	  "add":    [{"x": 10, "y": 20}, ...],
//	  "move":   [{"sink": 7, "x": 100.5, "y": 200.25}, ...],
//	  "remove": [3, 17],
//	  "corners": ["slow", "typ", "fast"]
//	}
//
// The HTTP layer has its own structurally identical wire format
// (serve.DeltaSpec), kept separate because it participates in the versioned
// cache-key encoding.
type jsonSpec struct {
	Add []struct {
		X float64 `json:"x"`
		Y float64 `json:"y"`
	} `json:"add"`
	Move []struct {
		Sink int     `json:"sink"`
		X    float64 `json:"x"`
		Y    float64 `json:"y"`
	} `json:"move"`
	Remove  []int    `json:"remove"`
	Corners []string `json:"corners"`
}

// LoadJSON reads a delta spec. Unknown fields are rejected so a typo'd edit
// cannot silently no-op; corner names resolve through corner.Resolve, so an
// unknown or repeated name fails here. The returned delta still needs
// Validate against the base sink count.
func LoadJSON(r io.Reader) (Delta, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec jsonSpec
	if err := dec.Decode(&spec); err != nil {
		return Delta{}, fmt.Errorf("eco: invalid delta JSON: %w", err)
	}
	var d Delta
	for _, p := range spec.Add {
		d.Add = append(d.Add, geom.Pt(p.X, p.Y))
	}
	for _, m := range spec.Move {
		d.Move = append(d.Move, Move{Sink: m.Sink, To: geom.Pt(m.X, m.Y)})
	}
	d.Remove = spec.Remove
	var err error
	if d.SetCorners, err = corner.Resolve(spec.Corners); err != nil {
		return Delta{}, fmt.Errorf("eco: %w", err)
	}
	return d, nil
}
