// Package bench reproduces the paper's benchmark suite (Table II). The
// authors run the OpenROAD backend flow on five designs and take the placed
// DEFs; we synthesize placements with the same statistics deterministically
// (see DESIGN.md §1): die area derived from cell count and utilization,
// macro blockages, and spatially clustered flip-flop placement matching the
// non-uniform distributions that motivate the paper's hierarchical routing
// (Fig. 5).
package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"dscts/internal/def"
	"dscts/internal/geom"
	"dscts/internal/par"
)

// Design is one row of Table II.
type Design struct {
	ID    string // C1..C5
	Name  string
	Cells int
	FFs   int
	Util  float64
	// Macros is the number of macro blockages synthesized; chosen per
	// design to mimic the floorplans (jpeg/ethmac have macro regions).
	Macros int
	// Hotspots is the number of placement density clusters.
	Hotspots int
}

// Suite returns the five designs of Table II.
func Suite() []Design {
	return []Design{
		{ID: "C1", Name: "jpeg", Cells: 54973, FFs: 4380, Util: 0.50, Macros: 2, Hotspots: 6},
		{ID: "C2", Name: "swerv_wrapper", Cells: 148407, FFs: 14338, Util: 0.40, Macros: 4, Hotspots: 8},
		{ID: "C3", Name: "ethmac", Cells: 56851, FFs: 10018, Util: 0.40, Macros: 2, Hotspots: 6},
		{ID: "C4", Name: "riscv32i", Cells: 11579, FFs: 1056, Util: 0.50, Macros: 0, Hotspots: 4},
		{ID: "C5", Name: "aes", Cells: 29306, FFs: 2072, Util: 0.50, Macros: 1, Hotspots: 5},
	}
}

// ByID returns the design with the given ID (C1..C5) or name.
func ByID(id string) (Design, error) {
	for _, d := range Suite() {
		if d.ID == id || d.Name == id {
			return d, nil
		}
	}
	return Design{}, fmt.Errorf("bench: unknown design %q", id)
}

// avgCellArea is the assumed mean standard-cell footprint (µm²) used to
// derive die area from Table II's cell counts; calibrated so die sizes land
// in the few-hundred-µm range typical of these blocks in ASAP7.
const avgCellArea = 1.0

// Placement is a synthesized benchmark instance.
type Placement struct {
	Design Design
	Die    geom.BBox
	Root   geom.Point // clock entry pin
	Sinks  []geom.Point
	Macros []geom.BBox
}

// DieSide returns the square die edge length for a design (µm).
func DieSide(d Design) float64 {
	return math.Sqrt(float64(d.Cells) * avgCellArea / d.Util)
}

// maxRejectTries bounds the rejection-sampling attempts per placed point.
// Hotspot centers and sinks are rejected when they land inside a macro;
// beyond this many consecutive rejections the macro coverage has made the
// placement practically infeasible and Generate reports an error instead of
// spinning forever.
const maxRejectTries = 10_000

// feasible estimates the macro-free area fraction of the die on a coarse
// grid and rejects combinations of utilization and macro coverage that
// leave (almost) nowhere to place sinks. The grid is deterministic, so the
// check is too.
func (p *Placement) feasible() error {
	const grid = 64
	free := 0
	for gy := 0; gy < grid; gy++ {
		for gx := 0; gx < grid; gx++ {
			c := geom.Pt(
				p.Die.MinX+(float64(gx)+0.5)/grid*p.Die.W(),
				p.Die.MinY+(float64(gy)+0.5)/grid*p.Die.H(),
			)
			if !p.inMacro(c) {
				free++
			}
		}
	}
	if frac := float64(free) / (grid * grid); frac < 0.02 {
		return fmt.Errorf("bench: %s: macros cover %.1f%% of the die at utilization %.2f; placement infeasible",
			p.Design.Name, 100*(1-frac), p.Design.Util)
	}
	return nil
}

// validateDesign rejects designs Generate cannot place: the rejection
// sampler indexes hotspots and divides by the utilization, so adversarial
// zero/negative fields must fail up front rather than panic or spin.
func validateDesign(d Design) error {
	switch {
	case d.Cells <= 0:
		return fmt.Errorf("bench: %s: cell count %d must be positive", d.Name, d.Cells)
	case d.FFs <= 0:
		return fmt.Errorf("bench: %s: FF count %d must be positive", d.Name, d.FFs)
	case d.Util <= 0 || d.Util > 1:
		return fmt.Errorf("bench: %s: utilization %.3f outside (0, 1]", d.Name, d.Util)
	case d.Hotspots < 1:
		return fmt.Errorf("bench: %s: needs at least one hotspot, got %d", d.Name, d.Hotspots)
	case d.Macros < 0:
		return fmt.Errorf("bench: %s: negative macro count %d", d.Name, d.Macros)
	}
	return nil
}

// Generate synthesizes the placement for design d. The same (design, seed)
// always produces identical output. It returns a descriptive error when the
// design is malformed or its utilization and macro coverage make placement
// infeasible (the rejection-sampling loops are bounded, never endless).
func Generate(d Design, seed int64) (*Placement, error) {
	if err := validateDesign(d); err != nil {
		return nil, err
	}
	side := DieSide(d)
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(len(d.Name))*7919 + int64(d.Cells)))
	p := &Placement{
		Design: d,
		Die:    geom.NewBBox(geom.Pt(0, 0), geom.Pt(side, side)),
		// The clock tree root sits at the die center: OpenROAD's flow
		// buffers the path from the boundary clock port to the first
		// tree buffer near the sink centroid, and CTS papers measure the
		// tree from there. A boundary root would add a constant
		// max-fanout stem that no flow in Table III can optimize.
		Root: geom.Pt(side/2, side/2),
	}
	// Macro blockages hug the die edges like memory macros do.
	for m := 0; m < d.Macros; m++ {
		w := side * (0.15 + 0.10*rng.Float64())
		h := side * (0.15 + 0.10*rng.Float64())
		var x, y float64
		switch m % 4 {
		case 0:
			x, y = 0, side-h
		case 1:
			x, y = side-w, side-h
		case 2:
			x, y = 0, side*0.3
		default:
			x, y = side-w, side*0.3
		}
		p.Macros = append(p.Macros, geom.NewBBox(geom.Pt(x, y), geom.Pt(x+w, y+h)))
	}
	if err := p.feasible(); err != nil {
		return nil, err
	}
	// Hotspot centers avoid macros.
	hot, err := p.hotspots(rng, d.Hotspots)
	if err != nil {
		return nil, err
	}
	sigma := side / (2.2 * math.Sqrt(float64(d.Hotspots)))
	// 70% of FFs cluster around hotspots, 30% spread uniformly — matching
	// the mixed register-file/datapath structure of the benchmarks.
	p.Sinks = make([]geom.Point, 0, d.FFs)
	tries := 0
	for len(p.Sinks) < d.FFs {
		var c geom.Point
		if rng.Float64() < 0.7 {
			h := hot[rng.Intn(len(hot))]
			c = geom.Pt(h.X+rng.NormFloat64()*sigma, h.Y+rng.NormFloat64()*sigma)
		} else {
			c = geom.Pt(rng.Float64()*side, rng.Float64()*side)
		}
		c = p.Die.Clamp(c)
		if p.inMacro(c) {
			if tries++; tries > maxRejectTries {
				return nil, fmt.Errorf("bench: %s: sink placement rejected %d times in a row; macro coverage leaves no room",
					d.Name, tries)
			}
			continue
		}
		tries = 0
		p.Sinks = append(p.Sinks, c)
	}
	return p, nil
}

// hotspots draws n macro-free hotspot centers with a bounded rejection loop.
func (p *Placement) hotspots(rng *rand.Rand, n int) ([]geom.Point, error) {
	hot := make([]geom.Point, 0, n)
	tries := 0
	for len(hot) < n {
		c := geom.Pt(p.Die.MinX+rng.Float64()*p.Die.W(), p.Die.MinY+rng.Float64()*p.Die.H())
		if p.inMacro(c) {
			if tries++; tries > maxRejectTries {
				return nil, fmt.Errorf("bench: %s: hotspot placement rejected %d times in a row; macro coverage leaves no room",
					p.Design.Name, tries)
			}
			continue
		}
		tries = 0
		hot = append(hot, c)
	}
	return hot, nil
}

// xlChunk is the sink count generated per chunk of GenerateXL. Chunks are
// seeded independently, so the result never depends on how many chunks run
// concurrently, and no chunk ever holds more than this much rejection-
// sampling working state.
const xlChunk = 65536

// XLDesign describes a synthetic mega-scale design with the given sink
// count: utilization and macro/hotspot structure follow the Table II
// recipes, scaled up.
func XLDesign(sinkCount int) Design {
	hotspots := sinkCount / 25_000
	if hotspots < 8 {
		hotspots = 8
	}
	return Design{
		ID:    fmt.Sprintf("XL%d", sinkCount),
		Name:  fmt.Sprintf("xl-%d", sinkCount),
		Cells: sinkCount * 10, FFs: sinkCount, Util: 0.45,
		Macros: 4, Hotspots: hotspots,
	}
}

// GenerateXL synthesizes a seeded multi-million-sink placement for the
// partition-parallel pipeline. Unlike Generate it fills a preallocated sink
// array chunk by chunk — each chunk draws from its own (seed, chunk)-derived
// stream with a bounded rejection loop — so generation is O(chunk) in
// working state, embarrassingly parallel, and bit-identical for every
// worker count. The same (sinkCount, seed) always produces identical
// output.
func GenerateXL(sinkCount int, seed int64) (*Placement, error) {
	if sinkCount <= 0 {
		return nil, fmt.Errorf("bench: XL sink count must be positive, got %d", sinkCount)
	}
	d := XLDesign(sinkCount)
	side := DieSide(d)
	base := rand.New(rand.NewSource(seed*1_000_003 + 0x5c4e + int64(sinkCount)))
	p := &Placement{
		Design: d,
		Die:    geom.NewBBox(geom.Pt(0, 0), geom.Pt(side, side)),
		Root:   geom.Pt(side/2, side/2),
	}
	for m := 0; m < d.Macros; m++ {
		w := side * (0.12 + 0.08*base.Float64())
		h := side * (0.12 + 0.08*base.Float64())
		var x, y float64
		switch m % 4 {
		case 0:
			x, y = 0, side-h
		case 1:
			x, y = side-w, side-h
		case 2:
			x, y = 0, 0
		default:
			x, y = side-w, 0
		}
		p.Macros = append(p.Macros, geom.NewBBox(geom.Pt(x, y), geom.Pt(x+w, y+h)))
	}
	if err := p.feasible(); err != nil {
		return nil, err
	}
	hot, err := p.hotspots(base, d.Hotspots)
	if err != nil {
		return nil, err
	}
	sigma := side / (2.2 * math.Sqrt(float64(d.Hotspots)))
	p.Sinks = make([]geom.Point, sinkCount)
	chunks := (sinkCount + xlChunk - 1) / xlChunk
	err = par.Do(context.TODO(), 0, chunks, func(ci int) error {
		lo := ci * xlChunk
		hi := lo + xlChunk
		if hi > sinkCount {
			hi = sinkCount
		}
		rng := rand.New(rand.NewSource(seed*2_000_003 + int64(ci)*97_001 + 0x71))
		tries := 0
		for i := lo; i < hi; {
			var c geom.Point
			if rng.Float64() < 0.7 {
				h := hot[rng.Intn(len(hot))]
				c = geom.Pt(h.X+rng.NormFloat64()*sigma, h.Y+rng.NormFloat64()*sigma)
			} else {
				c = geom.Pt(rng.Float64()*side, rng.Float64()*side)
			}
			c = p.Die.Clamp(c)
			if p.inMacro(c) {
				if tries++; tries > maxRejectTries {
					return fmt.Errorf("bench: %s: sink placement rejected %d times in a row", d.Name, tries)
				}
				continue
			}
			tries = 0
			p.Sinks[i] = c
			i++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Placement) inMacro(c geom.Point) bool {
	for _, m := range p.Macros {
		if m.Contains(c, 0) {
			return true
		}
	}
	return false
}

// ToDEF converts the placement to a DEF design with one clock net
// connecting the clk pin to every flip-flop.
func (p *Placement) ToDEF() *def.File {
	f := &def.File{Design: p.Design.Name, DBU: 1000, Die: p.Die}
	net := def.Net{Name: "clk", Conns: []def.NetConn{{Comp: "PIN", Pin: "clk"}}}
	for i, s := range p.Sinks {
		name := fmt.Sprintf("ff_%d", i)
		f.Components = append(f.Components, def.Component{
			Name: name, Macro: "DFFHQNx1_ASAP7_75t_R", Pos: s,
		})
		net.Conns = append(net.Conns, def.NetConn{Comp: name, Pin: "CLK"})
	}
	f.Pins = append(f.Pins, def.Pin{Name: "clk", Net: "clk", Direction: "INPUT", Pos: p.Root})
	f.Nets = append(f.Nets, net)
	return f
}

// FromDEF reconstructs a Placement from a DEF file (inverse of ToDEF for
// flows driven by external DEFs).
func FromDEF(f *def.File) (*Placement, error) {
	root, sinks, err := f.ClockSinks("clk")
	if err != nil {
		return nil, err
	}
	return &Placement{
		Design: Design{Name: f.Design, FFs: len(sinks)},
		Die:    f.Die,
		Root:   root,
		Sinks:  sinks,
	}, nil
}
