// Package insert implements the paper's core contribution: concurrent
// buffer and nTSV insertion by multi-objective dynamic programming over the
// double-side design space (Sec. III-C).
//
// The design space is the six edge patterns of Fig. 6 (P1 buffer, P2 front
// wire, P3 back wire, P4 back wire with an nTSV at each end, P5/P6 back wire
// with a single nTSV at one end), subject to the connectivity constraint
// that the shared vertex of adjacent edges has one side type. The DP walks a
// tree whose nodes are the clock-tree edges (Step 1), generates candidate
// solutions bottom-up by merging child sets and inserting patterns (Step 2),
// selects the root solution by the multi-objective enhancement score MOES =
// α·latency + β·buffers + γ·nTSVs (Step 3, Eq. 3) and retraces the decisions
// top-down (Step 4). Inferior-solution pruning à la van Ginneken [16] is
// applied per side type, which keeps the DP latency-optimal.
package insert

import (
	"fmt"

	"dscts/internal/ctree"
	"dscts/internal/tech"
	"dscts/internal/timing"
)

// Pattern enumerates the edge patterns P1-P6 of Fig. 6.
type Pattern int

const (
	// PBuffer (P1): front wire with one buffer at the midpoint.
	PBuffer Pattern = iota
	// PWireF (P2): plain front-side wire.
	PWireF
	// PWireB (P3): plain back-side wire.
	PWireB
	// PNTSV1 (P4): back-side wire with an nTSV at each endpoint; both
	// endpoints present front-side types.
	PNTSV1
	// PNTSV2 (P5): back-side wire with one nTSV at the downstream
	// (sink-side) end; upstream endpoint stays on the back side.
	PNTSV2
	// PNTSV3 (P6): back-side wire with one nTSV at the upstream
	// (root-side) end; downstream endpoint stays on the back side.
	PNTSV3
	numPatterns int = iota
)

// String returns the paper's pattern label.
func (p Pattern) String() string {
	switch p {
	case PBuffer:
		return "P1:Buffer"
	case PWireF:
		return "P2:Wiring_F"
	case PWireB:
		return "P3:Wiring_B"
	case PNTSV1:
		return "P4:NTSV1"
	case PNTSV2:
		return "P5:NTSV2"
	case PNTSV3:
		return "P6:NTSV3"
	}
	return fmt.Sprintf("P?(%d)", int(p))
}

// Wiring converts the pattern to the clock tree's edge annotation.
func (p Pattern) Wiring() ctree.EdgeWiring {
	switch p {
	case PBuffer:
		return ctree.EdgeWiring{WireSide: ctree.Front, BufMid: true}
	case PWireF:
		return ctree.EdgeWiring{WireSide: ctree.Front}
	case PWireB:
		return ctree.EdgeWiring{WireSide: ctree.Back}
	case PNTSV1:
		return ctree.EdgeWiring{WireSide: ctree.Back, TSVUp: true, TSVDown: true}
	case PNTSV2:
		return ctree.EdgeWiring{WireSide: ctree.Back, TSVDown: true}
	case PNTSV3:
		return ctree.EdgeWiring{WireSide: ctree.Back, TSVUp: true}
	}
	panic("insert: unknown pattern")
}

// UpSide returns the side type at the upstream (root-side) endpoint.
func (p Pattern) UpSide() ctree.Side { return p.Wiring().UpSide() }

// DownSide returns the side type at the downstream (sink-side) endpoint.
func (p Pattern) DownSide() ctree.Side { return p.Wiring().DownSide() }

// Buffers returns the buffer cost of the pattern.
func (p Pattern) Buffers() int { return p.Wiring().BufferCount() }

// NTSVs returns the nTSV cost of the pattern.
func (p Pattern) NTSVs() int { return p.Wiring().NTSVCount() }

// Mode is the nTSV inserting mode of a DP node (Sec. III-C2 Step 1).
type Mode int

const (
	// ModeFull allows all patterns P1-P6 (flexible nTSV).
	ModeFull Mode = iota
	// ModeIntra forbids nTSVs: only P1-P3 are allowed.
	ModeIntra
)

// Allowed reports whether pattern p may be inserted under mode m.
func (m Mode) Allowed(p Pattern) bool {
	if m == ModeIntra {
		return p == PBuffer || p == PWireF || p == PWireB
	}
	return true
}

// techView is the part of the technology the DP reads for every (merged
// candidate, pattern) pair: the front and back evaluation layers, the nTSV,
// the clock buffer and the sink pin cap. generateAll resolves it once per
// run into each worker's scratch, because Tech.Front and Tech.Back search
// the layer list by name.
type techView struct {
	front, back tech.Layer
	tsv         tech.NTSV
	buf         tech.Buffer
	sinkCap     float64
}

func viewOf(tc *tech.Tech) techView {
	return techView{front: tc.Front(), back: tc.Back(), tsv: tc.TSV, buf: tc.Buf, sinkCap: tc.SinkCap}
}

// transfer applies pattern p across an edge of length L (µm), transforming
// the merged downstream state (cap C, path delays maxD/minD measured from
// the downstream endpoint) into the state at the upstream endpoint.
// feasible is false when the pattern violates the max-load constraint of
// the buffer it inserts.
func transfer(p Pattern, tv *techView, length, cap, maxD, minD float64) (upCap, upMaxD, upMinD float64, feasible bool) {
	switch p {
	case PWireF:
		d := timing.WireDelay(tv.front, length, cap)
		return timing.WireCap(tv.front, length, cap), maxD + d, minD + d, true
	case PWireB:
		d := timing.WireDelay(tv.back, length, cap)
		return timing.WireCap(tv.back, length, cap), maxD + d, minD + d, true
	case PBuffer:
		h := length / 2
		load := timing.WireCap(tv.front, h, cap) // what the buffer drives
		if load > tv.buf.MaxCap {
			return 0, 0, 0, false
		}
		down := timing.WireDelay(tv.front, h, cap)
		gate := tv.buf.Delay(load)
		up := timing.WireDelay(tv.front, h, tv.buf.InputCap)
		d := down + gate + up
		return timing.WireCap(tv.front, h, tv.buf.InputCap), maxD + d, minD + d, true
	case PNTSV1:
		d := timing.NTSVOnWireDelay(tv.back, tv.tsv, length, cap)
		return timing.NTSVOnWireCap(tv.back, tv.tsv, length, cap), maxD + d, minD + d, true
	case PNTSV2:
		d := timing.SingleNTSVDownDelay(tv.back, tv.tsv, length, cap)
		return timing.SingleNTSVDownCap(tv.back, tv.tsv, length, cap), maxD + d, minD + d, true
	case PNTSV3:
		d := timing.SingleNTSVUpDelay(tv.back, tv.tsv, length, cap)
		return timing.SingleNTSVUpCap(tv.back, tv.tsv, length, cap), maxD + d, minD + d, true
	}
	panic("insert: unknown pattern")
}
