// Package timing implements the delay models of the paper that the
// optimizer evaluates in closed form: the classic L-type Elmore wire model
// and its nTSV patterns (Sec. II-B, Eqs. (1)-(2)), used by the buffer and
// nTSV DP, and the NLDM-style lookup tables ([32]) used for final
// evaluation. Whole clock trees are timed by internal/eval's staged RC
// network, which applies these tables and PERI slew propagation ([34]).
//
// In the L-type model a wire segment of length L on a layer with unit
// resistance r and unit capacitance c is a series resistance rL followed by
// a grounded capacitance cL at its far (downstream) node. The Elmore delay
// through the segment driving an additional downstream load Cd is therefore
//
//	D = rL·(cL + Cd)
//
// which is exactly the convention that makes the paper's Eq. (1) and Eq. (2)
// expansions come out.
package timing

import "dscts/internal/tech"

// WireCap returns the total capacitance a segment of length L on layer l
// presents to its driver, including the downstream load Cd behind it.
func WireCap(l tech.Layer, length, cd float64) float64 {
	return l.UnitCap*length + cd
}

// WireDelay returns the L-model Elmore delay through a segment of length L
// on layer l driving downstream load Cd.
func WireDelay(l tech.Layer, length, cd float64) float64 {
	return l.UnitRes * length * (l.UnitCap*length + cd)
}

// NTSVOnWireDelay is the paper's Eq. (2): the delay of a segment of length L
// moved to the back side with one nTSV at each endpoint, driving load Cd.
// Topology: source -[R_tsv]- (C_tsv) -[r_b·L]- (c_b·L) -[R_tsv]- (C_tsv+Cd).
func NTSVOnWireDelay(back tech.Layer, tsv tech.NTSV, length, cd float64) float64 {
	rb, cb := back.UnitRes, back.UnitCap
	first := tsv.Res * (2*tsv.Cap + cb*length + cd)
	wire := rb * length * (cb*length + tsv.Cap + cd)
	last := tsv.Res * (tsv.Cap + cd)
	return first + wire + last
}

// NTSVOnWireCap returns the capacitance Eq. (2)'s structure presents to its
// driver: both nTSV caps plus the back wire and the downstream load.
func NTSVOnWireCap(back tech.Layer, tsv tech.NTSV, length, cd float64) float64 {
	return 2*tsv.Cap + back.UnitCap*length + cd
}

// SingleNTSVDownDelay models one nTSV at the downstream end of a back-side
// segment (pattern P5 in Fig. 6: root-side endpoint on the back side, the
// nTSV flips to the front just before the sink-side endpoint).
// Topology: source -[r_b·L]- (c_b·L) -[R_tsv]- (C_tsv + Cd).
func SingleNTSVDownDelay(back tech.Layer, tsv tech.NTSV, length, cd float64) float64 {
	rb, cb := back.UnitRes, back.UnitCap
	return rb*length*(cb*length+tsv.Cap+cd) + tsv.Res*(tsv.Cap+cd)
}

// SingleNTSVDownCap returns the driver-visible capacitance of the P5
// structure.
func SingleNTSVDownCap(back tech.Layer, tsv tech.NTSV, length, cd float64) float64 {
	return back.UnitCap*length + tsv.Cap + cd
}

// SingleNTSVUpDelay models one nTSV at the upstream end of a back-side
// segment (pattern P6 in Fig. 6: root-side endpoint on the front side, the
// wire dives to the back immediately).
// Topology: source -[R_tsv]- (C_tsv) -[r_b·L]- (c_b·L + Cd).
func SingleNTSVUpDelay(back tech.Layer, tsv tech.NTSV, length, cd float64) float64 {
	rb, cb := back.UnitRes, back.UnitCap
	return tsv.Res*(tsv.Cap+cb*length+cd) + rb*length*(cb*length+cd)
}

// SingleNTSVUpCap returns the driver-visible capacitance of the P6 structure.
func SingleNTSVUpCap(back tech.Layer, tsv tech.NTSV, length, cd float64) float64 {
	return tsv.Cap + back.UnitCap*length + cd
}
