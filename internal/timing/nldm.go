package timing

import (
	"fmt"
	"sort"

	"dscts/internal/tech"
)

// NLDM is a nonlinear delay model table for a gate: cell delay and output
// slew indexed by (input slew, output load), with bilinear interpolation
// inside the grid and clamped extrapolation outside, matching how Liberty
// NLDM tables are evaluated by STA engines.
type NLDM struct {
	SlewAxis []float64 // ps, ascending
	LoadAxis []float64 // fF, ascending
	CellDly  [][]float64
	OutSlew  [][]float64
}

// SynthesizeNLDM builds an NLDM table around the linear buffer model, adding
// the mild slew dependence and load curvature real 7-nm libraries exhibit.
// The table reduces to the linear model at zero input slew and small load,
// so optimization (linear model) and evaluation (table) agree to first
// order. This stands in for the ASAP7 Liberty data (see DESIGN.md §1).
func SynthesizeNLDM(b tech.Buffer) *NLDM {
	slews := []float64{2, 5, 10, 20, 40, 80, 160}
	loads := []float64{0.5, 1, 2, 4, 8, 16, 32, 64}
	t := &NLDM{SlewAxis: slews, LoadAxis: loads}
	t.CellDly = make([][]float64, len(slews))
	t.OutSlew = make([][]float64, len(slews))
	for i, s := range slews {
		t.CellDly[i] = make([]float64, len(loads))
		t.OutSlew[i] = make([]float64, len(loads))
		for j, l := range loads {
			// Slew adds ~15% of itself to delay; load curvature grows
			// quadratically but stays small inside MaxCap.
			t.CellDly[i][j] = b.Intrinsic + b.DriveRes*l + 0.15*s + 0.002*l*l
			t.OutSlew[i][j] = defaultOutSlew(b, l) + 0.10*s
		}
	}
	return t
}

// defaultOutSlew is the linear output-slew model the table is built
// around.
func defaultOutSlew(b tech.Buffer, load float64) float64 {
	const ln9 = 2.1972245773362196
	return ln9 * b.DriveRes * (load + 0.5)
}

// Delay returns the interpolated cell delay for the given input slew (ps)
// and output load (fF).
func (t *NLDM) Delay(slew, load float64) float64 {
	return t.lookup(t.CellDly, slew, load)
}

// Slew returns the interpolated output slew.
func (t *NLDM) Slew(slew, load float64) float64 {
	return t.lookup(t.OutSlew, slew, load)
}

// Validate checks table shape and axis monotonicity.
func (t *NLDM) Validate() error {
	if len(t.SlewAxis) < 2 || len(t.LoadAxis) < 2 {
		return fmt.Errorf("nldm: need at least 2x2 table, got %dx%d", len(t.SlewAxis), len(t.LoadAxis))
	}
	if !sort.Float64sAreSorted(t.SlewAxis) || !sort.Float64sAreSorted(t.LoadAxis) {
		return fmt.Errorf("nldm: axes must be ascending")
	}
	if len(t.CellDly) != len(t.SlewAxis) || len(t.OutSlew) != len(t.SlewAxis) {
		return fmt.Errorf("nldm: row count mismatch")
	}
	for i := range t.CellDly {
		if len(t.CellDly[i]) != len(t.LoadAxis) || len(t.OutSlew[i]) != len(t.LoadAxis) {
			return fmt.Errorf("nldm: column count mismatch at row %d", i)
		}
	}
	return nil
}

func (t *NLDM) lookup(grid [][]float64, slew, load float64) float64 {
	i, fi := axisLocate(t.SlewAxis, slew)
	j, fj := axisLocate(t.LoadAxis, load)
	v00 := grid[i][j]
	v01 := grid[i][j+1]
	v10 := grid[i+1][j]
	v11 := grid[i+1][j+1]
	return v00*(1-fi)*(1-fj) + v01*(1-fi)*fj + v10*fi*(1-fj) + v11*fi*fj
}

// axisLocate finds the lower bracketing index and interpolation fraction for
// v on an ascending axis, clamping outside the range.
func axisLocate(axis []float64, v float64) (int, float64) {
	n := len(axis)
	if v <= axis[0] {
		return 0, 0
	}
	if v >= axis[n-1] {
		return n - 2, 1
	}
	k := sort.SearchFloat64s(axis, v)
	// axis[k-1] < v <= axis[k]
	lo := k - 1
	f := (v - axis[lo]) / (axis[lo+1] - axis[lo])
	return lo, f
}
