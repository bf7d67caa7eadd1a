// Package partition splits a die into capacity-bounded regions for the
// partition-parallel mega-scale pipeline: each region holds at most MaxSinks
// sinks and is synthesized independently (clustering → DME → insertion →
// refinement), after which the stitch stage merges the region roots under a
// top tree (see internal/core and DESIGN.md §3).
//
// The default strategy is a kd-style recursive median cut: regions follow
// the sink density by construction (every cut splits the population, not the
// area, in half), and the cut-line chooser is aware of macro blockages — a
// cut that would run through a macro is nudged to the macro's edge so region
// boundaries land in routable space. The alternative "grid" strategy tiles
// the sink bounding box uniformly and kd-splits only the cells that overflow
// the capacity, which gives more square regions on uniform placements.
//
// Split is deterministic: the regions, their IDs and their sink membership
// are a pure function of the sinks and the options, never of a worker count
// or iteration order.
package partition

import (
	"fmt"
	"math"
	"slices"

	"dscts/internal/arena"
	"dscts/internal/geom"
)

// Strategies accepted by Options.Strategy.
const (
	// StrategyKD is the default recursive median cut.
	StrategyKD = "kd"
	// StrategyGrid tiles the sink bounding box uniformly, kd-splitting
	// overfull cells.
	StrategyGrid = "grid"
)

// Options configures Split. The zero value disables partitioning
// (MaxSinks == 0): callers treat that as "run the monolithic flow".
type Options struct {
	// MaxSinks is the region capacity: no region holds more sinks than
	// this. 0 disables partitioning.
	MaxSinks int
	// Strategy selects the cut scheme: "kd" (default) or "grid".
	Strategy string
	// Macros are blockages the kd cut-line chooser avoids slicing through.
	// They never affect which sinks end up together beyond moving the cut
	// coordinate; sink membership itself stays a median split.
	Macros []geom.BBox
}

// Enabled reports whether the options ask for partitioning at all.
func (o Options) Enabled() bool { return o.MaxSinks > 0 }

// Validate rejects malformed options.
func (o Options) Validate() error {
	if o.MaxSinks < 0 {
		return fmt.Errorf("partition: MaxSinks must be >= 0, got %d", o.MaxSinks)
	}
	switch o.Strategy {
	case "", StrategyKD, StrategyGrid:
	default:
		return fmt.Errorf("partition: unknown strategy %q (want %q or %q)", o.Strategy, StrategyKD, StrategyGrid)
	}
	return nil
}

// Region is one capacity-bounded piece of the die.
type Region struct {
	// ID is the region's index in the deterministic Split order.
	ID int
	// Box is the bounding box of the region's sinks.
	Box geom.BBox
	// Sinks are the ORIGINAL sink indices of the region, ascending.
	Sinks []int
	// Anchor is the region's clock entry point — the sink centroid — where
	// the region-local tree is rooted and the top tree taps in.
	Anchor geom.Point
}

// Split partitions the sinks into capacity-bounded regions. With
// partitioning disabled, or when every sink fits one region, it returns a
// single region covering everything. Every sink position must be finite.
func Split(sinks []geom.Point, opt Options) ([]Region, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if len(sinks) == 0 {
		return nil, fmt.Errorf("partition: no sinks")
	}
	if len(sinks) > math.MaxInt32 {
		return nil, fmt.Errorf("partition: %d sinks exceed the %d a split indexes", len(sinks), math.MaxInt32)
	}
	for i, p := range sinks {
		if !p.Finite() {
			return nil, fmt.Errorf("partition: sink %d has non-finite position %v", i, p)
		}
	}
	all := make([]int, len(sinks))
	for i := range all {
		all[i] = i
	}
	if !opt.Enabled() || len(sinks) <= opt.MaxSinks {
		return []Region{makeRegion(0, sinks, all)}, nil
	}
	k := &kd{sinks: sinks, opt: opt}
	var groups [][]int
	if opt.Strategy == StrategyGrid {
		for _, cell := range gridGroups(sinks, all, opt.MaxSinks) {
			groups = k.split(cell, groups)
		}
	} else {
		groups = k.split(all, nil)
	}
	out := make([]Region, len(groups))
	for i, g := range groups {
		out[i] = makeRegion(i, sinks, g)
	}
	return out, nil
}

func makeRegion(id int, sinks []geom.Point, members []int) Region {
	r := Region{ID: id, Sinks: members}
	var cx, cy float64
	for _, si := range members {
		r.Box.Grow(sinks[si])
		cx += sinks[si].X
		cy += sinks[si].Y
	}
	n := float64(len(members))
	r.Anchor = geom.Pt(cx/n, cy/n)
	return r
}

// SplitMembers kd-splits an explicit member set (original sink indices)
// into capacity-bounded groups, each sorted ascending, in the same
// deterministic depth-first order Split uses. It exists for incremental
// re-synthesis: a dirty region that grew past the capacity is re-cut in
// place without re-partitioning the whole die. MaxSinks must be positive,
// and the members must be distinct, in range and at finite positions.
func SplitMembers(sinks []geom.Point, members []int, opt Options) ([][]int, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if !opt.Enabled() {
		return nil, fmt.Errorf("partition: SplitMembers needs MaxSinks > 0")
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("partition: no members")
	}
	if len(members) > math.MaxInt32 {
		return nil, fmt.Errorf("partition: %d members exceed the %d a split indexes", len(members), math.MaxInt32)
	}
	asc := slices.Clone(members)
	slices.Sort(asc)
	for i, si := range asc {
		if si < 0 || si >= len(sinks) {
			return nil, fmt.Errorf("partition: member %d out of range [0,%d)", si, len(sinks))
		}
		if i > 0 && si == asc[i-1] {
			return nil, fmt.Errorf("partition: member %d listed twice", si)
		}
		if !sinks[si].Finite() {
			return nil, fmt.Errorf("partition: sink %d has non-finite position %v", si, sinks[si])
		}
	}
	k := &kd{sinks: sinks, opt: opt}
	return k.split(asc, nil), nil
}

// kd is the recursive median cut, run on presorted lanes. The cut
// comparator orders a member set by (X, Y, index) for a vertical cut line
// and by (Y, X, index) for a horizontal one; a total order, because
// positions are finite. kd sorts the members once into each order and
// never sorts again: a cut takes the first half (after the macro nudge)
// of its axis's lane, and stable-partitions the other lane by a mark,
// which keeps both halves' lanes in order. Each level costs O(n).
//
// Lanes hold local positions into the ascending member list, so a
// position's order is its sink index's order. A kd may split several
// member sets in turn (grid cells) and reuses its buffers across them.
type kd struct {
	sinks []geom.Point
	opt   Options

	members []int   // the member set being split, ascending
	xl, yl  []int32 // positions by (X, Y, index) and by (Y, X, index)
	group   []int32 // group of each position
	mark    []int32 // cut stamp of each position on the current low side
	high    []int32 // radix scatter lane, then the high-side partition buffer
	stamp   int32
	groups  int32
	keys    []uint64 // radix sort keys and their scatter lane
	spare   []uint64
}

// split cuts members (ascending, distinct) until every group fits the
// capacity and appends the groups to acc, each ascending, in depth-first
// low-half-first order.
func (k *kd) split(members []int, acc [][]int) [][]int {
	if len(members) <= k.opt.MaxSinks {
		return append(acc, members)
	}
	n := len(members)
	k.members = members
	k.presort()
	k.group = arena.Grow(k.group, n)
	k.mark = arena.Grow(k.mark, n)
	k.groups = 0
	k.cut(k.xl, k.yl)

	// One ascending pass over the members fills every group in order.
	size := make([]int, k.groups)
	for _, g := range k.group[:n] {
		size[g]++
	}
	backing := make([]int, n)
	first := len(acc)
	for _, sz := range size {
		acc = append(acc, backing[:0:sz])
		backing = backing[sz:]
	}
	for pos, g := range k.group[:n] {
		acc[first+int(g)] = append(acc[first+int(g)], members[pos])
	}
	return acc
}

// at returns the location of the member at local position pos.
func (k *kd) at(pos int32) geom.Point { return k.sinks[k.members[pos]] }

// presort fills xl with the local positions in (X, Y, index) order and yl
// in (Y, X, index) order, by three stable radix sorts from index order:
// by Y, then by X (giving xl), then a copy of xl by Y again (giving yl,
// because among equal Y the xl order is the (X, index) order).
func (k *kd) presort() {
	n := len(k.members)
	k.keys = arena.Grow(k.keys, n)
	k.spare = arena.Grow(k.spare, n)
	k.xl = arena.Grow(k.xl, n)
	k.yl = arena.Grow(k.yl, n)
	k.high = arena.Grow(k.high, n)
	for i := range k.xl {
		k.xl[i] = int32(i)
		k.keys[i] = floatKey(k.at(int32(i)).Y)
	}
	radixSort(k.keys, k.xl, k.spare, k.high)
	for i, pos := range k.xl {
		k.keys[i] = floatKey(k.at(pos).X)
	}
	radixSort(k.keys, k.xl, k.spare, k.high)
	copy(k.yl, k.xl)
	for i, pos := range k.yl {
		k.keys[i] = floatKey(k.at(pos).Y)
	}
	radixSort(k.keys, k.yl, k.spare, k.high)
}

// cut median-cuts the member subset held by the lanes xl and yl (the same
// positions in the two orders), assigning each finished group the next
// group number.
func (k *kd) cut(xl, yl []int32) {
	n := len(xl)
	if n <= k.opt.MaxSinks {
		for _, pos := range xl {
			k.group[pos] = k.groups
		}
		k.groups++
		return
	}
	box := geom.NewBBox(geom.Pt(k.at(xl[0]).X, k.at(yl[0]).Y), geom.Pt(k.at(xl[n-1]).X, k.at(yl[n-1]).Y))
	// Cut across the longer extent so regions stay roughly square.
	vertical := box.W() >= box.H() // vertical cut line: split by X
	lane, other := yl, xl
	if vertical {
		lane, other = xl, yl
	}
	coord := func(i int) float64 {
		if vertical {
			return k.at(lane[i]).X
		}
		return k.at(lane[i]).Y
	}
	c := nudgeCutOffMacros(n, n/2, coord, box, vertical, k.opt.Macros)
	k.stamp++
	for _, pos := range lane[:c] {
		k.mark[pos] = k.stamp
	}
	high, w := k.high[:0], 0
	for _, pos := range other {
		if k.mark[pos] == k.stamp {
			other[w] = pos
			w++
		} else {
			high = append(high, pos)
		}
	}
	copy(other[w:], high)
	k.cut(xl[:c], yl[:c])
	k.cut(xl[c:], yl[c:])
}

// floatKey maps a finite float64 to a key whose unsigned order is the
// float's order. It folds −0 into +0, which the cut comparator already
// treats as equal.
func floatKey(f float64) uint64 {
	if f == 0 {
		return 1 << 63
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

const (
	digitBits = 11
	digitMask = 1<<digitBits - 1
	digits    = (64 + digitBits - 1) / digitBits
)

// radixSort stably sorts pos by keys (equal-length lanes, permuted
// together), one 11-bit digit at a time from the least significant,
// scattering through the equal-length lanes keyBuf and posBuf. The sorted
// lanes end in keys and pos. A digit that every key shares costs no pass.
func radixSort(keys []uint64, pos []int32, keyBuf []uint64, posBuf []int32) {
	n := len(keys)
	if n < 2 {
		return
	}
	var count [digits][1 << digitBits]int32
	for _, key := range keys {
		for d := range count {
			count[d][key&digitMask]++
			key >>= digitBits
		}
	}
	srcK, srcP, dstK, dstP := keys, pos, keyBuf[:n], posBuf[:n]
	for d := range count {
		c := &count[d]
		shift := uint(d * digitBits)
		if int(c[srcK[0]>>shift&digitMask]) == n {
			continue
		}
		var sum int32
		for v, cnt := range c {
			c[v] = sum
			sum += cnt
		}
		sp := srcP[:len(srcK)]
		for i, key := range srcK {
			v := key >> shift & digitMask
			j := c[v]
			dstK[j] = key
			dstP[j] = sp[i]
			c[v] = j + 1
		}
		srcK, srcP, dstK, dstP = dstK, dstP, srcK, srcP
	}
	if &srcK[0] != &keys[0] {
		copy(keys, srcK)
		copy(pos, srcP)
	}
}

// nudgeCutOffMacros moves the median split index so the induced cut line —
// halfway between the two sinks adjacent to the split — does not run through
// a macro blockage that crosses the region. coord(i) is the cut-axis
// coordinate of the i-th of the n sorted members. It scans outward from the
// median for the nearest legal split, preferring the smaller index on ties,
// and keeps at least one sink on each side; if every split position is
// blocked the median stands.
func nudgeCutOffMacros(n, cut int, coord func(i int) float64, box geom.BBox, vertical bool, macros []geom.BBox) int {
	if len(macros) == 0 {
		return cut
	}
	legal := func(c int) bool {
		if c <= 0 || c >= n {
			return false
		}
		line := (coord(c-1) + coord(c)) / 2
		for _, m := range macros {
			var cutsMacro bool
			if vertical {
				cutsMacro = line > m.MinX && line < m.MaxX &&
					box.MinY < m.MaxY && box.MaxY > m.MinY
			} else {
				cutsMacro = line > m.MinY && line < m.MaxY &&
					box.MinX < m.MaxX && box.MaxX > m.MinX
			}
			if cutsMacro {
				return false
			}
		}
		return true
	}
	if legal(cut) {
		return cut
	}
	for d := 1; d < n; d++ {
		if legal(cut - d) {
			return cut - d
		}
		if legal(cut + d) {
			return cut + d
		}
	}
	return cut
}

// gridGroups tiles the sink bounding box with ceil(sqrt(n/maxSinks))²
// cells and buckets the members; empty cells are dropped. Cells are emitted
// row-major, so the grouping is deterministic.
func gridGroups(sinks []geom.Point, members []int, maxSinks int) [][]int {
	var box geom.BBox
	for _, si := range members {
		box.Grow(sinks[si])
	}
	g := int(math.Ceil(math.Sqrt(float64(len(members)) / float64(maxSinks))))
	if g < 1 {
		g = 1
	}
	w, h := box.W(), box.H()
	cellOf := func(si int) int {
		cx, cy := 0, 0
		if w > 0 {
			cx = int(float64(g) * (sinks[si].X - box.MinX) / w)
		}
		if h > 0 {
			cy = int(float64(g) * (sinks[si].Y - box.MinY) / h)
		}
		if cx >= g {
			cx = g - 1
		}
		if cy >= g {
			cy = g - 1
		}
		return cy*g + cx
	}
	cells := make([][]int, g*g)
	for _, si := range members {
		c := cellOf(si)
		cells[c] = append(cells[c], si)
	}
	var out [][]int
	for _, cell := range cells {
		if len(cell) > 0 {
			out = append(out, cell)
		}
	}
	return out
}

// Validate checks that the regions are a partition of [0, n): every sink in
// exactly one region, no empty regions, IDs in slice order.
func Validate(regions []Region, n int) error {
	seen := make([]bool, n)
	total := 0
	for i, r := range regions {
		if r.ID != i {
			return fmt.Errorf("partition: region %d has ID %d", i, r.ID)
		}
		if len(r.Sinks) == 0 {
			return fmt.Errorf("partition: region %d is empty", i)
		}
		for _, s := range r.Sinks {
			if s < 0 || s >= n {
				return fmt.Errorf("partition: sink index %d out of range", s)
			}
			if seen[s] {
				return fmt.Errorf("partition: sink %d assigned twice", s)
			}
			seen[s] = true
			total++
		}
	}
	if total != n {
		return fmt.Errorf("partition: %d of %d sinks assigned", total, n)
	}
	return nil
}
