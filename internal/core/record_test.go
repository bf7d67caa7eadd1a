package core

import (
	"slices"
	"testing"

	"dscts/internal/corner"
	"dscts/internal/eco"
	"dscts/internal/geom"
	"dscts/internal/partition"
	"dscts/internal/tech"
)

// phaseNames lists a timing record's phases in row order.
func phaseNames(rec []PhaseTotal) []string {
	names := make([]string, len(rec))
	for i, p := range rec {
		names[i] = p.Phase
	}
	return names
}

// checkRecord holds a timing record to its phases in order and to each
// row's span count and points (points, by phase; every other row 0), and
// to a positive duration on every row.
func checkRecord(t *testing.T, out *Outcome, phases []string, count map[string]int, points map[string]int) {
	t.Helper()
	if got := phaseNames(out.Phases); !slices.Equal(got, phases) {
		t.Fatalf("record phases %q, want %q (record %+v)", got, phases, out.Phases)
	}
	for _, p := range out.Phases {
		if want := count[p.Phase]; p.Count != want {
			t.Errorf("%s row counts %d spans, want %d", p.Phase, p.Count, want)
		}
		if want := points[p.Phase]; p.Points != want {
			t.Errorf("%s row has %d points, want %d", p.Phase, p.Points, want)
		}
		if p.MS <= 0 {
			t.Errorf("%s row took %g ms", p.Phase, p.MS)
		}
	}
}

// TestRecordMonolithic: a monolithic run records route, insert, refine and
// eval once each and one corners span whose points are the corners signed
// off; under SkipRefine there is no refine row.
func TestRecordMonolithic(t *testing.T) {
	p := c4Placement(t)
	cs := []corner.Corner{corner.Slow(), corner.Typ(), corner.Fast()}
	out, err := Synthesize(p.Root, p.Sinks, tech.ASAP7(), Options{Corners: cs})
	if err != nil {
		t.Fatal(err)
	}
	ones := map[string]int{"route": 1, "insert": 1, "refine": 1, "eval": 1, "corners": 1}
	checkRecord(t, out, []string{"route", "insert", "refine", "eval", "corners"},
		ones, map[string]int{"corners": len(cs)})

	out, err = Synthesize(p.Root, p.Sinks, tech.ASAP7(), Options{SkipRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	checkRecord(t, out, []string{"route", "insert", "eval"}, ones, nil)
}

// TestRecordPartitioned: a partitioned run's route, insert and refine rows
// count one span per region, and its partition row one point per region.
func TestRecordPartitioned(t *testing.T) {
	out, err := Synthesize(geom.Pt(250, 250), clusteredSinks(3000, 17, 500), tech.ASAP7(),
		Options{Workers: 2, Partition: partition.Options{MaxSinks: 800}})
	if err != nil {
		t.Fatal(err)
	}
	n := len(out.Regions)
	if n < 2 {
		t.Fatalf("%d regions, want several", n)
	}
	checkRecord(t, out, []string{"route", "insert", "refine", "partition", "stitch", "eval"},
		map[string]int{"route": n, "insert": n, "refine": n, "partition": 1, "stitch": 1, "eval": 1},
		map[string]int{"partition": n})
}

// TestRecordPartitionedECO: a partitioned ECO that reuses regions records
// route, insert and refine spans for its dirty regions only, and its eco
// row one point per dirty region.
func TestRecordPartitionedECO(t *testing.T) {
	p := ecoPlacement(t, "C5")
	prev, err := Synthesize(p.Root, p.Sinks, tech.ASAP7(),
		Options{RetainECO: true, Partition: partition.Options{MaxSinks: 600}})
	if err != nil {
		t.Fatal(err)
	}
	var d eco.Delta
	for _, r := range prev.Retained.Regions[:2] {
		s := r.Sinks[0]
		d.Move = append(d.Move, eco.Move{Sink: s, To: p.Sinks[s]})
	}
	out, err := SynthesizeECO(prev, d, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dirty := out.ECO.DirtyScopes
	if dirty != 2 || out.ECO.TotalScopes <= dirty {
		t.Fatalf("delta dirtied %d of %d regions, want 2 of more", dirty, out.ECO.TotalScopes)
	}
	checkRecord(t, out, []string{"route", "insert", "refine", "eco", "stitch", "eval"},
		map[string]int{"route": dirty, "insert": dirty, "refine": dirty, "eco": 1, "stitch": 1, "eval": 1},
		map[string]int{"eco": dirty})
}
