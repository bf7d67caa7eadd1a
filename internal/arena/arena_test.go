package arena

import "testing"

func TestGrowReusesCapacity(t *testing.T) {
	s := make([]int, 0, 16)
	g := Grow(s, 8)
	if len(g) != 8 || cap(g) != 16 {
		t.Fatalf("Grow: len=%d cap=%d, want 8/16", len(g), cap(g))
	}
	g2 := Grow(g, 32)
	if len(g2) != 32 || cap(g2) < 32 {
		t.Fatalf("Grow beyond cap: len=%d cap=%d", len(g2), cap(g2))
	}
	z := GrowZero([]float64{1, 2, 3}, 2)
	if z[0] != 0 || z[1] != 0 {
		t.Fatalf("GrowZero left stale contents: %v", z)
	}
}

func TestSlabTakeZeroedAndDisjoint(t *testing.T) {
	var s Slab[int]
	a := s.Take(10)
	b := s.Take(10)
	for i := range a {
		a[i] = i + 1
	}
	for _, v := range b {
		if v != 0 {
			t.Fatalf("Take returned non-zero memory: %v", b)
		}
	}
	for i, v := range a {
		if v != i+1 {
			t.Fatalf("overlapping Take slices: a=%v", a)
		}
	}
	// Appending to a taken slice must not scribble over the next Take's
	// memory (three-index slice expression forces reallocation).
	c := s.Take(4)
	c = append(c, 99)
	d := s.Take(4)
	for _, v := range d {
		if v == 99 {
			t.Fatalf("append aliased into slab: d=%v", d)
		}
	}
}

func TestSlabResetRecyclesWithoutAliasingLiveTakes(t *testing.T) {
	var s Slab[int]
	a := s.Take(64)
	for i := range a {
		a[i] = 7
	}
	capBefore := s.Cap()
	s.Reset()
	b := s.Take(64)
	// b reuses a's memory (that is the point of Reset)…
	if &a[0] != &b[0] {
		t.Fatalf("Reset did not recycle chunk memory")
	}
	// …and Take re-zeroes it so no stale values leak.
	for _, v := range b {
		if v != 0 {
			t.Fatalf("stale contents after Reset: %v", b[:8])
		}
	}
	if s.Cap() != capBefore {
		t.Fatalf("Reset changed capacity: %d -> %d", capBefore, s.Cap())
	}
}

func TestSlabOutOfCapacityGrowth(t *testing.T) {
	var s Slab[byte]
	small := s.Take(minChunk / 2)
	big := s.Take(4 * minChunk) // cannot fit the first chunk: must grow
	if len(big) != 4*minChunk {
		t.Fatalf("big take length %d", len(big))
	}
	for i := range small {
		small[i] = 0xAA
	}
	for _, v := range big {
		if v == 0xAA {
			t.Fatalf("growth chunk aliases earlier take")
		}
	}
	if s.Cap() < minChunk/2+4*minChunk {
		t.Fatalf("capacity %d did not grow", s.Cap())
	}
	// After Reset the slab serves the same sizes with no new chunks.
	s.Reset()
	before := s.Cap()
	_ = s.Take(minChunk / 2)
	_ = s.Take(4 * minChunk)
	if s.Cap() != before {
		t.Fatalf("steady-state Take grew capacity: %d -> %d", before, s.Cap())
	}
}

func TestPoolGetPut(t *testing.T) {
	var p Pool[int]
	if p.Get() != nil {
		t.Fatalf("empty pool returned object")
	}
	x := new(int)
	*x = 42
	p.Put(x)
	p.Put(nil) // no-op
	if got := p.Get(); got != x {
		t.Fatalf("pool returned %v, want the object put", got)
	}
	if p.Get() != nil {
		t.Fatalf("pool returned object twice")
	}
}
