package kernel

import "testing"

// The per-point package memo must count its traffic — and in particular
// the recomputes forced by direct-mapped slot collisions, the signal an
// eviction policy would be justified by.
func TestPkgMemoStatsCountsHitsMissesCollisions(t *testing.T) {
	sc := &SweepScratch{}
	span := uint64(1) << (pkgPointSlotBits + 2) // force the hashed, collision-prone regime

	// Cold lookup on an unsized table: a miss, not a collision.
	if _, ok := sc.LoadPackagePoint(1, span); ok {
		t.Fatal("hit on an empty memo")
	}
	sc.StorePackagePoint(1, span, PkgPoint{HIKg: 1})
	if _, ok := sc.LoadPackagePoint(1, span); !ok {
		t.Fatal("miss on a stored point")
	}

	// Find an index that hashes to point 1's slot and evict it, then
	// observe the collision recompute when point 1 is looked up again.
	slot := pkgPointSlot(1, span)
	other := uint64(2)
	for ; pkgPointSlot(other, span) != slot; other++ {
	}
	if _, ok := sc.LoadPackagePoint(other, span); ok {
		t.Fatal("hit for a colliding index that was never stored")
	}
	sc.StorePackagePoint(other, span, PkgPoint{HIKg: 2})
	if _, ok := sc.LoadPackagePoint(1, span); ok {
		t.Fatal("hit for point 1 after its slot was evicted")
	}

	s := sc.memo
	if s.Hits != 1 {
		t.Errorf("Hits = %d, want 1", s.Hits)
	}
	if s.Misses != 3 {
		t.Errorf("Misses = %d, want 3", s.Misses)
	}
	// The occupied-slot lookups: `other` before its store, and point 1
	// after the eviction.
	if s.Collisions != 2 {
		t.Errorf("Collisions = %d, want 2", s.Collisions)
	}
	// One empty slot claimed (point 1); `other`'s store overwrote it.
	if s.Fills != 1 {
		t.Errorf("Fills = %d, want 1", s.Fills)
	}
	if s.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", s.Evictions)
	}
	if occ, cap := occupancy(&sc.pkgPt); occ != 1 || cap != 1<<pkgPointSlotBits {
		t.Errorf("occupancy = %d/%d, want 1/%d", occ, cap, 1<<pkgPointSlotBits)
	}
	// Releasing hands the counts over and zeroes them: a second fold
	// adds nothing.
	var total PkgMemoStats
	sc.FoldMemo(&total)
	sc.FoldMemo(&total)
	if total != s || sc.memo != (PkgMemoStats{}) {
		t.Errorf("FoldMemo twice = %+v (scratch left %+v), want %+v once", total, sc.memo, s)
	}
}

// occupancy reports a slot table's live entries against its capacity.
func occupancy[V any](t *slotTable[V]) (occupied, capacity int) {
	for _, k := range t.keys {
		if k != 0 {
			occupied++
		}
	}
	return occupied, len(t.keys)
}

// Re-storing the same point must not inflate the fill or eviction
// counters, and the table must hold one entry per stored point.
func TestPkgMemoOccupancyIdentitySpan(t *testing.T) {
	sc := &SweepScratch{}
	span := uint64(16)
	for idx := uint64(0); idx < span; idx++ {
		sc.StorePackagePoint(idx, span, PkgPoint{})
		sc.StorePackagePoint(idx, span, PkgPoint{}) // overwrite in place
	}
	if occ, cap := occupancy(&sc.pkgPt); occ != int(span) || cap != int(span) {
		t.Errorf("occupancy = %d/%d, want %d/%d", occ, cap, span, span)
	}
	s := sc.memo
	if s.Fills != span {
		t.Errorf("Fills = %d, want %d", s.Fills, span)
	}
	if s.Evictions != 0 {
		t.Errorf("Evictions = %d, want 0: same-key overwrites evict nothing", s.Evictions)
	}
	// A span change rebuilds the table: occupancy resets, counters keep
	// accumulating monotonically.
	sc.StorePackagePoint(0, span*2, PkgPoint{})
	if occ, cap := occupancy(&sc.pkgPt); occ != 1 || cap != int(span*2) {
		t.Errorf("occupancy after resize = %d/%d, want 1/%d", occ, cap, span*2)
	}
	if got := sc.memo.Fills; got != span+1 {
		t.Errorf("Fills after resize = %d, want %d", got, span+1)
	}
}

// Identity-mapped spans (the common small-sweep case) can never collide:
// every miss must be a cold slot.
func TestPkgMemoStatsNoCollisionsWithinSlotCapacity(t *testing.T) {
	sc := &SweepScratch{}
	span := uint64(64)
	for idx := uint64(0); idx < span; idx++ {
		sc.LoadPackagePoint(idx, span)
		sc.StorePackagePoint(idx, span, PkgPoint{})
	}
	for idx := uint64(0); idx < span; idx++ {
		if _, ok := sc.LoadPackagePoint(idx, span); !ok {
			t.Fatalf("miss for stored point %d", idx)
		}
	}
	s := sc.memo
	if s.Collisions != 0 {
		t.Errorf("Collisions = %d, want 0 for an identity-mapped span", s.Collisions)
	}
	if s.Hits != span || s.Misses != span {
		t.Errorf("Hits/Misses = %d/%d, want %d/%d", s.Hits, s.Misses, span, span)
	}
}
