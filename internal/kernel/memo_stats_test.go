package kernel

import "testing"

// The package memo must count its traffic — and in particular the
// recomputes forced by direct-mapped slot collisions, the signal an
// eviction policy would be justified by.
func TestPkgMemoStatsCountsHitsMissesCollisions(t *testing.T) {
	sc := &SweepScratch{}
	span := uint64(1) << (pkgSlotBits + 2) // force the hashed, collision-prone regime

	// Cold lookup on an unsized table: a miss, not a collision.
	if _, ok := sc.LoadPackage(1, span); ok {
		t.Fatal("hit on an empty memo")
	}
	stored := PkgTerms{PackageKg: 1, RoutingKg: 2, AreaMM2: 3, AssemblyYield: 4, RouterPowerW: 5}
	sc.StorePackage(1, span, stored)
	if v, ok := sc.LoadPackage(1, span); !ok || v != stored {
		t.Fatalf("LoadPackage(1) = %+v, %v; want the stored %+v", v, ok, stored)
	}

	// Find a key that hashes to key 1's slot and evict it, then observe
	// the collision recompute when key 1 is looked up again.
	slot := pkgSlot(1, span)
	other := uint64(2)
	for ; pkgSlot(other, span) != slot; other++ {
	}
	if _, ok := sc.LoadPackage(other, span); ok {
		t.Fatal("hit for a colliding key that was never stored")
	}
	sc.StorePackage(other, span, PkgTerms{PackageKg: 2})
	if _, ok := sc.LoadPackage(1, span); ok {
		t.Fatal("hit for key 1 after its slot was evicted")
	}

	s := sc.memo
	if s.Hits != 1 {
		t.Errorf("Hits = %d, want 1", s.Hits)
	}
	if s.Misses != 3 {
		t.Errorf("Misses = %d, want 3", s.Misses)
	}
	// The occupied-slot lookups: `other` before its store, and key 1
	// after the eviction.
	if s.Collisions != 2 {
		t.Errorf("Collisions = %d, want 2", s.Collisions)
	}
	// One empty slot claimed (key 1); `other`'s store overwrote it.
	if s.Fills != 1 {
		t.Errorf("Fills = %d, want 1", s.Fills)
	}
	if s.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", s.Evictions)
	}
	if occ, cap := occupancy(sc); occ != 1 || cap != 1<<pkgSlotBits {
		t.Errorf("occupancy = %d/%d, want 1/%d", occ, cap, 1<<pkgSlotBits)
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

// occupancy reports the package memo's live entries against its
// capacity.
func occupancy(sc *SweepScratch) (occupied, capacity int) {
	for _, k := range sc.keys {
		if k != 0 {
			occupied++
		}
	}
	return occupied, len(sc.keys)
}

// Re-storing the same key must not inflate the fill or eviction
// counters, and the table must hold one entry per stored key.
func TestPkgMemoOccupancyIdentitySpan(t *testing.T) {
	sc := &SweepScratch{}
	span := uint64(16)
	for idx := uint64(0); idx < span; idx++ {
		sc.StorePackage(idx, span, PkgTerms{})
		sc.StorePackage(idx, span, PkgTerms{}) // overwrite in place
	}
	if occ, cap := occupancy(sc); occ != int(span) || cap != int(span) {
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
	sc.StorePackage(0, span*2, PkgTerms{})
	if occ, cap := occupancy(sc); occ != 1 || cap != int(span*2) {
		t.Errorf("occupancy after resize = %d/%d, want 1/%d", occ, cap, span*2)
	}
	if got := sc.memo.Fills; got != span+1 {
		t.Errorf("Fills after resize = %d, want %d", got, span+1)
	}
	// A lookup under another span than the table's misses without a
	// collision, whatever the slot holds.
	if _, ok := sc.LoadPackage(0, span); ok {
		t.Error("hit under the span the table was resized away from")
	}
	if _, ok := sc.LoadPackage(1, span*2); ok {
		t.Error("hit for a key stored only before the resize")
	}
	if s := sc.memo; s.Hits != 0 || s.Misses != 2 || s.Collisions != 0 {
		t.Errorf("after resize: %+v, want 2 misses and no hits or collisions", s)
	}
}

// Identity-mapped spans (the common small-sweep case) can never collide:
// every miss must be a cold slot.
func TestPkgMemoStatsNoCollisionsWithinSlotCapacity(t *testing.T) {
	sc := &SweepScratch{}
	span := uint64(64)
	for idx := uint64(0); idx < span; idx++ {
		sc.LoadPackage(idx, span)
		sc.StorePackage(idx, span, PkgTerms{})
	}
	for idx := uint64(0); idx < span; idx++ {
		if _, ok := sc.LoadPackage(idx, span); !ok {
			t.Fatalf("miss for stored key %d", idx)
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
