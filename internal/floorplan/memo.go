package floorplan

import "math"

// Shape memo bounds: the slot table starts at memoMinSlots and doubles
// whenever a store would fill more than half of it, up to memoMaxSlots.
// Once memoMaxSlots/2 shapes are stored, new shapes are planned but not
// stored; the stored ones keep hitting.
const (
	memoMinSlots = 64
	memoMaxSlots = 2048
)

// shapeMemo maps a plan's sorted (area, aspect ratio) sequence to the
// bounding box the from-scratch algorithm produced for it. The key is
// exact: the Float64bits of the sorted areas, followed by the sorted
// aspect ratios unless every block of the set shares one (then the
// aspects add nothing and keyWords is n). Entries are stored in
// insertion order in flat slices; slots is an open-addressed index into
// them with linear probing.
type shapeMemo struct {
	keyWords int
	slots    []int32   // entry index + 1, 0 = empty; len 0 or a power of two
	hash     []uint64  // per entry
	wh       []float64 // per entry: width, height
	keys     []uint64  // per entry: keyWords words
}

// resetMemo empties the shape memo and sizes its key for the current
// block set. rebuild calls it, since the block set or spacing changed —
// the stored boxes are valid only under both.
func (t *Tree) resetMemo() {
	m := &t.memo
	clear(m.slots)
	m.hash, m.wh, m.keys = m.hash[:0], m.wh[:0], m.keys[:0]
	m.keyWords = len(t.blocks)
	ar := math.Float64bits(t.blocks[0].AspectRatio)
	for _, b := range t.blocks[1:] {
		if math.Float64bits(b.AspectRatio) != ar {
			m.keyWords = 2 * len(t.blocks)
			break
		}
	}
}

// shapeHash hashes the current sorted sequence (the memo key).
func (t *Tree) shapeHash() uint64 {
	h := uint64(14695981039346656037)
	for _, a := range t.areas {
		h = (h ^ math.Float64bits(a)) * 1099511628211
	}
	if t.memo.keyWords > len(t.areas) {
		for k := range t.sorted {
			h = (h ^ math.Float64bits(t.sorted[k].AspectRatio)) * 1099511628211
		}
	}
	// Fold the high bits down: area words differ mostly in their upper
	// mantissa bits, and the slot index takes the low ones.
	h ^= h >> 31
	h *= 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// memoLookup returns the stored bounding box of the current sorted
// sequence, whose hash is h, comparing the whole key bit for bit.
func (t *Tree) memoLookup(h uint64) (w, hgt float64, ok bool) {
	m := &t.memo
	if len(m.slots) == 0 {
		return 0, 0, false
	}
	mask := uint64(len(m.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := int(m.slots[i]) - 1
		if e < 0 {
			return 0, 0, false
		}
		if m.hash[e] == h && t.keyMatches(m.keys[e*m.keyWords:(e+1)*m.keyWords]) {
			return m.wh[2*e], m.wh[2*e+1], true
		}
	}
}

// keyMatches reports whether key is the current sorted sequence.
func (t *Tree) keyMatches(key []uint64) bool {
	n := len(t.areas)
	for k, a := range t.areas {
		if key[k] != math.Float64bits(a) {
			return false
		}
	}
	for k := n; k < len(key); k++ {
		if key[k] != math.Float64bits(t.sorted[k-n].AspectRatio) {
			return false
		}
	}
	return true
}

// memoStore records the bounding box of the current sorted sequence,
// whose hash is h and which memoLookup just missed.
func (t *Tree) memoStore(h uint64, w, hgt float64) {
	m := &t.memo
	e := len(m.hash)
	if 2*e >= memoMaxSlots {
		return
	}
	if 2*(e+1) > len(m.slots) {
		m.grow()
	}
	m.hash = append(m.hash, h)
	m.wh = append(m.wh, w, hgt)
	for _, a := range t.areas {
		m.keys = append(m.keys, math.Float64bits(a))
	}
	if m.keyWords > len(t.areas) {
		for k := range t.sorted {
			m.keys = append(m.keys, math.Float64bits(t.sorted[k].AspectRatio))
		}
	}
	m.insert(h, e)
}

// grow doubles the slot table (or allocates the first one) and
// re-indexes the stored entries.
func (m *shapeMemo) grow() {
	size := 2 * len(m.slots)
	if size < memoMinSlots {
		size = memoMinSlots
	}
	m.slots = make([]int32, size)
	for e, h := range m.hash {
		m.insert(h, e)
	}
}

// insert indexes entry e under hash h in the first free slot of its
// probe sequence.
func (m *shapeMemo) insert(h uint64, e int) {
	mask := uint64(len(m.slots) - 1)
	i := h & mask
	for m.slots[i] != 0 {
		i = (i + 1) & mask
	}
	m.slots[i] = int32(e + 1)
}
