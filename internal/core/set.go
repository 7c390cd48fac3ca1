package core

import "math/bits"

// answerSet is the engine's membership set: a packed slice with linear
// probing while the set is small — the overwhelmingly common case, a
// query's answer holds a handful of entries — that upgrades itself to a
// handle-indexed bitmap once it grows past answerSpill.
//
// The motivation is the join phase's profile: with map-backed answer
// sets, over half of a steady-state Step burned in map hashing and
// probing. The packed slice turns small-set operations into a few
// contiguous word compares; the bitmap turns large-set membership into
// a single bit test — the skewed road-network workload concentrates
// objects in hot cells, so the dense queries that spill are exactly the
// ones probed the most. Object handles are dense (the engine's
// free-listed handle table), so the bitmap stays proportional to the
// registered population, not the ID space.
//
// Iteration order is deterministic in both forms: insertion order while
// packed, ascending handle order once spilled. The zero value is an
// empty set. Not safe for concurrent mutation.
type answerSet struct {
	small []int32
	bits  []uint64 // non-nil once spilled; small is then unused
	n     int32    // population while spilled
}

// answerSpill is the size at which an answerSet abandons linear probing
// for the bitmap. Chosen so the common sets (a few entries) stay packed
// while the skewed hot sets — the ones the object join probes most —
// get O(1) bit tests after a single cache line's worth of probing.
const answerSpill = 16

// answerGrow is the packed slice's first allocated capacity: large
// enough that typical sets never grow twice, small enough that ten
// thousand idle sets stay cheap.
const answerGrow = 8

// Len returns the number of elements.
func (s *answerSet) Len() int {
	if s.bits != nil {
		return int(s.n)
	}
	return len(s.small)
}

// Has reports whether handle h is in the set.
func (s *answerSet) Has(h int32) bool {
	if s.bits != nil {
		w := int(h >> 6)
		return w < len(s.bits) && s.bits[w]&(1<<uint(h&63)) != 0
	}
	for _, x := range s.small {
		if x == h {
			return true
		}
	}
	return false
}

// Add inserts h, reporting whether it was absent.
func (s *answerSet) Add(h int32) bool {
	if s.bits != nil {
		// Duplicate adds are the common case on the object-join path
		// (a moved object re-probes every region still covering it),
		// so test inline before taking the grow-and-set slow path.
		if w := int(h >> 6); w < len(s.bits) && s.bits[w]&(1<<uint(h&63)) != 0 {
			return false
		}
		return s.setBit(h)
	}
	for _, x := range s.small {
		if x == h {
			return false
		}
	}
	if len(s.small) >= answerSpill {
		s.spill()
		return s.setBit(h)
	}
	if len(s.small) == cap(s.small) {
		// Grow in two jumps (answerGrow, then spill-size) instead of
		// letting append double from 1: under churn, thousands of sets
		// creep toward their high-water marks one element at a time,
		// and the doubling tail keeps steady-state Steps allocating
		// for hundreds of ticks (TestStepSteadyStateAllocs pins this).
		newCap := answerGrow
		if cap(s.small) >= answerGrow {
			newCap = answerSpill
		}
		grown := make([]int32, len(s.small), newCap)
		copy(grown, s.small)
		s.small = grown
	}
	s.small = append(s.small, h)
	return true
}

// addNoCheck inserts h known to be absent, skipping the membership
// probe. Callers must guarantee absence; kNN adds qualify because they
// are pre-filtered against the answer (see setMemberNew). Range
// region-difference candidates do NOT: an object that moved into
// A_new − A_old in the same step may already be a member, so those
// adds go through setMember.
func (s *answerSet) addNoCheck(h int32) {
	if s.bits != nil {
		s.setBit(h)
		return
	}
	if len(s.small) >= answerSpill {
		s.spill()
		s.setBit(h)
		return
	}
	if len(s.small) == cap(s.small) {
		newCap := answerGrow
		if cap(s.small) >= answerGrow {
			newCap = answerSpill
		}
		grown := make([]int32, len(s.small), newCap)
		copy(grown, s.small)
		s.small = grown
	}
	s.small = append(s.small, h)
}

// setBit inserts h into the spilled bitmap, reporting whether it was
// absent. The bitmap grows to cover the highest handle seen; growth
// memory comes zeroed from the allocator and words are only ever
// written inside the current length, so reslicing into spare capacity
// never exposes stale bits.
func (s *answerSet) setBit(h int32) bool {
	w := int(h >> 6)
	if w >= len(s.bits) {
		if w < cap(s.bits) {
			s.bits = s.bits[:w+1]
		} else {
			grown := make([]uint64, w+1, max(2*cap(s.bits), w+1))
			copy(grown, s.bits)
			s.bits = grown
		}
	}
	mask := uint64(1) << uint(h&63)
	if s.bits[w]&mask != 0 {
		return false
	}
	s.bits[w] |= mask
	s.n++
	return true
}

// spill moves the packed elements into a freshly allocated bitmap. A
// spilled set never shrinks back: sets that grew large once tend to
// grow large again, and the bitmap stays correct either way.
func (s *answerSet) spill() {
	maxH := int32(0)
	for _, h := range s.small {
		if h > maxH {
			maxH = h
		}
	}
	s.bits = make([]uint64, int(maxH>>6)+1)
	for _, h := range s.small {
		s.bits[h>>6] |= 1 << uint(h&63)
	}
	s.n = int32(len(s.small))
	s.small = s.small[:0]
}

// Remove deletes h, reporting whether it was present.
func (s *answerSet) Remove(h int32) bool {
	if s.bits != nil {
		w := int(h >> 6)
		mask := uint64(1) << uint(h&63)
		if w >= len(s.bits) || s.bits[w]&mask == 0 {
			return false
		}
		s.bits[w] &^= mask
		s.n--
		return true
	}
	for i, x := range s.small {
		if x == h {
			last := len(s.small) - 1
			s.small[i] = s.small[last]
			s.small = s.small[:last]
			return true
		}
	}
	return false
}

// Clear empties the set, retaining the packed slice's capacity (and the
// bitmap, when spilled) for reuse.
func (s *answerSet) Clear() {
	s.small = s.small[:0]
	if s.bits != nil {
		clear(s.bits)
		s.n = 0
	}
}

// AppendTo appends every element to dst and returns the extended slice.
// Packed sets append in insertion order; spilled sets append in
// ascending handle order — deterministic either way. Iterating a
// snapshot taken with AppendTo is the idiom for mutating the set while
// walking its members (drop scans retract via setMember mid-walk).
func (s *answerSet) AppendTo(dst []int32) []int32 {
	if s.bits != nil {
		for wi, w := range s.bits {
			base := int32(wi << 6)
			for w != 0 {
				dst = append(dst, base+int32(bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
		return dst
	}
	return append(dst, s.small...)
}
