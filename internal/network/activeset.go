package network

import "math/bits"

// nodeSet is a deduplicated worklist of node ids with deterministic
// (ascending) iteration order. Membership is a bitmap over the id range
// [lo, hi) the set may hold, so add is O(1). prepare rebuilds the id
// list from the bitmap with a word scan before a phase iterates it, so
// incidental insertion order (which depends on link directions and
// event arrival order) can never leak into phase order and thus into
// simulation results. The rebuild costs O((hi-lo)/64 + members) with no
// comparison sort, allocation or closure, and runs only on cycles that
// added members: between cycles the list stays ascending (pruning
// preserves order).
type nodeSet struct {
	bits   []uint64 // bit id%64 of word id/64 set iff id is a member
	lo, hi int32    // the id range this set may hold
	ids    []int32
	dirty  bool // ids has appends since the last prepare
}

// newNodeSet returns an empty set for ids in [lo, hi).
func newNodeSet(lo, hi int) nodeSet {
	return nodeSet{bits: make([]uint64, (hi+63)/64), lo: int32(lo), hi: int32(hi)}
}

// add inserts id if absent.
func (s *nodeSet) add(id int32) {
	w, b := id>>6, uint64(1)<<(id&63)
	if s.bits[w]&b == 0 {
		s.bits[w] |= b
		s.ids = append(s.ids, id)
		s.dirty = true
	}
}

// has reports membership.
func (s *nodeSet) has(id int32) bool { return s.bits[id>>6]&(1<<(id&63)) != 0 }

// prepare makes ids the ascending member list; call once before
// iterating. Pruning (compaction during iteration) preserves order, so
// the rebuild only runs on cycles that added members.
//
//cr:hotpath worklist ordering, once per node-ordered phase per cycle
func (s *nodeSet) prepare() {
	if !s.dirty {
		return
	}
	s.dirty = false
	ids := s.ids[:0]
	for w := s.lo >> 6; w < (s.hi+63)>>6; w++ {
		for word := s.bits[w]; word != 0; word &= word - 1 {
			ids = append(ids, w<<6|int32(bits.TrailingZeros64(word)))
		}
	}
	s.ids = ids
}

// drop removes id from the bitmap only; the caller compacts ids itself
// while iterating (see phaseTransmit).
func (s *nodeSet) drop(id int32) { s.bits[id>>6] &^= 1 << (id & 63) }

// reset empties the set. The dirty flag is cleared too: an empty list
// is trivially ascending, and leaving the flag set would make the next
// prepare after a Network.Reset run a pointless rebuild.
func (s *nodeSet) reset() {
	for _, id := range s.ids {
		s.drop(id)
	}
	s.ids = s.ids[:0]
	s.dirty = false
}

// linkRef identifies one directed link by its upstream (node, port).
type linkRef struct {
	node int32
	port int32
}
