package stats

import "tnpu/internal/canon"

// AppendAccum appends every traffic counter to dst in canon encoding (the
// persisted cell-result tail; see DESIGN.md §6g).
func (t *Traffic) AppendAccum(dst []byte) []byte {
	for c := TrafficClass(0); c < numTrafficClasses; c++ {
		dst = canon.AppendU64(dst, t.read[c])
		dst = canon.AppendU64(dst, t.write[c])
	}
	return dst
}

// AddAccum adds an AppendAccum blob into t and returns the remaining
// bytes; into a zero Traffic it restores the encoded counters.
func (t *Traffic) AddAccum(src []byte) []byte {
	var v uint64
	for c := TrafficClass(0); c < numTrafficClasses; c++ {
		v, src = canon.U64(src)
		t.read[c] += v
		v, src = canon.U64(src)
		t.write[c] += v
	}
	return src
}

// AppendAccum appends the five cache counters to dst.
func (s *CacheStats) AppendAccum(dst []byte) []byte {
	dst = canon.AppendU64(dst, s.Lookups)
	dst = canon.AppendU64(dst, s.Misses)
	dst = canon.AppendU64(dst, s.Evictions)
	dst = canon.AppendU64(dst, s.Writebacks)
	return canon.AppendU64(dst, s.Prefetches)
}

// AddAccum adds a cache-counter delta blob into s and returns the
// remaining bytes.
func (s *CacheStats) AddAccum(src []byte) []byte {
	var v uint64
	v, src = canon.U64(src)
	s.Lookups += v
	v, src = canon.U64(src)
	s.Misses += v
	v, src = canon.U64(src)
	s.Evictions += v
	v, src = canon.U64(src)
	s.Writebacks += v
	v, src = canon.U64(src)
	s.Prefetches += v
	return src
}
