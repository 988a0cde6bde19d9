package stats

import "encoding/binary"

// AppendAccum appends every traffic counter to dst as fixed-width
// little-endian u64s (the persisted cell-result tail; see DESIGN.md §6g).
func (t *Traffic) AppendAccum(dst []byte) []byte {
	for c := TrafficClass(0); c < numTrafficClasses; c++ {
		dst = binary.LittleEndian.AppendUint64(dst, t.read[c])
		dst = binary.LittleEndian.AppendUint64(dst, t.write[c])
	}
	return dst
}

// AddAccum adds an AppendAccum blob into t and returns the remaining
// bytes; into a zero Traffic it restores the encoded counters. Callers
// decoding untrusted bytes check the length first: a short blob panics.
func (t *Traffic) AddAccum(src []byte) []byte {
	for c := TrafficClass(0); c < numTrafficClasses; c++ {
		t.read[c] += binary.LittleEndian.Uint64(src)
		t.write[c] += binary.LittleEndian.Uint64(src[8:])
		src = src[16:]
	}
	return src
}

// AppendAccum appends the five cache counters to dst.
func (s *CacheStats) AppendAccum(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, s.Lookups)
	dst = binary.LittleEndian.AppendUint64(dst, s.Misses)
	dst = binary.LittleEndian.AppendUint64(dst, s.Evictions)
	dst = binary.LittleEndian.AppendUint64(dst, s.Writebacks)
	return binary.LittleEndian.AppendUint64(dst, s.Prefetches)
}

// AddAccum adds a cache-counter delta blob into s and returns the
// remaining bytes.
func (s *CacheStats) AddAccum(src []byte) []byte {
	s.Lookups += binary.LittleEndian.Uint64(src)
	s.Misses += binary.LittleEndian.Uint64(src[8:])
	s.Evictions += binary.LittleEndian.Uint64(src[16:])
	s.Writebacks += binary.LittleEndian.Uint64(src[24:])
	s.Prefetches += binary.LittleEndian.Uint64(src[32:])
	return src[40:]
}
