// Package canon provides the byte encoding of persisted cell results and
// their statistics tails (see DESIGN.md §6g). Values are fixed-width
// little-endian u64 so encodings are positional: two values are equal
// exactly when their canon byte strings are equal, with no delimiters to
// confuse.
package canon

import "encoding/binary"

// AppendU64 appends v to dst in little-endian order and returns the
// extended slice.
func AppendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// U64 decodes the leading u64 from src and returns it with the remaining
// bytes. Panics if src is short: callers decoding untrusted bytes check
// the length first, so truncation here is a programming error, not input.
func U64(src []byte) (uint64, []byte) {
	if len(src) < 8 {
		panic("canon: truncated blob")
	}
	return binary.LittleEndian.Uint64(src), src[8:]
}
