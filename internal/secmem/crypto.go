// Package secmem provides the functional cryptography used by both memory
// protection schemes in TNPU:
//
//   - Counter-mode (CTR) one-time-pad encryption, used by the tree-based
//     baseline (Fig. 1): OTP = AES_K(address ‖ counter), C = P ⊕ OTP.
//   - AES-XTS, used by the tree-less scheme for the NPU memory region
//     (Sec. IV-C), matching Intel TME-style counter-less encryption.
//   - 8-byte truncated HMAC-SHA256 MACs keyed over (data, address,
//     version), the integrity primitive of the tree-less scheme.
//
// Everything operates on 64-byte memory blocks — the protection granularity
// used throughout the paper. These are real cryptographic operations (Go
// stdlib AES/SHA-256), so the security-property tests exercise the same
// checks the proposed hardware performs, not mocks.
package secmem

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
)

// BlockBytes is the protected memory block size.
const BlockBytes = 64

// MACBytes is the per-block MAC size (8B per 64B block, Sec. IV-C).
const MACBytes = 8

// aesBlock is the AES cipher block size.
const aesBlock = 16

// CTREngine implements counter-mode encryption with a per-block counter,
// as used by the baseline tree-based scheme. Encryption and decryption are
// the same XOR operation.
type CTREngine struct {
	block cipher.Block
}

// NewCTREngine creates a counter-mode engine from a 16/24/32-byte AES key.
func NewCTREngine(key []byte) (*CTREngine, error) {
	b, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("secmem: ctr key: %w", err)
	}
	return &CTREngine{block: b}, nil
}

// Pad writes the 64-byte one-time pad for (addr, counter) into out. The pad
// is four AES blocks of AES_K(addr ‖ counter ‖ chunkIndex), so every
// (address, counter) pair yields a unique pad — the property that makes
// counter reuse detectable and pad reuse impossible while counters advance.
func (e *CTREngine) Pad(addr, counter uint64, out *[BlockBytes]byte) {
	var seed [aesBlock]byte
	binary.LittleEndian.PutUint64(seed[0:8], addr)
	for i := 0; i < BlockBytes/aesBlock; i++ {
		binary.LittleEndian.PutUint64(seed[8:16], counter<<2|uint64(i))
		e.block.Encrypt(out[i*aesBlock:(i+1)*aesBlock], seed[:])
	}
}

// Apply XORs the pad for (addr, counter) into the 64-byte data block,
// performing encryption or decryption in place on the returned copy.
func (e *CTREngine) Apply(addr, counter uint64, data []byte) []byte {
	if len(data) != BlockBytes {
		panic(fmt.Sprintf("secmem: CTR block must be %dB, got %d", BlockBytes, len(data)))
	}
	var pad [BlockBytes]byte
	e.Pad(addr, counter, &pad)
	out := make([]byte, BlockBytes)
	for i := range out {
		out[i] = data[i] ^ pad[i]
	}
	return out
}

// XTSEngine implements AES-XTS over 64-byte blocks: the counter-less
// encryption the tree-less scheme uses for the bulk NPU memory. The tweak
// is derived from the block address, so identical plaintext at different
// addresses yields different ciphertext, with no per-block counter state.
type XTSEngine struct {
	data  cipher.Block // K1: data encryption
	tweak cipher.Block // K2: tweak encryption
}

// NewXTSEngine creates an XTS engine from a 32-byte key (split into two
// 16-byte AES-128 keys) or a 64-byte key (two AES-256 keys).
func NewXTSEngine(key []byte) (*XTSEngine, error) {
	if len(key) != 32 && len(key) != 64 {
		return nil, fmt.Errorf("secmem: xts key must be 32 or 64 bytes, got %d", len(key))
	}
	half := len(key) / 2
	k1, err := aes.NewCipher(key[:half])
	if err != nil {
		return nil, fmt.Errorf("secmem: xts data key: %w", err)
	}
	k2, err := aes.NewCipher(key[half:])
	if err != nil {
		return nil, fmt.Errorf("secmem: xts tweak key: %w", err)
	}
	return &XTSEngine{data: k1, tweak: k2}, nil
}

// mulAlpha multiplies a 16-byte value by α (x) in GF(2^128) with the XTS
// primitive polynomial x^128 + x^7 + x^2 + x + 1, little-endian bit order
// as specified by IEEE 1619.
func mulAlpha(t *[aesBlock]byte) {
	carry := byte(0)
	for i := 0; i < aesBlock; i++ {
		next := t[i] >> 7
		t[i] = t[i]<<1 | carry
		carry = next
	}
	if carry != 0 {
		t[0] ^= 0x87
	}
}

// tweakFor computes the initial tweak T = AES_K2(blockAddr) for the 64-byte
// block at addr.
func (e *XTSEngine) tweakFor(addr uint64) [aesBlock]byte {
	var sector, t [aesBlock]byte
	binary.LittleEndian.PutUint64(sector[:8], addr/BlockBytes)
	e.tweak.Encrypt(t[:], sector[:])
	return t
}

// Encrypt encrypts a 64-byte block located at addr.
func (e *XTSEngine) Encrypt(addr uint64, plaintext []byte) []byte {
	return e.apply(addr, plaintext, true)
}

// Decrypt decrypts a 64-byte block located at addr.
func (e *XTSEngine) Decrypt(addr uint64, ciphertext []byte) []byte {
	return e.apply(addr, ciphertext, false)
}

func (e *XTSEngine) apply(addr uint64, data []byte, encrypt bool) []byte {
	if len(data) != BlockBytes {
		panic(fmt.Sprintf("secmem: XTS block must be %dB, got %d", BlockBytes, len(data)))
	}
	t := e.tweakFor(addr)
	out := make([]byte, BlockBytes)
	var buf [aesBlock]byte
	for i := 0; i < BlockBytes/aesBlock; i++ {
		chunk := data[i*aesBlock : (i+1)*aesBlock]
		for j := 0; j < aesBlock; j++ {
			buf[j] = chunk[j] ^ t[j]
		}
		if encrypt {
			e.data.Encrypt(buf[:], buf[:])
		} else {
			e.data.Decrypt(buf[:], buf[:])
		}
		for j := 0; j < aesBlock; j++ {
			out[i*aesBlock+j] = buf[j] ^ t[j]
		}
		mulAlpha(&t)
	}
	return out
}

// MACEngine computes the per-block MACs of the tree-less scheme: an 8-byte
// truncation of HMAC-SHA256 over (block content ‖ block address ‖ version
// number), exactly the three inputs of Fig. 12. A mismatch on verify means
// at least one of the three was forged: tampered data, relocated block, or
// replayed (stale-version) data.
//
// The engine holds one resettable HMAC state, so a MAC costs two SHA-256
// block compressions instead of re-deriving the keyed inner/outer pads from
// scratch per call. A MACEngine is therefore NOT safe for concurrent use;
// callers that MAC from multiple goroutines (e.g. the attack campaign
// runner) must create one engine per goroutine.
//
//tnpu:per-goroutine
type MACEngine struct {
	key []byte
	h   hash.Hash // resettable HMAC-SHA256 state keyed on key
	sum [sha256.Size]byte
}

// NewMACEngine creates a MAC engine; the key is copied.
func NewMACEngine(key []byte) *MACEngine {
	k := make([]byte, len(key))
	copy(k, key)
	return &MACEngine{key: k, h: hmac.New(sha256.New, k)}
}

// MAC returns the 8-byte MAC for a 64-byte block.
func (m *MACEngine) MAC(data []byte, addr, version uint64) [MACBytes]byte {
	if len(data) != BlockBytes {
		panic(fmt.Sprintf("secmem: MAC block must be %dB, got %d", BlockBytes, len(data)))
	}
	m.h.Reset()
	m.h.Write(data)
	var meta [16]byte
	binary.LittleEndian.PutUint64(meta[0:8], addr)
	binary.LittleEndian.PutUint64(meta[8:16], version)
	m.h.Write(meta[:])
	var out [MACBytes]byte
	copy(out[:], m.h.Sum(m.sum[:0]))
	return out
}

// Verify recomputes the MAC and compares in constant time.
func (m *MACEngine) Verify(data []byte, addr, version uint64, mac [MACBytes]byte) bool {
	want := m.MAC(data, addr, version)
	return hmac.Equal(want[:], mac[:])
}
