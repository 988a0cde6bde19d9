package secmem

import (
	"bytes"
	"testing"
	"testing/quick"
)

var (
	testKey16 = []byte("0123456789abcdef")
	testKey32 = []byte("0123456789abcdef0123456789abcdef")
)

func mkBlock(seed byte) []byte {
	b := make([]byte, BlockBytes)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

// newCTR / newXTS are test setup: a constructor failure on a valid key
// is a harness bug, not the property under test.
func newCTR(tb testing.TB) *CTREngine {
	tb.Helper()
	e, err := NewCTREngine(testKey16)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

func newXTS(tb testing.TB) *XTSEngine {
	tb.Helper()
	e, err := NewXTSEngine(testKey32)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

func TestCTRRoundTrip(t *testing.T) {
	e, err := NewCTREngine(testKey16)
	if err != nil {
		t.Fatal(err)
	}
	pt := mkBlock(7)
	ct := e.Apply(0x1000, 5, pt)
	if bytes.Equal(ct, pt) {
		t.Fatal("ciphertext equals plaintext")
	}
	back := e.Apply(0x1000, 5, ct)
	if !bytes.Equal(back, pt) {
		t.Fatal("CTR round trip failed")
	}
}

func TestCTRPadUniqueness(t *testing.T) {
	e := newCTR(t)
	var p1, p2, p3 [BlockBytes]byte
	e.Pad(0x1000, 1, &p1)
	e.Pad(0x1000, 2, &p2) // counter changed
	e.Pad(0x1040, 1, &p3) // address changed
	if p1 == p2 {
		t.Error("pad reuse across counters")
	}
	if p1 == p3 {
		t.Error("pad reuse across addresses")
	}
}

func TestCTRWrongCounterGarbles(t *testing.T) {
	e := newCTR(t)
	pt := mkBlock(3)
	ct := e.Apply(0, 10, pt)
	if bytes.Equal(e.Apply(0, 11, ct), pt) {
		t.Fatal("decryption with wrong counter must not recover plaintext")
	}
}

func TestCTRBadKey(t *testing.T) {
	if _, err := NewCTREngine([]byte("short")); err == nil {
		t.Fatal("short key accepted")
	}
}

func TestCTRBadBlockSizePanics(t *testing.T) {
	e := newCTR(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Apply(0, 0, make([]byte, 10))
}

func TestXTSRoundTrip(t *testing.T) {
	e, err := NewXTSEngine(testKey32)
	if err != nil {
		t.Fatal(err)
	}
	pt := mkBlock(9)
	ct := e.Encrypt(0x40, pt)
	if bytes.Equal(ct, pt) {
		t.Fatal("ciphertext equals plaintext")
	}
	if !bytes.Equal(e.Decrypt(0x40, ct), pt) {
		t.Fatal("XTS round trip failed")
	}
}

func TestXTSAddressTweak(t *testing.T) {
	e := newXTS(t)
	pt := mkBlock(1)
	c1 := e.Encrypt(0, pt)
	c2 := e.Encrypt(64, pt)
	if bytes.Equal(c1, c2) {
		t.Fatal("same plaintext at different addresses must differ (tweak)")
	}
	// Decrypting at the wrong address garbles.
	if bytes.Equal(e.Decrypt(64, c1), pt) {
		t.Fatal("ciphertext moved to another address must not decrypt")
	}
}

func TestXTSDeterministicPerAddress(t *testing.T) {
	// XTS has no counter: same (addr, plaintext) gives same ciphertext.
	// This is exactly why the tree-less scheme needs versioned MACs for
	// replay protection rather than relying on encryption alone.
	e := newXTS(t)
	pt := mkBlock(5)
	if !bytes.Equal(e.Encrypt(0, pt), e.Encrypt(0, pt)) {
		t.Fatal("XTS must be deterministic for fixed (addr, plaintext)")
	}
}

func TestXTSKeySizes(t *testing.T) {
	if _, err := NewXTSEngine(make([]byte, 64)); err != nil {
		t.Errorf("64B key rejected: %v", err)
	}
	if _, err := NewXTSEngine(make([]byte, 48)); err == nil {
		t.Error("48B key accepted")
	}
}

func TestMulAlphaCarry(t *testing.T) {
	// 1 shifted left 128 times wraps to the reduction polynomial 0x87.
	var tw [16]byte
	tw[15] = 0x80
	mulAlpha(&tw)
	if tw[0] != 0x87 {
		t.Errorf("carry reduction byte = %#x, want 0x87", tw[0])
	}
	for i := 1; i < 16; i++ {
		if tw[i] != 0 {
			t.Errorf("byte %d = %#x, want 0", i, tw[i])
		}
	}
	// Simple doubling without carry.
	tw = [16]byte{1}
	mulAlpha(&tw)
	if tw[0] != 2 {
		t.Errorf("doubling: got %#x, want 2", tw[0])
	}
}

func TestMACDetectsEachInput(t *testing.T) {
	m := NewMACEngine(testKey16)
	data := mkBlock(4)
	mac := m.MAC(data, 0x80, 3)

	if !m.Verify(data, 0x80, 3, mac) {
		t.Fatal("valid MAC rejected")
	}
	tampered := mkBlock(4)
	tampered[0] ^= 1
	if m.Verify(tampered, 0x80, 3, mac) {
		t.Error("tampered data accepted")
	}
	if m.Verify(data, 0xC0, 3, mac) {
		t.Error("relocated block accepted")
	}
	if m.Verify(data, 0x80, 2, mac) {
		t.Error("stale version accepted (replay)")
	}
}

// Property: CTR and XTS round-trip for arbitrary blocks and addresses.
func TestRoundTripProperty(t *testing.T) {
	ctr := newCTR(t)
	xts := newXTS(t)
	f := func(seed [BlockBytes]byte, addrRaw uint32, counter uint16) bool {
		addr := uint64(addrRaw) &^ (BlockBytes - 1)
		pt := seed[:]
		if !bytes.Equal(ctr.Apply(addr, uint64(counter), ctr.Apply(addr, uint64(counter), pt)), pt) {
			return false
		}
		return bytes.Equal(xts.Decrypt(addr, xts.Encrypt(addr, pt)), pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: MAC verification accepts the genuine triple and rejects any
// single-field perturbation.
func TestMACProperty(t *testing.T) {
	m := NewMACEngine(testKey32)
	f := func(seed [BlockBytes]byte, addrRaw uint32, ver uint16, flip uint16) bool {
		addr := uint64(addrRaw) &^ (BlockBytes - 1)
		mac := m.MAC(seed[:], addr, uint64(ver))
		if !m.Verify(seed[:], addr, uint64(ver), mac) {
			return false
		}
		mut := seed
		mut[flip%BlockBytes] ^= 1 << (flip % 8)
		if flip%8 == 0 && mut == seed { // degenerate: xor with 1 always changes, keep for clarity
			return true
		}
		return !m.Verify(mut[:], addr, uint64(ver), mac) &&
			!m.Verify(seed[:], addr+BlockBytes, uint64(ver), mac) &&
			!m.Verify(seed[:], addr, uint64(ver)+1, mac)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestMACStateReuse pins the reused-HMAC-state optimisation: an engine that
// has already produced MACs (interleaved with Verify calls)
// returns byte-identical MACs to a freshly constructed engine for the same
// inputs, and calls are insensitive to their ordering.
func TestMACStateReuse(t *testing.T) {
	reused := NewMACEngine(testKey32)
	inputs := []struct {
		seed    byte
		addr, v uint64
	}{
		{1, 0x0, 0}, {2, 0x40, 7}, {3, 0x1000, 1 << 40}, {1, 0x0, 0},
		{9, 0xdeadbe00, ^uint64(0) - 1}, {2, 0x40, 7},
	}
	var first [][MACBytes]byte
	for _, in := range inputs {
		blk := mkBlock(in.seed)
		mac := reused.MAC(blk, in.addr, in.v)
		first = append(first, mac)
		if !reused.Verify(blk, in.addr, in.v, mac) {
			t.Fatalf("reused engine rejects its own MAC for seed %d", in.seed)
		}
	}
	for i, in := range inputs {
		fresh := NewMACEngine(testKey32)
		if got := fresh.MAC(mkBlock(in.seed), in.addr, in.v); got != first[i] {
			t.Errorf("input %d: fresh engine MAC %x != reused engine MAC %x", i, got, first[i])
		}
		if got := reused.MAC(mkBlock(in.seed), in.addr, in.v); got != first[i] {
			t.Errorf("input %d: re-MAC on reused engine %x != first pass %x", i, got, first[i])
		}
	}
}
