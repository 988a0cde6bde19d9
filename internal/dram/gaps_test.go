package dram

import "testing"

// scanChannel is the list-scan channel the gap index replaced, kept as the
// reference: the same charge arithmetic, gap list, capacity, oldest-first
// eviction and split-append, with a linear first-fit scan over every
// remembered gap.
type scanChannel struct {
	num, den, bq, br uint64
	busyUntil, rem   uint64
	gaps             []gap
	maxGapEnd        uint64
}

func newScanChannel(c *channel) *scanChannel {
	return &scanChannel{num: c.num, den: c.den, bq: c.bq, br: c.br}
}

func (c *scanChannel) transfer(ready, bytes uint64) (done uint64) {
	var cycles uint64
	switch bytes {
	case BlockBytes:
		cycles = c.bq
		if c.rem += c.br; c.rem >= c.den {
			c.rem -= c.den
			cycles++
		}
	case 0:
		return ready
	default:
		ticks := bytes*c.num + c.rem
		cycles = ticks / c.den
		c.rem = ticks % c.den
	}
	if ready <= c.maxGapEnd {
		for i := range c.gaps {
			g := &c.gaps[i]
			start := ready
			if g.start > start {
				start = g.start
			}
			if start+cycles <= g.end {
				end := start + cycles
				switch {
				case start == g.start && end == g.end:
					c.gaps = append(c.gaps[:i], c.gaps[i+1:]...)
				case start == g.start:
					g.start = end
				case end == g.end:
					g.end = start
				default:
					later := gap{end, g.end}
					g.end = start
					if len(c.gaps) < maxGaps {
						c.gaps = append(c.gaps, later)
					}
				}
				return end
			}
		}
	}
	start := ready
	if c.busyUntil > start {
		start = c.busyUntil
	} else if start > c.busyUntil {
		if len(c.gaps) == maxGaps {
			c.gaps = c.gaps[1:]
		}
		c.gaps = append(c.gaps, gap{c.busyUntil, start})
		if start > c.maxGapEnd {
			c.maxGapEnd = start
		}
	}
	c.busyUntil = start + cycles
	return c.busyUntil
}

// holdsBlock is the scan form of the closed-form admission's gap test:
// can any remembered gap hold a bq-cycle block presented at ready?
func (c *scanChannel) holdsBlock(ready uint64) bool {
	for _, g := range c.gaps {
		s := g.start
		if ready > s {
			s = ready
		}
		if s+c.bq <= g.end {
			return true
		}
	}
	return false
}

// checkGapIndex verifies c's index masks against the list they summarize.
func checkGapIndex(t *testing.T, c *channel) {
	t.Helper()
	var q, q1 uint64
	for i, g := range c.gaps {
		if g.end <= g.start {
			t.Fatalf("gap %d is empty: %+v", i, g)
		}
		if n := g.end - g.start; n >= c.bq {
			q |= 1 << i
			if n > c.bq {
				q1 |= 1 << i
			}
		}
	}
	if q != c.fitQ || q1 != c.fitQ1 {
		t.Fatalf("index masks %064b/%064b, list says %064b/%064b", c.fitQ, c.fitQ1, q, q1)
	}
	if len(c.gaps) > maxGaps {
		t.Fatalf("gap list holds %d entries, capacity %d", len(c.gaps), maxGaps)
	}
}

// gapOp encodes one FuzzGapIndexVsScan operation: a size selector (0:
// zero bytes, 1-3: one block, 4: multi-block burst, 5: odd byte count) and
// a placement (0: d cycles past the horizon, opening a d-cycle gap; 1:
// d*7 cycles behind it; 2: d/256 of the way to it; 3: offset d into
// remembered gap sel/32).
func gapOp(size, place, d byte) []byte { return []byte{size | place<<3, d} }

// gapSeed builds a fuzz input for rate index rate from ops.
func gapSeed(rate byte, ops ...[]byte) []byte {
	in := []byte{rate}
	for _, op := range ops {
		in = append(in, op...)
	}
	return in
}

// FuzzGapIndexVsScan is the twin-channel differential for the gap index:
// one channel serves each transfer through the indexed first fit, its twin
// through the list scan, and the returned time, the full gap list (start,
// end and order), the horizon, the carried remainder and the closed-form
// admission's gap test must agree after every operation. Transfers are
// zero-byte, one-block (both block costs on the Large and 3 GHz / 7 GB/s
// rates), multi-block bursts including the 8256-byte minor-wrap burst,
// and odd sizes, presented ahead of the horizon (opening gaps of any
// length, sub-block fragments included), behind it, and inside a chosen
// remembered gap (splits). The seeds fill the list with sub-block
// fragments, split a gap at capacity so the later half is dropped, evict
// at 64 entries, and backfill charges shorter than bq into a fragment.
func FuzzGapIndexVsScan(f *testing.F) {
	f.Add([]byte{})
	// A list full of sub-block fragments (evicting past 64), then
	// one-block charges behind the horizon that must skip every one.
	frags := [][]byte{gapOp(1, 0, 0)}
	for i := 0; i < 70; i++ {
		frags = append(frags, gapOp(1, 0, 1+byte(i%15)))
	}
	for i := 0; i < 8; i++ {
		frags = append(frags, gapOp(1, 1, 3+byte(i)))
	}
	f.Add(gapSeed(0, frags...))
	// One long gap at the front, 63 fragments behind it, then a charge in
	// the middle of the long gap: the split's later half is dropped.
	split := [][]byte{gapOp(1, 0, 0), gapOp(1, 0, 200)}
	for i := 0; i < 63; i++ {
		split = append(split, gapOp(1, 0, 1))
	}
	split = append(split, gapOp(1, 3, 50), gapOp(1, 3, 0), gapOp(4, 1, 9))
	f.Add(gapSeed(0, split...))
	// Eviction at 64 on Large: gaps of exactly bq, bq+1 and longer, then
	// backfills of both block costs, bursts and a zero-byte probe.
	evict := [][]byte{gapOp(1, 0, 0)}
	for i := 0; i < 72; i++ {
		evict = append(evict, gapOp(1, 0, 2+byte(i%4)))
	}
	for i := 0; i < 24; i++ {
		evict = append(evict, gapOp(2, 2, byte(37*i)), gapOp(3, 3|byte(i%8)<<2, byte(i%3)))
	}
	evict = append(evict, gapOp(0, 1, 4), gapOp(4, 3, 1), gapOp(5, 1, 77))
	f.Add(gapSeed(1, evict...))
	// Charges shorter than bq (zero cycles, then one cycle, on Small where
	// bq is 16) backfilled into a 5-cycle fragment no block can use, the
	// second splitting it.
	f.Add(gapSeed(0, gapOp(1, 0, 0), gapOp(1, 0, 5), gapOp(5, 3, 0), gapOp(5, 3, 1)))
	// The awkward rate with the minor-wrap burst between one-block charges.
	f.Add(gapSeed(2, gapOp(4, 0, 40), gapOp(1, 0, 9), gapOp(4, 0, 3), gapOp(2, 1, 30), gapOp(3, 3, 2), gapOp(1, 2, 128)))

	f.Fuzz(func(t *testing.T, data []byte) {
		fb := &fuzzBytes{data: data}
		awkward := Config{FreqHz: 3_000_000_000, BandwidthBytesPerSec: 7_000_000_000, LatencyCycles: 10}
		cfg := []Config{smallCfg, largeCfg, awkward}[fb.byte()%3]
		c := &NewBus(cfg).chans[0]
		ref := newScanChannel(c)
		for op := 0; fb.more(); op++ {
			sel, d := fb.byte(), uint64(fb.byte())
			var bytes uint64
			switch sel & 7 {
			case 0:
				bytes = 0
			case 1, 2, 3:
				bytes = BlockBytes
			case 4:
				bytes = []uint64{2 * BlockBytes, 8256, 16 * BlockBytes, 129 * BlockBytes}[d%4]
			default:
				bytes = 1 + 3*d
			}
			ready := ref.busyUntil
			switch sel >> 3 & 3 {
			case 0:
				ready += d
			case 1:
				if back := 7 * d; back < ready {
					ready -= back
				} else {
					ready = 0
				}
			case 2:
				ready = ready * d / 256
			default:
				if n := len(ref.gaps); n > 0 {
					ready = ref.gaps[int(sel>>5)%n].start + d
				}
			}
			got, want := c.transfer(ready, bytes), ref.transfer(ready, bytes)
			if got != want {
				t.Fatalf("op %d: transfer(%d, %dB) = %d, list scan %d", op, ready, bytes, got, want)
			}
			if c.busyUntil != ref.busyUntil || c.rem != ref.rem {
				t.Fatalf("op %d: horizon/remainder %d/%d, list scan %d/%d", op, c.busyUntil, c.rem, ref.busyUntil, ref.rem)
			}
			if len(c.gaps) != len(ref.gaps) {
				t.Fatalf("op %d: %d gaps, list scan %d:\n index: %v\n scan:  %v", op, len(c.gaps), len(ref.gaps), c.gaps, ref.gaps)
			}
			for i := range c.gaps {
				if c.gaps[i] != ref.gaps[i] {
					t.Fatalf("op %d: gap %d = %+v, list scan %+v", op, i, c.gaps[i], ref.gaps[i])
				}
			}
			checkGapIndex(t, c)
			if got, want := c.holdsBlock(ready), ref.holdsBlock(ready); got != want {
				t.Fatalf("op %d: holdsBlock(%d) = %v, list scan %v (gaps %v)", op, ready, got, want, ref.gaps)
			}
		}
	})
}
