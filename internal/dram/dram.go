// Package dram models the off-chip memory interface as the paper does
// (Sec. V-A): a simple bandwidth-capped bus with a fixed access latency
// (100 cycles, after NeuMMU). The bus is the shared, serializing resource:
// every 64B beat — tensor data or security metadata — occupies it for
// bytes/bandwidth cycles, so metadata traffic directly steals bandwidth
// from tensor transfers. Multiple NPUs share one Bus, which yields the
// round-robin bandwidth sharing used in the scalability study (Sec. V-C).
package dram

import (
	"fmt"
)

// BlockBytes is the memory block (cache line) granularity used throughout
// the protection schemes: MACs, counters, and transfers are all managed in
// 64-byte units.
const BlockBytes = 64

// Config describes one memory interface.
type Config struct {
	// FreqHz is the clock the simulator counts cycles in (processor and
	// memory share a clock in the paper's Table II).
	FreqHz uint64
	// BandwidthBytesPerSec is the peak aggregate DRAM bandwidth.
	BandwidthBytesPerSec uint64
	// LatencyCycles is the fixed DRAM access latency applied to the first
	// beat of a transfer and to serialized metadata fetches.
	LatencyCycles uint64
	// Channels splits the bandwidth across independent channels with
	// block-interleaved addressing (Table II lists 4). The default (0/1)
	// models the aggregate as one bus — a good approximation for
	// streaming; >1 lets metadata fetches overlap data on other channels
	// and is exposed as an ablation.
	Channels int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.FreqHz == 0 || c.BandwidthBytesPerSec == 0 {
		return fmt.Errorf("dram: frequency and bandwidth must be positive, got %+v", c)
	}
	return nil
}

// CyclesPerByte returns the rational bus occupancy per byte (num/den).
func (c Config) CyclesPerByte() (num, den uint64) {
	g := gcd(c.FreqHz, c.BandwidthBytesPerSec)
	return c.FreqHz / g, c.BandwidthBytesPerSec / g
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Bus is a work-conserving memory bus. Callers present a ready time; the
// bus charges bytes at the configured bandwidth, serving at the earliest
// opportunity — including idle gaps left behind when a dependency chain
// (e.g. a serialized tree walk) arrived with a future ready time. The gap
// backfill models a memory controller whose request queue keeps the bus
// busy with other clients' requests during such stalls. Sub-cycle
// remainders are carried exactly so long streams are charged the true
// rational cost.
type Bus struct {
	latency uint64
	// aggNum/aggDen is the aggregate (whole-interface) cycles-per-byte
	// rational, before the bandwidth is split across channels.
	aggNum, aggDen uint64
	chans          []channel
	// round is the channel half a contended round holds (BeginRound).
	round ChannelRun
}

// channel is one independently scheduled slice of the bandwidth.
type channel struct {
	num, den uint64
	// bq and br are one block's whole cycles and leftover numerator,
	// BlockBytes*num = bq*den + br, so a one-block charge needs no division.
	bq, br     uint64
	busyUntil  uint64
	rem        uint64 // carried numerator remainder, < den
	bytesMoved uint64
	busyCycles uint64
	// gapList holds the idle [start,end) windows behind busyUntil and
	// their first-fit index (gaps.go).
	gapList
}

// NewBus constructs a bus from cfg. It panics on invalid configuration
// because configs are compile-time constants in this simulator.
func NewBus(cfg Config) *Bus {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Channels
	if n < 1 {
		n = 1
	}
	num, den := cfg.CyclesPerByte()
	g := gcd(num*uint64(n), den)
	b := &Bus{latency: cfg.LatencyCycles, aggNum: num, aggDen: den, chans: make([]channel, n)}
	for i := range b.chans {
		// Each channel serves 1/n of the bandwidth: n x the cycles/byte.
		c := channel{num: num * uint64(n) / g, den: den / g}
		c.bq, c.br = BlockBytes*c.num/c.den, BlockBytes*c.num%c.den
		b.chans[i] = c
	}
	return b
}

// route maps a block address to its interleaved channel.
func (b *Bus) route(addr uint64) *channel {
	if len(b.chans) == 1 {
		return &b.chans[0]
	}
	return &b.chans[(addr/BlockBytes)%uint64(len(b.chans))]
}

// BlockCycles returns the whole cycles one block transfer occupies its
// channel, rounded down: the per-block cost floor. A floor of at least one
// cycle means a block issued at r always clears its channel after r.
func (b *Bus) BlockCycles() uint64 { return b.chans[0].bq }

// Latency returns the fixed DRAM access latency in cycles.
func (b *Bus) Latency() uint64 { return b.latency }

// Transfer occupies the bus for bytes starting no earlier than ready, and
// returns the cycle at which the last byte has crossed the bus. It does NOT
// include DRAM access latency; callers add Latency() where an access is on
// a dependence chain (first beat of a read, serialized metadata fetch).
// Requests whose ready time precedes the bus horizon are backfilled into
// remembered idle gaps when they fit. Transfer serves from the channel
// owning address 0; multi-channel callers use TransferAt.
func (b *Bus) Transfer(ready, bytes uint64) (done uint64) {
	return b.chans[0].transfer(ready, bytes)
}

// TransferAt is the address-routed Transfer for multi-channel interfaces.
func (b *Bus) TransferAt(ready, addr, bytes uint64) (done uint64) {
	return b.route(addr).transfer(ready, bytes)
}

// ReadAt is the address-routed Read.
func (b *Bus) ReadAt(ready, addr, bytes uint64) (dataAt uint64) {
	return b.route(addr).transfer(ready, bytes) + b.latency
}

func (c *channel) transfer(ready, bytes uint64) (done uint64) {
	var cycles uint64
	switch bytes {
	case BlockBytes:
		// The common one-block charge: bq + (br+rem)/den, where the carry
		// is 0 or 1 because br and rem are both below den.
		cycles = c.bq
		if c.rem += c.br; c.rem >= c.den {
			c.rem -= c.den
			cycles++
		}
	case 0:
		// A zero-length transfer never occupies the bus: it completes at
		// ready without advancing the horizon, opening a phantom idle gap,
		// or disturbing the carried remainder.
		return ready
	default:
		ticks := bytes*c.num + c.rem
		cycles = ticks / c.den
		c.rem = ticks % c.den
	}
	c.bytesMoved += bytes
	c.busyCycles += cycles

	// Try to serve inside an idle gap. Skipped outright when ready is past
	// every gap's end — such a request starts after every gap closes and
	// cannot fit inside one (a zero-cycle transfer can still land exactly
	// at a gap's end, hence <=).
	if ready <= c.maxGapEnd {
		if i := c.fitGap(ready, cycles); i >= 0 {
			return c.takeGap(i, ready, cycles)
		}
	}

	start := ready
	if c.busyUntil > start {
		start = c.busyUntil
	} else if start > c.busyUntil {
		// Record the idle window we are skipping over.
		c.recordGap(c.busyUntil, start)
	}
	c.busyUntil = start + cycles
	return c.busyUntil
}

// Read models a latency-bound read: the bus is occupied as in Transfer and
// the completion time additionally includes the DRAM access latency, i.e.
// when the data is usable by dependent work.
func (b *Bus) Read(ready, bytes uint64) (dataAt uint64) {
	return b.Transfer(ready, bytes) + b.latency
}

// Now returns the bus's latest channel horizon.
func (b *Bus) Now() uint64 {
	var max uint64
	for i := range b.chans {
		if b.chans[i].busyUntil > max {
			max = b.chans[i].busyUntil
		}
	}
	return max
}

// BytesMoved returns the cumulative bytes served across channels.
func (b *Bus) BytesMoved() uint64 {
	var sum uint64
	for i := range b.chans {
		sum += b.chans[i].bytesMoved
	}
	return sum
}

// BusyCycles returns cycles the channels spent transferring.
func (b *Bus) BusyCycles() uint64 {
	var sum uint64
	for i := range b.chans {
		sum += b.chans[i].busyCycles
	}
	return sum
}

// Channels returns the channel count.
func (b *Bus) Channels() int { return len(b.chans) }

// Utilization returns busy/(horizon*channels), or 0 before any traffic.
func (b *Bus) Utilization() float64 {
	now := b.Now()
	if now == 0 {
		return 0
	}
	return float64(b.BusyCycles()) / (float64(now) * float64(len(b.chans)))
}

// CyclesForBytes returns the pure aggregate-bandwidth cost of moving
// bytes, rounded up, without touching bus state. It uses the whole
// interface's rate: on an n-channel bus each channel serves 1/n of the
// bandwidth, so quoting channel 0's per-channel rate would overstate the
// cost by a factor of n.
func (b *Bus) CyclesForBytes(bytes uint64) uint64 {
	return (bytes*b.aggNum + b.aggDen - 1) / b.aggDen
}
