package memprot

import (
	"fmt"
	"reflect"
	"testing"

	"tnpu/internal/cache"
	"tnpu/internal/dram"
	"tnpu/internal/isa"
)

// refRun is the per-block loop the Engine run methods document: the
// stream's blocks through ReadBlock/WriteBlock under the issue window,
// stopped after the first block whose next issue time reaches horizon.
func refRun(e Engine, write bool, ready uint64, s *Stream, w *dram.IssueWindow, horizon uint64) (nextReady, maxDataAt uint64, served int) {
	return runPerBlock(e, !write, ready, s, 1, w, horizon)
}

// streamOf returns the whole of a DMA instruction over segs.
func streamOf(segs []isa.Segment, write bool) Stream {
	var s Stream
	s.Reset(segs, 0, write)
	return s
}

// engineState is everything a run can change, in comparable form.
type engineState struct {
	engine any      // the engine struct; its caches and bus via their pointers
	window []uint64 // the issue window's outstanding clear times
}

// horizonState captures everything a run can change: a copy of the engine
// struct, whose caches (tags, dirty bits, LRU order, statistics), walk
// MSHRs, minors map, traffic and bus channels reflect.DeepEqual reaches
// through their pointers, and the issue window's outstanding clear times.
// The per-call scratch fields (the MAC-line sweep resolvers) hold nothing
// between calls and are cleared.
func horizonState(e Engine, w *dram.IssueWindow) engineState {
	var v any
	switch e := e.(type) {
	case *baseline:
		c := *e
		c.sweep = cache.Sweep{}
		v = c
	case *treeless:
		c := *e
		c.sweep = cache.Sweep{}
		v = c
	case *unsecure:
		v = *e
	case *encryptOnly:
		v = *e
	default:
		panic(fmt.Sprintf("horizonState: unknown engine %T", e))
	}
	return engineState{v, w.Clears(nil)}
}

// horizonRig builds an engine on a fresh bus and drives it into a
// contended-looking state: a co-tenant region fills the MAC (and counter)
// caches with dirty lines so the run's lines miss with writebacks, and, for
// wrap cases, three of the run's blocks are written 127 times so a
// baseline write run wraps their minor counters mid-chunk.
func horizonRig(t *testing.T, scheme Scheme, mem dram.Config, odd bool, runAddr uint64, wrap bool) (Engine, *dram.IssueWindow, uint64) {
	t.Helper()
	cfg := DefaultConfig(dram.NewBus(mem))
	if odd {
		cfg.MACSlotBytes, cfg.TreeArity = 12, 8
	}
	e, err := New(scheme, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var at uint64
	const coTenant = 64 << 20
	for i := uint64(0); i < 1200; i++ {
		at, _ = e.WriteBlock(at, coTenant+i*dram.BlockBytes, 1)
	}
	if wrap {
		for k := 0; k < 127; k++ {
			for b := uint64(9); b < 12; b++ {
				at, _ = e.WriteBlock(at, runAddr+b*dram.BlockBytes, 1)
			}
		}
	}
	return e, dram.NewIssueWindow(16), at + 50
}

// TestRunHorizonStop pins the contended run path: a finite-horizon
// ReadRun/WriteRun must serve exactly the blocks the per-block loop serves
// before it stops, and leave bus, window, caches, traffic and returned
// times identical to that loop. Every stop point over the first 80 blocks
// of a misaligned 200-block stream is tried — stops on MAC-line and
// counter-line boundary blocks and just before them — on all four engines,
// reads and writes, on the Small and Large buses, a 2-channel bus, and an
// 8-ary counter tree under 12-byte MAC slots, whose MAC lines straddle
// counter-line boundaries. The stream is one segment, or three: the first
// ends inside a MAC line, the second on a counter-line boundary, and the
// addresses jump between them, so the stops also land on either side of
// each segment end. A co-tenant block then lands between the stop and the
// rest of the stream, so the next call's first block must take a full
// metadata access. The wrap cases stop around a baseline write chunk that
// wraps minor counters.
func TestRunHorizonStop(t *testing.T) {
	small := dram.Config{FreqHz: 2_750_000_000, BandwidthBytesPerSec: 11_000_000_000, LatencyCycles: 100}
	large := dram.Config{FreqHz: 1_000_000_000, BandwidthBytesPerSec: 22_000_000_000, LatencyCycles: 100}
	twoCh := large
	twoCh.Channels = 2
	mems := []struct {
		name string
		mem  dram.Config
		odd  bool // 8-ary tree, 12-byte MAC slots
	}{{"small", small, false}, {"large", large, false}, {"2ch", twoCh, false}, {"small-arity8-mac12", small, true}}
	const (
		blk     = dram.BlockBytes
		n       = 200
		runAddr = 16<<20 + 3*blk // MAC boundaries at stream blocks 5, 13, ...; counter boundary at 61
		stops   = 80
	)
	shapes := []struct {
		name string // subtest name prefix
		segs []isa.Segment
	}{
		{"", []isa.Segment{{Addr: runAddr, Bytes: n * blk}}},
		// Segment ends after stream blocks 37 (block 41 of its region, one
		// into a MAC line) and 71 (block 64 of its region, a counter-line
		// boundary at arity 64 and 8).
		{"three-segments/", []isa.Segment{
			{Addr: runAddr, Bytes: 38 * blk},
			{Addr: 20<<20 + 30*blk, Bytes: 34 * blk},
			{Addr: 24<<20 + 5*blk, Bytes: (n - 72) * blk},
		}},
	}
	for _, sh := range shapes {
		for _, mc := range mems {
			for _, scheme := range AllSchemes() {
				for _, write := range []bool{false, true} {
					for _, wrap := range []bool{false, true} {
						if wrap && (!write || scheme != Baseline) {
							continue
						}
						name := fmt.Sprintf("%s%s/%s/write=%v/wrap=%v", sh.name, mc.name, scheme, write, wrap)
						t.Run(name, func(t *testing.T) {
							testHorizonStops(t, scheme, mc.mem, mc.odd, streamOf(sh.segs, write), wrap, stops)
						})
					}
				}
			}
		}
	}
}

// testHorizonStops runs the stream under every horizon that stops it after
// one of its first stops blocks, and without one, against the per-block
// loop; a stopped run then resumes after a co-tenant block.
func testHorizonStops(t *testing.T, scheme Scheme, mem dram.Config, odd bool, s Stream, wrap bool, stops int) {
	t.Helper()
	runAddr := s.Addr
	// The reference loop's issue times pick each horizon: issue[k] is the
	// next issue time after k+1 blocks.
	probe, pw, ready := horizonRig(t, scheme, mem, odd, runAddr, wrap)
	issue := make([]uint64, 0, stops)
	r := ready
	one := s
	for k := 0; k < stops; k++ {
		blockOnly := one
		blockOnly.Left = 1
		r, _, _ = refRun(probe, s.Write, r, &blockOnly, pw, dram.NoHorizon)
		issue = append(issue, r)
		one.Advance(1)
	}
	for k := 0; k <= stops; k++ {
		horizon := dram.NoHorizon
		if k < stops {
			horizon = issue[k]
		}
		fast, fw, _ := horizonRig(t, scheme, mem, odd, runAddr, wrap)
		ref, rw, _ := horizonRig(t, scheme, mem, odd, runAddr, wrap)
		run := fast.ReadRun
		if s.Write {
			run = fast.WriteRun
		}
		fn, fd, fs := run(ready, &s, 1, fw, horizon)
		rn, rd, rs := refRun(ref, s.Write, ready, &s, rw, horizon)
		if fn != rn || fd != rd || fs != rs {
			t.Fatalf("stop %d: run = (next %d, dataAt %d, served %d), per-block = (%d, %d, %d)", k, fn, fd, fs, rn, rd, rs)
		}
		if want := k + 1; k < stops && fs != want {
			t.Fatalf("stop %d: served %d blocks, want %d", k, fs, want)
		}
		if !reflect.DeepEqual(horizonState(fast, fw), horizonState(ref, rw)) {
			t.Fatalf("stop %d: state after the stopped run diverges from the per-block loop", k)
		}
		if fs == s.Left {
			continue
		}
		// A co-tenant block, then the rest of the stream.
		fast.ReadBlock(fn, 64<<20, 1)
		ref.ReadBlock(rn, 64<<20, 1)
		rest := s
		rest.Advance(fs)
		fn, fd, fs = run(fn+1, &rest, 1, fw, dram.NoHorizon)
		rn, rd, rs = refRun(ref, s.Write, rn+1, &rest, rw, dram.NoHorizon)
		if fn != rn || fd != rd || fs != rs {
			t.Fatalf("stop %d, resumed: run = (%d, %d, %d), per-block = (%d, %d, %d)", k, fn, fd, fs, rn, rd, rs)
		}
		if !reflect.DeepEqual(horizonState(fast, fw), horizonState(ref, rw)) {
			t.Fatalf("stop %d: state after the resumed run diverges from the per-block loop", k)
		}
	}
}
