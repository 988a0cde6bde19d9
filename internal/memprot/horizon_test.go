package memprot

import (
	"bytes"
	"fmt"
	"testing"

	"tnpu/internal/dram"
)

// refRun is the per-block loop RunEngine documents: blocks through
// ReadBlock/WriteBlock under the issue window, stopped after the first
// block whose next issue time reaches horizon.
func refRun(e Engine, write bool, ready, addr uint64, n int, w *dram.IssueWindow, horizon uint64) (nextReady, maxDataAt uint64, served int) {
	return runPerBlock(e, !write, ready, addr, 1, n, w, horizon)
}

// horizonState renders everything a run can change: the engine's caches,
// walk MSHRs, minor-counter digest and bus state (AppendCanon), its
// traffic, cache statistics and bus counters (AppendAccum), and the issue
// window ring.
func horizonState(e Engine, w *dram.IssueWindow) []byte {
	ls := e.(LayerState)
	st := ls.AppendAccum(ls.AppendCanon(nil, 0))
	return w.AppendCanon(st, 0)
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
	e.(LayerState).BeginLayer() // arm the baseline minors digest, which AppendCanon compares
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
// of a misaligned 200-block run is tried — stops on MAC-line and
// counter-line boundary blocks and just before them — on all four engines,
// reads and writes, on the Small and Large buses, a 2-channel bus, and an
// 8-ary counter tree under 12-byte MAC slots, whose MAC lines straddle
// counter-line boundaries. A
// co-tenant block then lands between the stop and the rest of the run, so
// the next call's first block must take a full metadata access. The wrap
// cases stop around a baseline write chunk that wraps minor counters.
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
		n       = 200
		runAddr = 16<<20 + 3*dram.BlockBytes // MAC boundaries at run blocks 5, 13, ...; counter boundary at 61
		stops   = 80
	)
	for _, mc := range mems {
		for _, scheme := range AllSchemes() {
			for _, write := range []bool{false, true} {
				for _, wrap := range []bool{false, true} {
					if wrap && (!write || scheme != Baseline) {
						continue
					}
					name := fmt.Sprintf("%s/%s/write=%v/wrap=%v", mc.name, scheme, write, wrap)
					t.Run(name, func(t *testing.T) {
						// The reference loop's issue times pick each horizon:
						// issue[k] is the next issue time after k+1 blocks.
						probe, pw, ready := horizonRig(t, scheme, mc.mem, mc.odd, runAddr, wrap)
						issue := make([]uint64, 0, stops)
						r := ready
						for k := 0; k < stops; k++ {
							r, _, _ = refRun(probe, write, r, runAddr+uint64(k)*dram.BlockBytes, 1, pw, dram.NoHorizon)
							issue = append(issue, r)
						}
						for k := 0; k <= stops; k++ {
							horizon := dram.NoHorizon
							if k < stops {
								horizon = issue[k]
							}
							fast, fw, _ := horizonRig(t, scheme, mc.mem, mc.odd, runAddr, wrap)
							ref, rw, _ := horizonRig(t, scheme, mc.mem, mc.odd, runAddr, wrap)
							re := fast.(RunEngine)
							run := re.ReadRun
							if write {
								run = re.WriteRun
							}
							fn, fd, fs := run(ready, runAddr, 1, n, fw, horizon)
							rn, rd, rs := refRun(ref, write, ready, runAddr, n, rw, horizon)
							if fn != rn || fd != rd || fs != rs {
								t.Fatalf("stop %d: run = (next %d, dataAt %d, served %d), per-block = (%d, %d, %d)", k, fn, fd, fs, rn, rd, rs)
							}
							if want := k + 1; k < stops && fs != want {
								t.Fatalf("stop %d: served %d blocks, want %d", k, fs, want)
							}
							if !bytes.Equal(horizonState(fast, fw), horizonState(ref, rw)) {
								t.Fatalf("stop %d: state after the stopped run diverges from the per-block loop", k)
							}
							if fs == n {
								continue
							}
							// A co-tenant block, then the rest of the run.
							fast.ReadBlock(fn, 64<<20, 1)
							ref.ReadBlock(rn, 64<<20, 1)
							rest := runAddr + uint64(fs)*dram.BlockBytes
							fn, fd, fs = run(fn+1, rest, 1, n-fs, fw, dram.NoHorizon)
							rn, rd, rs = refRun(ref, write, rn+1, rest, n-rs, rw, dram.NoHorizon)
							if fn != rn || fd != rd || fs != rs {
								t.Fatalf("stop %d, resumed: run = (%d, %d, %d), per-block = (%d, %d, %d)", k, fn, fd, fs, rn, rd, rs)
							}
							if !bytes.Equal(horizonState(fast, fw), horizonState(ref, rw)) {
								t.Fatalf("stop %d: state after the resumed run diverges from the per-block loop", k)
							}
						}
					})
				}
			}
		}
	}
}
