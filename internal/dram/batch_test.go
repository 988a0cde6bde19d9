package dram

import (
	"math/rand"
	"testing"
)

// busState snapshots every observable and internal field of a bus so the
// batched entry points can be checked for exact state equivalence against
// the per-block reference.
type busState struct {
	bytesMoved, busyCycles, now uint64
	chans                       []channel
}

func snapshot(b *Bus) busState {
	s := busState{bytesMoved: b.BytesMoved(), busyCycles: b.BusyCycles(), now: b.Now()}
	for i := range b.chans {
		c := b.chans[i]
		c.gaps = append([]gap(nil), c.gaps...)
		s.chans = append(s.chans, c)
	}
	return s
}

func equalStates(a, b busState) bool {
	if a.bytesMoved != b.bytesMoved || a.busyCycles != b.busyCycles || a.now != b.now || len(a.chans) != len(b.chans) {
		return false
	}
	for i := range a.chans {
		x, y := a.chans[i], b.chans[i]
		if x.num != y.num || x.den != y.den || x.busyUntil != y.busyUntil ||
			x.rem != y.rem || x.bytesMoved != y.bytesMoved || x.busyCycles != y.busyCycles {
			return false
		}
		if len(x.gaps) != len(y.gaps) {
			return false
		}
		for j := range x.gaps {
			if x.gaps[j] != y.gaps[j] {
				return false
			}
		}
	}
	return true
}

// refStreamRun is the literal per-block reference loop StreamRun documents.
func refStreamRun(b *Bus, ready, addr uint64, n int, w *IssueWindow, horizon uint64) (nextReady, maxBusFree, lastIssue uint64, served int) {
	r := ready
	for served < n {
		busFree := b.TransferAt(r, addr+uint64(served)*BlockBytes, BlockBytes)
		if busFree > maxBusFree {
			maxBusFree = busFree
		}
		lastIssue = r
		r = w.Issue(r, busFree)
		if served++; r >= horizon {
			break
		}
	}
	return r, maxBusFree, lastIssue, served
}

// cfgWithChannels builds a test config with c channels.
func cfgWithChannels(base Config, c int) Config {
	base.Channels = c
	return base
}

// TestCyclesForBytesMultiChannel pins the fix for the multi-channel
// conversion bug: CyclesForBytes answers for the whole interface, so a
// 4-channel bus with the same aggregate bandwidth must report the same
// cost as a single-channel one (the old code used the per-channel rate,
// overstating the cost by the channel count).
func TestCyclesForBytesMultiChannel(t *testing.T) {
	single := NewBus(largeCfg)
	quad := NewBus(cfgWithChannels(largeCfg, 4))
	for _, bytes := range []uint64{0, 1, 21, 22, 64, 64 * 63, 1 << 20} {
		if got, want := quad.CyclesForBytes(bytes), single.CyclesForBytes(bytes); got != want {
			t.Errorf("CyclesForBytes(%d): 4-channel = %d, 1-channel = %d; aggregate bandwidth is identical", bytes, got, want)
		}
	}
	if c := quad.CyclesForBytes(64); c != 3 { // ceil(64/22), not ceil(64/5.5)
		t.Errorf("4-channel CyclesForBytes(64) = %d, want 3", c)
	}
}

// TestIssueWindow pins the issue step: after noting request i's clear
// time, the next request issues at max(r+1, gate), where the gate is the
// clear time of request i+1-depth (zero while the window is filling).
func TestIssueWindow(t *testing.T) {
	w := NewIssueWindow(3)
	if w.Depth() != 3 {
		t.Fatalf("depth = %d, want 3", w.Depth())
	}
	for i, tc := range []struct{ r, busFree, want uint64 }{
		{5, 10, 6},   // filling: gate 0, so r+1
		{6, 20, 7},   // filling
		{7, 30, 10},  // gate = request 0's clear (10) beats r+1
		{8, 40, 20},  // gate = request 1's clear
		{50, 50, 51}, // r+1 beats the gate (request 2's clear, 30)
	} {
		if got := w.Issue(tc.r, tc.busFree); got != tc.want {
			t.Errorf("Issue #%d (r=%d, busFree=%d) = %d, want %d", i, tc.r, tc.busFree, got, tc.want)
		}
	}
}

func TestIssueWindowBadDepthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for depth 0")
		}
	}()
	NewIssueWindow(0)
}

// TestStreamRunMatchesReference drives randomized interleavings of
// StreamRun and loose single transfers on twin buses — one using the
// batched entry, one the reference loop — and requires identical returned
// times and identical full bus state after every operation. Covers the
// cursor path (dense runs of every length), the reference-loop fallback
// (multi-channel, backfillable gaps), and window-state handoff between
// runs. On a single channel every batchable call must take the cursor:
// window slots there hold earlier clears on the same channel, so BeginRun's
// slot check never rejects what the batchable rate/gap check admits.
func TestStreamRunMatchesReference(t *testing.T) {
	for _, channels := range []int{1, 2, 4} {
		for _, cfg := range []Config{smallCfg, largeCfg} {
			cfg := cfgWithChannels(cfg, channels)
			rng := rand.New(rand.NewSource(int64(channels)*1000 + int64(cfg.FreqHz%997)))
			fast := NewBus(cfg)
			ref := NewBus(cfg)
			wFast := NewIssueWindow(16)
			wRef := NewIssueWindow(16)
			var clock uint64
			cursorRuns := 0
			for step := 0; step < 400; step++ {
				clock += uint64(rng.Intn(200))
				switch rng.Intn(4) {
				case 0: // loose transfer to open gaps / perturb remainders
					addr := uint64(rng.Intn(1 << 20))
					bytes := uint64(rng.Intn(500))
					fast.TransferAt(clock, addr, bytes)
					ref.TransferAt(clock, addr, bytes)
				default: // streamed run, length spanning both regimes
					addr := uint64(rng.Intn(1<<20)) &^ (BlockBytes - 1)
					n := 1 + rng.Intn(120)
					// Every third run is contended: it stops at a horizon a
					// few blocks past the clock, on the reference loop.
					horizon := NoHorizon
					if rng.Intn(3) == 0 {
						horizon = clock + uint64(rng.Intn(40*n))
					}
					if horizon == NoHorizon && channels == 1 && fast.chans[0].batchable(clock, uint64(n)) {
						// BeginRun only primes the window's cursor, which
						// StreamRun re-primes, so probing it here is harmless.
						if !fast.BeginRun(wFast, clock, n) {
							t.Fatalf("step %d (n=%d): BeginRun rejected a batchable single-channel run; StreamRun would take the reference loop", step, n)
						}
						cursorRuns++
					}
					fn, fm, fl, fs := fast.StreamRun(clock, addr, n, wFast, horizon)
					rn, rm, rl, rs := refStreamRun(ref, clock, addr, n, wRef, horizon)
					if fn != rn || fm != rm || fl != rl || fs != rs {
						t.Fatalf("step %d (ch=%d n=%d horizon=%d): StreamRun = (%d,%d,%d,%d), reference = (%d,%d,%d,%d)",
							step, channels, n, horizon, fn, fm, fl, fs, rn, rm, rl, rs)
					}
				}
				if !equalStates(snapshot(fast), snapshot(ref)) {
					t.Fatalf("step %d (ch=%d): bus state diverged:\nfast: %+v\nref:  %+v",
						step, channels, snapshot(fast), snapshot(ref))
				}
				for i := range wFast.slots {
					if wFast.slots[i] != wRef.slots[i] || wFast.idx != wRef.idx {
						t.Fatalf("step %d: issue window diverged: %v@%d vs %v@%d", step, wFast.slots, wFast.idx, wRef.slots, wRef.idx)
					}
				}
			}
			if channels == 1 && cursorRuns == 0 {
				t.Fatalf("cfg %+v: no run took the cursor path; test exercised nothing", cfg)
			}
		}
	}
}

// TestBatchRemainderCarry pins the telescoping identity directly: a long
// batched run must leave the channel with exactly the remainder and busy
// cycles that per-block service accumulates, on a rate whose per-block cost
// is fractional (small config: 64B = 16 cycles exactly, so use 7 bytes per
// 3 cycles to exercise the remainder).
func TestBatchRemainderCarry(t *testing.T) {
	cfg := Config{FreqHz: 3_000_000_000, BandwidthBytesPerSec: 7_000_000_000, LatencyCycles: 0}
	fast := NewBus(cfg)
	ref := NewBus(cfg)
	// Prime a nonzero starting remainder on both.
	fast.Transfer(0, 5)
	ref.Transfer(0, 5)
	const n = 1000
	w1, w2 := NewIssueWindow(16), NewIssueWindow(16)
	fast.StreamRun(0, 0, n, w1, NoHorizon)
	refStreamRun(ref, 0, 0, n, w2, NoHorizon)
	if fast.chans[0].rem != ref.chans[0].rem {
		t.Errorf("remainder after batched run = %d, per-block = %d", fast.chans[0].rem, ref.chans[0].rem)
	}
	if fast.BusyCycles() != ref.BusyCycles() {
		t.Errorf("busy cycles = %d, per-block = %d", fast.BusyCycles(), ref.BusyCycles())
	}
	if fast.Now() != ref.Now() {
		t.Errorf("horizon = %d, per-block = %d", fast.Now(), ref.Now())
	}
}

// TestBatchGapHandling pins two gap behaviours of the closed form: a run
// that could backfill a remembered gap must fall back (and split the gap
// exactly as per-block service does), and a run starting beyond the horizon
// records the skipped idle window as a new gap — including when the gap
// list is at capacity and the oldest entry must be evicted.
func TestBatchGapHandling(t *testing.T) {
	mk := func() (*Bus, *Bus, *IssueWindow, *IssueWindow) {
		return NewBus(smallCfg), NewBus(smallCfg), NewIssueWindow(16), NewIssueWindow(16)
	}

	t.Run("backfillable-gap-falls-back", func(t *testing.T) {
		fast, ref, w1, w2 := mk()
		for _, b := range []*Bus{fast, ref} {
			b.Transfer(0, 64)    // busy [0,16)
			b.Transfer(5000, 64) // gap [16,5000)
		}
		// Ready inside the gap: blocks must backfill it, so the closed form
		// is invalid and both paths must still agree exactly.
		fn, fm, fl, _ := fast.StreamRun(100, 0, 40, w1, NoHorizon)
		rn, rm, rl, _ := refStreamRun(ref, 100, 0, 40, w2, NoHorizon)
		if fn != rn || fm != rm || fl != rl || !equalStates(snapshot(fast), snapshot(ref)) {
			t.Fatalf("gap backfill run diverged: (%d,%d,%d) vs (%d,%d,%d)", fn, fm, fl, rn, rm, rl)
		}
	})

	t.Run("new-gap-at-capacity", func(t *testing.T) {
		fast, ref, w1, w2 := mk()
		// Fill the gap list to maxGaps with unusably small (1-cycle) gaps:
		// each pair of transfers leaves a gap too short for a 16-cycle block.
		for _, b := range []*Bus{fast, ref} {
			var at uint64
			for i := 0; i < maxGaps; i++ {
				at = b.Now() + 1 // leave exactly one idle cycle
				b.Transfer(at, 64)
			}
			if got := len(b.chans[0].gaps); got != maxGaps {
				t.Fatalf("setup: gap list has %d entries, want %d", got, maxGaps)
			}
		}
		// A far-future run must evict the oldest gap to record the new one,
		// identically on both paths.
		start := fast.Now() + 10_000
		fast.StreamRun(start, 0, 50, w1, NoHorizon)
		refStreamRun(ref, start, 0, 50, w2, NoHorizon)
		if !equalStates(snapshot(fast), snapshot(ref)) {
			t.Fatal("gap eviction at capacity diverged between batched and per-block paths")
		}
		gaps := fast.chans[0].gaps
		if len(gaps) != maxGaps {
			t.Fatalf("gap list has %d entries after eviction, want %d", len(gaps), maxGaps)
		}
		if last := gaps[len(gaps)-1]; last.end != start {
			t.Errorf("newest gap ends at %d, want run start %d", last.end, start)
		}
	})
}
