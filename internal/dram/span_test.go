package dram

import (
	"math/rand"
	"testing"
)

// TestSpanCursorMatchesReference drives random mixed charge sequences —
// data spans, periodic uniform stretches, and metadata charges presented at
// the current issue time — through a RunCursor on one bus and the
// per-block reference on a twin. After every Commit the two buses and
// issue windows must agree exactly, as must every returned time. This is
// the pin for the O(1)-per-span deferral: the cursor never writes the
// window during the run, so any bookkeeping error shows up as a diverged
// gate, horizon, or final ring.
func TestSpanCursorMatchesReference(t *testing.T) {
	awkwardCfg := Config{FreqHz: 3_000_000_000, BandwidthBytesPerSec: 7_000_000_000, LatencyCycles: 10}
	for ci, cfg := range []Config{smallCfg, largeCfg, awkwardCfg} {
		for _, depth := range []int{1, 2, 16} {
			rng := rand.New(rand.NewSource(int64(ci)*31 + int64(depth)))
			fast := NewBus(cfg)
			ref := NewBus(cfg)
			wFast := NewIssueWindow(depth)
			wRef := NewIssueWindow(depth)
			var clock uint64
			runs, periodics := 0, 0
			for step := 0; step < 300; step++ {
				clock += uint64(rng.Intn(400))
				if rng.Intn(4) == 0 { // loose transfer: open gaps, shift remainders
					addr := uint64(rng.Intn(1 << 20))
					bytes := uint64(rng.Intn(700))
					fast.TransferAt(clock, addr, bytes)
					ref.TransferAt(clock, addr, bytes)
					continue
				}
				budget := 1 + rng.Intn(400)
				sc := fast.BeginRun(wFast, clock, budget)
				if sc == nil {
					continue
				}
				runs++
				rF, rR := clock, clock
				addr := uint64(rng.Intn(1<<20)) &^ (BlockBytes - 1)
				left := budget
				for left > 0 {
					switch rng.Intn(3) {
					case 0: // metadata charge(s) at the current issue time
						k := 1 + rng.Intn(minTest(3, left))
						fAt := sc.Meta(k)
						var rAt uint64
						for j := 0; j < k; j++ {
							rAt = ref.TransferAt(rR, addr, BlockBytes)
						}
						if fAt != rAt {
							t.Fatalf("cfg %d depth %d step %d: Meta(%d) = %d, ref %d", ci, depth, step, k, fAt, rAt)
						}
						left -= k
					case 1: // periodic uniform stretch [m data, trail meta]
						m := 1 + rng.Intn(4)
						trail := rng.Intn(3)
						maxP := left / (m + trail + 1)
						if maxP < 1 {
							continue
						}
						periods := 1 + rng.Intn(minTest(8, maxP))
						fFree, fIssue, fNext, ok := sc.DataPeriodic(rF, periods, m, trail)
						if !ok {
							// Still in the window prologue; the fallback (plain
							// Data/Meta) is exercised by the other cases.
							continue
						}
						periodics++
						var rFree, rIssue uint64
						for p := 0; p < periods; p++ {
							for j := 0; j < m; j++ {
								rIssue = rR
								rFree, rR = refChargeData(ref, wRef, rR, addr)
							}
							for j := 0; j < trail; j++ {
								ref.TransferAt(rR, addr, BlockBytes)
							}
						}
						if fFree != rFree || fIssue != rIssue || fNext != rR {
							t.Fatalf("cfg %d depth %d step %d: DataPeriodic(%d,%d,%d) = (%d,%d,%d), ref (%d,%d,%d)",
								ci, depth, step, periods, m, trail, fFree, fIssue, fNext, rFree, rIssue, rR)
						}
						rF = fNext
						left -= periods * (m + trail)
					default: // data span crossing prologue/short/long regimes
						k := 1 + rng.Intn(minTest(3*depth+4, left))
						fFree, fIssue, fNext := sc.Data(rF, k)
						var rFree, rIssue uint64
						for j := 0; j < k; j++ {
							rIssue = rR
							rFree, rR = refChargeData(ref, wRef, rR, addr)
						}
						if fFree != rFree || fIssue != rIssue || fNext != rR {
							t.Fatalf("cfg %d depth %d step %d: Data(%d) = (%d,%d,%d), ref (%d,%d,%d)",
								ci, depth, step, k, fFree, fIssue, fNext, rFree, rIssue, rR)
						}
						rF = fNext
						left -= k
					}
					addr += BlockBytes
				}
				if got := sc.Horizon(); got != ref.chans[0].busyUntil {
					t.Fatalf("cfg %d depth %d step %d: Horizon = %d, ref busyUntil %d", ci, depth, step, got, ref.chans[0].busyUntil)
				}
				sc.Commit()
				if !equalStates(snapshot(fast), snapshot(ref)) {
					t.Fatalf("cfg %d depth %d step %d: bus state diverged after Commit:\nfast: %+v\nref:  %+v",
						ci, depth, step, snapshot(fast), snapshot(ref))
				}
				if wFast.idx != wRef.idx {
					t.Fatalf("cfg %d depth %d step %d: window idx diverged: %d vs %d", ci, depth, step, wFast.idx, wRef.idx)
				}
				for i := range wFast.slots {
					if wFast.slots[i] != wRef.slots[i] {
						t.Fatalf("cfg %d depth %d step %d: window slot %d diverged: %d vs %d",
							ci, depth, step, i, wFast.slots[i], wRef.slots[i])
					}
				}
			}
			if runs == 0 {
				t.Fatalf("cfg %d depth %d: BeginRun never succeeded; test exercised nothing", ci, depth)
			}
			if depth >= 2 && periodics == 0 {
				t.Fatalf("cfg %d depth %d: DataPeriodic never ran; test exercised nothing", ci, depth)
			}
		}
	}
}

// TestSpanCursorEmptyCommit pins Commit as a strict no-op when nothing was
// charged, on a window whose cursor has just served a run: the retained
// span records and window writes of that run must not leak into it.
func TestSpanCursorEmptyCommit(t *testing.T) {
	bus := NewBus(smallCfg)
	w := NewIssueWindow(16)
	bus.TransferAt(0, 0, 64)
	bus.StreamRun(100, 0, 40, w, NoHorizon) // a committed cursor run past the prologue
	before := snapshot(bus)
	slots, idx := append([]uint64(nil), w.slots...), w.idx
	cur := bus.BeginRun(w, 5_000, 8)
	if cur == nil {
		t.Fatal("BeginRun rejected a plain idle bus")
	}
	cur.Commit()
	if !equalStates(before, snapshot(bus)) {
		t.Fatalf("empty Commit changed bus state:\nbefore: %+v\nafter:  %+v", before, snapshot(bus))
	}
	if w.idx != idx {
		t.Fatalf("empty Commit moved the window index: %d -> %d", idx, w.idx)
	}
	for i := range slots {
		if w.slots[i] != slots[i] {
			t.Fatalf("empty Commit rewrote window slot %d: %d -> %d", i, slots[i], w.slots[i])
		}
	}
}

// TestSpanCursorShortRun pins the all-prologue regime: fewer data blocks
// than the window depth leave the ring exactly as the per-block loop would
// (the prologue only reads gates; Commit writes the ring).
func TestSpanCursorShortRun(t *testing.T) {
	fast := NewBus(smallCfg)
	ref := NewBus(smallCfg)
	wF := NewIssueWindow(16)
	wR := NewIssueWindow(16)
	sc := fast.BeginRun(wF, 100, 32)
	if sc == nil {
		t.Fatal("BeginRun rejected a plain idle bus")
	}
	rF, rR := uint64(100), uint64(100)
	_, _, rF = sc.Data(rF, 5)
	sc.Meta(2)
	for j := 0; j < 5; j++ {
		_, rR = refChargeData(ref, wR, rR, uint64(j)*BlockBytes)
	}
	ref.TransferAt(rR, 0, BlockBytes)
	ref.TransferAt(rR, 0, BlockBytes)
	_, _, rF = sc.Data(rF, 4)
	for j := 0; j < 4; j++ {
		_, rR = refChargeData(ref, wR, rR, uint64(j)*BlockBytes)
	}
	if rF != rR {
		t.Fatalf("issue time diverged: %d vs %d", rF, rR)
	}
	sc.Commit()
	if !equalStates(snapshot(fast), snapshot(ref)) {
		t.Fatalf("bus state diverged:\nfast: %+v\nref:  %+v", snapshot(fast), snapshot(ref))
	}
	if wF.idx != wR.idx {
		t.Fatalf("window idx diverged: %d vs %d", wF.idx, wR.idx)
	}
	for i := range wF.slots {
		if wF.slots[i] != wR.slots[i] {
			t.Fatalf("window slot %d diverged: %d vs %d", i, wF.slots[i], wR.slots[i])
		}
	}
}
