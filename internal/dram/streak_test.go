package dram

import (
	"math/rand"
	"testing"
)

// refChargeData is the per-block reference a RunCursor data charge stands
// in for: one transfer at the issue time, noted in the window.
func refChargeData(b *Bus, w *IssueWindow, r, addr uint64) (busFree, nextR uint64) {
	busFree = b.TransferAt(r, addr, BlockBytes)
	return busFree, w.Issue(r, busFree)
}

// TestRunCursorMatchesReference drives random mixed charge sequences —
// single window-gated data blocks, data spans, and metadata charges
// presented at the current issue time — through a RunCursor on one bus and
// the per-block reference on a twin, interleaved with loose transfers
// between runs to perturb remainders, gaps, and window state. After every Commit the two
// buses and issue windows must agree exactly, as must every returned time.
func TestRunCursorMatchesReference(t *testing.T) {
	awkwardCfg := Config{FreqHz: 3_000_000_000, BandwidthBytesPerSec: 7_000_000_000, LatencyCycles: 10}
	for ci, cfg := range []Config{smallCfg, largeCfg, awkwardCfg} {
		rng := rand.New(rand.NewSource(int64(ci) + 7))
		fast := NewBus(cfg)
		ref := NewBus(cfg)
		wFast := NewIssueWindow(16)
		wRef := NewIssueWindow(16)
		var clock uint64
		runs := 0
		for step := 0; step < 300; step++ {
			clock += uint64(rng.Intn(400))
			if rng.Intn(3) == 0 { // loose transfer: open gaps, shift remainders
				addr := uint64(rng.Intn(1 << 20))
				bytes := uint64(rng.Intn(700))
				fast.TransferAt(clock, addr, bytes)
				ref.TransferAt(clock, addr, bytes)
				continue
			}
			budget := 1 + rng.Intn(200)
			cur := fast.BeginRun(wFast, clock, budget)
			if cur == nil {
				continue
			}
			runs++
			rF, rR := clock, clock
			addr := uint64(rng.Intn(1<<20)) &^ (BlockBytes - 1)
			left := budget
			for left > 0 {
				switch rng.Intn(3) {
				case 0: // single gated data block
					fFree, fIssue, fNext := cur.Data(rF, 1)
					rFree, rNext := refChargeData(ref, wRef, rR, addr)
					if fFree != rFree || fIssue != rR || fNext != rNext {
						t.Fatalf("cfg %d step %d: Data(1) = (%d,%d,%d), ref (%d,%d,%d)", ci, step, fFree, fIssue, fNext, rFree, rR, rNext)
					}
					rF, rR = fNext, rNext
					left--
				case 1: // metadata charge(s) at the current issue time
					k := 1 + rng.Intn(minTest(3, left))
					fAt := cur.Meta(k)
					var rAt uint64
					for j := 0; j < k; j++ {
						rAt = ref.TransferAt(rR, addr, BlockBytes)
					}
					if fAt != rAt {
						t.Fatalf("cfg %d step %d: Meta(%d) = %d, ref %d", ci, step, k, fAt, rAt)
					}
					left -= k
				default: // data span crossing prologue/short/long regimes
					k := 1 + rng.Intn(minTest(40, left))
					fFree, fIssue, fNext := cur.Data(rF, k)
					var rFree, rIssue uint64
					for j := 0; j < k; j++ {
						rIssue = rR
						rFree, rR = refChargeData(ref, wRef, rR, addr)
					}
					if fFree != rFree || fIssue != rIssue || fNext != rR {
						t.Fatalf("cfg %d step %d: Data(%d) = (%d,%d,%d), ref (%d,%d,%d)",
							ci, step, k, fFree, fIssue, fNext, rFree, rIssue, rR)
					}
					rF = fNext
					left -= k
				}
				addr += BlockBytes
			}
			if got := cur.Horizon(); got != ref.chans[0].busyUntil {
				t.Fatalf("cfg %d step %d: Horizon = %d, ref busyUntil %d", ci, step, got, ref.chans[0].busyUntil)
			}
			cur.Commit()
			if !equalStates(snapshot(fast), snapshot(ref)) {
				t.Fatalf("cfg %d step %d: bus state diverged after Commit:\nfast: %+v\nref:  %+v",
					ci, step, snapshot(fast), snapshot(ref))
			}
			if wFast.idx != wRef.idx {
				t.Fatalf("cfg %d step %d: window idx diverged", ci, step)
			}
			for i := range wFast.slots {
				if wFast.slots[i] != wRef.slots[i] {
					t.Fatalf("cfg %d step %d: window slot %d diverged: %d vs %d", ci, step, i, wFast.slots[i], wRef.slots[i])
				}
			}
		}
		if runs == 0 {
			t.Fatalf("cfg %d: BeginRun never succeeded; test exercised nothing", ci)
		}
	}
}

// TestRunCursorGapAtBegin pins the one gap a committed run may record: the
// idle window between the channel horizon and a later ready time, exactly
// as the reference's first transfer records it.
func TestRunCursorGapAtBegin(t *testing.T) {
	fast := NewBus(smallCfg)
	ref := NewBus(smallCfg)
	wF := NewIssueWindow(16)
	wR := NewIssueWindow(16)
	fast.TransferAt(0, 0, 64)
	ref.TransferAt(0, 0, 64)
	ready := uint64(10_000) // far past the horizon: the run opens on a gap
	cur := fast.BeginRun(wF, ready, 32)
	if cur == nil {
		t.Fatal("BeginRun rejected a plain idle bus")
	}
	rF, rR := ready, ready
	for i := 0; i < 20; i++ {
		_, _, rF = cur.Data(rF, 1)
		_, rR = refChargeData(ref, wR, rR, uint64(i)*BlockBytes)
	}
	cur.Commit()
	if !equalStates(snapshot(fast), snapshot(ref)) {
		t.Fatalf("state diverged:\nfast: %+v\nref:  %+v", snapshot(fast), snapshot(ref))
	}
	// The recorded gap must be backfillable afterwards, same as the reference.
	if f, r := fast.TransferAt(20, 1<<19, 64), ref.TransferAt(20, 1<<19, 64); f != r {
		t.Fatalf("post-run backfill diverged: %d vs %d", f, r)
	}
	if !equalStates(snapshot(fast), snapshot(ref)) {
		t.Fatal("state diverged after backfill")
	}
}

// TestRunCursorEmptyCommit pins Commit as a strict no-op when nothing was
// charged: the reference would not have touched the bus, so neither may the
// cursor (no gap record, no horizon move).
func TestRunCursorEmptyCommit(t *testing.T) {
	bus := NewBus(smallCfg)
	w := NewIssueWindow(16)
	bus.TransferAt(0, 0, 64)
	before := snapshot(bus)
	cur := bus.BeginRun(w, 5_000, 8)
	if cur == nil {
		t.Fatal("BeginRun rejected a plain idle bus")
	}
	cur.Commit()
	if !equalStates(before, snapshot(bus)) {
		t.Fatalf("empty Commit changed bus state:\nbefore: %+v\nafter:  %+v", before, snapshot(bus))
	}
}

// TestBeginRunRejections pins the gate conditions: multi-channel buses and
// windows holding in-flight completions past the start horizon must fall
// back to the per-block path.
func TestBeginRunRejections(t *testing.T) {
	multi := NewBus(cfgWithChannels(smallCfg, 2))
	if multi.BeginRun(NewIssueWindow(16), 0, 8) != nil {
		t.Fatal("BeginRun accepted a multi-channel bus")
	}
	single := NewBus(smallCfg)
	w := NewIssueWindow(16)
	w.Issue(0, 1<<40) // a slot far past any reachable horizon
	if single.BeginRun(w, 0, 8) != nil {
		t.Fatal("BeginRun accepted a window slot past the start horizon")
	}
	if single.BeginRun(NewIssueWindow(16), 0, 0) != nil {
		t.Fatal("BeginRun accepted a zero-block budget")
	}
}

func minTest(a, b int) int {
	if a < b {
		return a
	}
	return b
}
