package dram

import "testing"

// refChargeData is the per-block reference a RunCursor data charge stands
// in for: one transfer at the issue time, noted in the window.
func refChargeData(b *Bus, w *IssueWindow, r, addr uint64) (busFree, nextR uint64) {
	busFree = b.TransferAt(r, addr, BlockBytes)
	return busFree, w.Issue(r, busFree)
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
