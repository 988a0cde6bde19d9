package dram

import "testing"

// fuzzBytes reads bytes off the fuzz input, defaulting to 0 once exhausted.
type fuzzBytes struct {
	data []byte
	pos  int
}

func (f *fuzzBytes) byte() byte {
	if f.pos >= len(f.data) {
		return 0
	}
	b := f.data[f.pos]
	f.pos++
	return b
}

func (f *fuzzBytes) more() bool { return f.pos < len(f.data) }

// FuzzRunCursorVsPerBlock is the byte-driven twin-bus differential for the
// run cursor: one bus serves cursor runs (Data, DataPeriodic, Meta),
// StreamRun calls (some stopped at a horizon), and loose transfers; its
// twin replays each through the
// per-block reference. Returned times, full bus state, and the issue-window
// ring must agree after every operation. The input picks the rate (the two
// paper interfaces and the awkward 3 GHz / 7 GB/s one, whose per-block
// cost carries a remainder), the window depth (1, 2, 16), and a 2-channel
// bus on which BeginRun refuses and StreamRun must take its reference loop.
func FuzzRunCursorVsPerBlock(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 2, 2, 0x40, 30, 1, 2, 3, 1, 0, 9, 2, 1, 7, 2, 3, 1, 4, 2})
	f.Add([]byte{3, 1, 1, 5, 90, 2, 2, 3, 2, 1, 40, 0, 0, 50, 0, 60, 1, 1, 1})
	f.Add([]byte{0, 0, 3, 200, 1, 200, 3, 2, 10, 3, 0, 1, 7, 7, 7, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		fb := &fuzzBytes{data: data}
		awkward := Config{FreqHz: 3_000_000_000, BandwidthBytesPerSec: 7_000_000_000, LatencyCycles: 10}
		cfg := []Config{smallCfg, largeCfg, awkward}[fb.byte()%3]
		cfg.Channels = 1 + int(fb.byte()%2)
		depth := []int{1, 2, 16}[fb.byte()%3]
		fast, ref := NewBus(cfg), NewBus(cfg)
		wFast, wRef := NewIssueWindow(depth), NewIssueWindow(depth)

		check := func(op int, what string) {
			t.Helper()
			if !equalStates(snapshot(fast), snapshot(ref)) {
				t.Fatalf("op %d (%s): bus state diverged:\nfast: %+v\nref:  %+v", op, what, snapshot(fast), snapshot(ref))
			}
			if wFast.idx != wRef.idx {
				t.Fatalf("op %d (%s): window idx %d vs %d", op, what, wFast.idx, wRef.idx)
			}
			for i := range wFast.slots {
				if wFast.slots[i] != wRef.slots[i] {
					t.Fatalf("op %d (%s): window slot %d: %d vs %d", op, what, i, wFast.slots[i], wRef.slots[i])
				}
			}
		}

		var clock uint64
		for op := 0; op < 64 && fb.more(); op++ {
			clock += uint64(fb.byte()) * 7
			addr := uint64(fb.byte()) << 12
			switch sel := fb.byte(); sel % 3 {
			case 0: // loose transfer: shift remainders, open gaps ahead of the clock
				bytes := uint64(fb.byte()) * 3
				at := clock + uint64(fb.byte())*5
				fast.TransferAt(at, addr, bytes)
				ref.TransferAt(at, addr, bytes)
				check(op, "transfer")
			case 1: // StreamRun: the cursor on one channel, the loop on two or under a horizon
				n := 1 + int(fb.byte())
				horizon := NoHorizon
				if sel/3%2 == 1 {
					horizon = clock + uint64(sel)*11
				}
				fn, fm, fl, fs := fast.StreamRun(clock, addr, n, wFast, horizon)
				rn, rm, rl, rs := refStreamRun(ref, clock, addr, n, wRef, horizon)
				if fn != rn || fm != rm || fl != rl || fs != rs {
					t.Fatalf("op %d: StreamRun(n=%d, horizon=%d) = (%d,%d,%d,%d), ref (%d,%d,%d,%d)", op, n, horizon, fn, fm, fl, fs, rn, rm, rl, rs)
				}
				check(op, "StreamRun")
			default: // a cursor run of mixed charges
				budget := 1 + int(fb.byte())*2
				if !fast.BeginRun(wFast, clock, budget) {
					continue
				}
				cur := wFast.Cursor()
				rF, rR := clock, clock
				for left := budget; left > 0 && fb.more(); {
					switch sel := fb.byte(); sel % 3 {
					case 0: // metadata charges at the current issue time
						k := 1 + int(sel/3)%minTest(3, left)
						fAt := cur.Meta(k)
						var rAt uint64
						for j := 0; j < k; j++ {
							rAt = ref.TransferAt(rR, addr, BlockBytes)
						}
						if fAt != rAt {
							t.Fatalf("op %d: Meta(%d) = %d, ref %d", op, k, fAt, rAt)
						}
						left -= k
					case 1: // periodic stretch [lead meta, m data, trail meta]
						m := 1 + int(sel/3)%4
						lead, trail := int(sel/12)%2, int(sel/24)%3
						maxP := left / (m + lead + trail)
						if maxP < 1 {
							left = 0
							continue
						}
						periods := 1 + int(fb.byte())%minTest(8, maxP)
						fFree, fIssue, fNext, ok := cur.DataPeriodic(rF, periods, m, lead, trail)
						if !ok {
							continue // still in the window prologue
						}
						var rFree, rIssue uint64
						for p := 0; p < periods; p++ {
							for j := 0; j < lead; j++ {
								ref.TransferAt(rR, addr, BlockBytes)
							}
							for j := 0; j < m; j++ {
								rIssue = rR
								rFree, rR = refChargeData(ref, wRef, rR, addr)
							}
							for j := 0; j < trail; j++ {
								ref.TransferAt(rR, addr, BlockBytes)
							}
						}
						if fFree != rFree || fIssue != rIssue || fNext != rR {
							t.Fatalf("op %d: DataPeriodic(%d,%d,%d,%d) = (%d,%d,%d), ref (%d,%d,%d)",
								op, periods, m, lead, trail, fFree, fIssue, fNext, rFree, rIssue, rR)
						}
						rF = fNext
						left -= periods * (m + lead + trail)
					default: // data span across the prologue and past it
						k := 1 + int(sel/3)%minTest(3*depth+4, left)
						fFree, fIssue, fNext := cur.Data(rF, k)
						var rFree, rIssue uint64
						for j := 0; j < k; j++ {
							rIssue = rR
							rFree, rR = refChargeData(ref, wRef, rR, addr)
						}
						if fFree != rFree || fIssue != rIssue || fNext != rR {
							t.Fatalf("op %d: Data(%d) = (%d,%d,%d), ref (%d,%d,%d)", op, k, fFree, fIssue, fNext, rFree, rIssue, rR)
						}
						rF = fNext
						left -= k
					}
					addr += BlockBytes
				}
				// Before any charge the horizon is the start horizon.
				want := ref.chans[0].busyUntil
				if clock > want {
					want = clock
				}
				if got := cur.Horizon(); got != want {
					t.Fatalf("op %d: Horizon = %d, ref %d", op, got, want)
				}
				cur.Commit()
				check(op, "cursor run")
			}
		}
	})
}
