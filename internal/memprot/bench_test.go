package memprot

import (
	"fmt"
	"testing"

	"tnpu/internal/dram"
)

// BenchmarkReadBlock measures the per-block engine path: a dense sequential
// read stream pushed through ReadBlock one block at a time, per scheme.
func BenchmarkReadBlock(b *testing.B) {
	const blocks = 4096
	for _, scheme := range AllSchemes() {
		b.Run(scheme.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := New(scheme, DefaultConfig(smallBus()))
				if err != nil {
					b.Fatal(err)
				}
				w := dram.NewIssueWindow(16)
				r := uint64(0)
				for blk := uint64(0); blk < blocks; blk++ {
					busFree, _ := e.ReadBlock(r, blk*dram.BlockBytes, 1)
					r = w.Issue(r, busFree)
				}
			}
			b.SetBytes(blocks * dram.BlockBytes)
		})
	}
}

// BenchmarkReadRun measures the same dense stream through the batched
// ReadRun path; the ratio to BenchmarkReadBlock is the engine-layer speedup
// of the run-length fast path.
func BenchmarkReadRun(b *testing.B) {
	const blocks = 4096
	for _, scheme := range AllSchemes() {
		b.Run(scheme.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := New(scheme, DefaultConfig(smallBus()))
				if err != nil {
					b.Fatal(err)
				}
				re, ok := e.(RunEngine)
				if !ok {
					b.Fatalf("%v engine does not implement RunEngine", scheme)
				}
				w := dram.NewIssueWindow(16)
				re.ReadRun(0, 0, 1, blocks, w, dram.NoHorizon)
			}
			b.SetBytes(blocks * dram.BlockBytes)
		})
	}
}

// BenchmarkReadRunHot measures the steady-state batched read path on a
// reused engine — the configuration the NPU machine loop actually runs,
// where the streak fast path must not allocate. Run with -benchmem: the
// pinned expectation (see TestBatchedRunNoAllocs) is 0 allocs/op.
func BenchmarkReadRunHot(b *testing.B) {
	const blocks = 4096
	for _, scheme := range AllSchemes() {
		b.Run(scheme.String(), func(b *testing.B) {
			e, err := New(scheme, DefaultConfig(smallBus()))
			if err != nil {
				b.Fatal(err)
			}
			re := e.(RunEngine)
			w := dram.NewIssueWindow(16)
			r, _, _ := re.ReadRun(0, 0, 1, blocks, w, dram.NoHorizon) // warm caches and buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, _, _ = re.ReadRun(r, 0, 1, blocks, w, dram.NoHorizon)
			}
			b.SetBytes(blocks * dram.BlockBytes)
		})
	}
}

// BenchmarkWriteRunHot is BenchmarkReadRunHot's write-side counterpart.
func BenchmarkWriteRunHot(b *testing.B) {
	const blocks = 4096
	for _, scheme := range AllSchemes() {
		b.Run(scheme.String(), func(b *testing.B) {
			e, err := New(scheme, DefaultConfig(smallBus()))
			if err != nil {
				b.Fatal(err)
			}
			re := e.(RunEngine)
			w := dram.NewIssueWindow(16)
			r, _, _ := re.WriteRun(0, 0, 1, blocks, w, dram.NoHorizon)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, _, _ = re.WriteRun(r, 0, 1, blocks, w, dram.NoHorizon)
			}
			b.SetBytes(blocks * dram.BlockBytes)
		})
	}
}

// TestBatchedRunNoAllocs pins the zero-allocation property of the batched
// hot path: after one warmup run (which sizes the engine-owned streak
// buffers and the minor-counter map), steady-state ReadRun/WriteRun must
// not allocate for any scheme.
func TestBatchedRunNoAllocs(t *testing.T) {
	const blocks = 4096
	for _, scheme := range AllSchemes() {
		e, err := New(scheme, DefaultConfig(smallBus()))
		if err != nil {
			t.Fatal(err)
		}
		re := e.(RunEngine)
		w := dram.NewIssueWindow(16)
		var r uint64
		step := func() {
			r, _, _ = re.ReadRun(r, 0, 1, blocks, w, dram.NoHorizon)
			r, _, _ = re.WriteRun(r, 0, 1, blocks, w, dram.NoHorizon)
		}
		step() // warmup
		if avg := testing.AllocsPerRun(20, step); avg != 0 {
			t.Errorf("%v: batched hot path allocates %.1f times per run, want 0", scheme, avg)
		}
	}
}

// BenchmarkWriteRun is ReadRun's write-side counterpart (exercises the
// counter RMW and minor-bump batching in the baseline).
func BenchmarkWriteRun(b *testing.B) {
	const blocks = 4096
	for _, scheme := range AllSchemes() {
		for _, batched := range []bool{false, true} {
			path := "perblock"
			if batched {
				path = "batched"
			}
			b.Run(fmt.Sprintf("%s/%s", scheme, path), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					e, err := New(scheme, DefaultConfig(smallBus()))
					if err != nil {
						b.Fatal(err)
					}
					w := dram.NewIssueWindow(16)
					if batched {
						e.(RunEngine).WriteRun(0, 0, 1, blocks, w, dram.NoHorizon)
					} else {
						runPerBlock(e, false, 0, 0, 1, blocks, w, dram.NoHorizon)
					}
				}
				b.SetBytes(blocks * dram.BlockBytes)
			})
		}
	}
}
