package memprot

import (
	"fmt"
	"testing"

	"tnpu/internal/dram"
	"tnpu/internal/isa"
)

// benchStreams are the stream shapes the run benchmarks time: one dense
// 4096-block segment, and a strided tile row of 64 segments of 8 blocks
// each, 1 KB apart (the short-segment shape of compiled DMA instructions,
// which an engine run serves across its segment ends).
func benchStreams(write bool) []struct {
	name string
	s    Stream
} {
	strided := make([]isa.Segment, 64)
	for i := range strided {
		strided[i] = isa.Segment{Addr: uint64(i) << 10, Bytes: 8 * dram.BlockBytes}
	}
	return []struct {
		name string
		s    Stream
	}{
		{"dense", dense(4096, write)},
		{"strided", streamOf(strided, write)},
	}
}

// dense returns the one-segment stream of n blocks from address 0.
func dense(n int, write bool) Stream {
	return streamOf([]isa.Segment{{Addr: 0, Bytes: uint64(n) * dram.BlockBytes}}, write)
}

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

// BenchmarkReadRun measures the same dense stream, and a strided stream of
// short segments, through the batched ReadRun path; the dense ratio to
// BenchmarkReadBlock is the engine-layer speedup of the run-length fast
// path.
func BenchmarkReadRun(b *testing.B) {
	for _, scheme := range AllSchemes() {
		for _, st := range benchStreams(false) {
			b.Run(fmt.Sprintf("%s/%s", scheme, st.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					e, err := New(scheme, DefaultConfig(smallBus()))
					if err != nil {
						b.Fatal(err)
					}
					e.ReadRun(0, &st.s, 1, dram.NewIssueWindow(16), dram.NoHorizon)
				}
				b.SetBytes(int64(st.s.Left) * dram.BlockBytes)
			})
		}
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
			w := dram.NewIssueWindow(16)
			s := dense(blocks, false)
			r, _, _ := e.ReadRun(0, &s, 1, w, dram.NoHorizon) // warm caches and buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, _, _ = e.ReadRun(r, &s, 1, w, dram.NoHorizon)
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
			w := dram.NewIssueWindow(16)
			s := dense(blocks, true)
			r, _, _ := e.WriteRun(0, &s, 1, w, dram.NoHorizon)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, _, _ = e.WriteRun(r, &s, 1, w, dram.NoHorizon)
			}
			b.SetBytes(blocks * dram.BlockBytes)
		})
	}
}

// TestBatchedRunNoAllocs pins the zero-allocation property of the batched
// hot path: after one warmup run (which sizes the engine-owned streak
// buffers and the minor-counter map), steady-state ReadRun/WriteRun must
// not allocate for any scheme, on the dense and on the strided stream.
func TestBatchedRunNoAllocs(t *testing.T) {
	for _, scheme := range AllSchemes() {
		e, err := New(scheme, DefaultConfig(smallBus()))
		if err != nil {
			t.Fatal(err)
		}
		w := dram.NewIssueWindow(16)
		reads, writes := benchStreams(false), benchStreams(true)
		var r uint64
		step := func() {
			for k := range reads {
				r, _, _ = e.ReadRun(r, &reads[k].s, 1, w, dram.NoHorizon)
				r, _, _ = e.WriteRun(r, &writes[k].s, 1, w, dram.NoHorizon)
			}
		}
		step() // warmup
		if avg := testing.AllocsPerRun(20, step); avg != 0 {
			t.Errorf("%v: batched hot path allocates %.1f times per run, want 0", scheme, avg)
		}
	}
}

// BenchmarkWriteRun is ReadRun's write-side counterpart (exercises the
// counter RMW and minor-bump batching in the baseline), against the
// per-block loop on the same streams.
func BenchmarkWriteRun(b *testing.B) {
	for _, scheme := range AllSchemes() {
		for _, st := range benchStreams(true) {
			for _, batched := range []bool{false, true} {
				path := "perblock"
				if batched {
					path = "batched"
				}
				b.Run(fmt.Sprintf("%s/%s/%s", scheme, st.name, path), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						e, err := New(scheme, DefaultConfig(smallBus()))
						if err != nil {
							b.Fatal(err)
						}
						w := dram.NewIssueWindow(16)
						if batched {
							e.WriteRun(0, &st.s, 1, w, dram.NoHorizon)
						} else {
							runPerBlock(e, false, 0, &st.s, 1, w, dram.NoHorizon)
						}
					}
					b.SetBytes(int64(st.s.Left) * dram.BlockBytes)
				})
			}
		}
	}
}
