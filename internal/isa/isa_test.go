package isa

import (
	"strings"
	"testing"
)

func TestOpStrings(t *testing.T) {
	want := map[Op]string{OpMvIn: "mvin", OpMvOut: "mvout", OpPreload: "preload", OpCompute: "compute"}
	// Each iteration asserts independently; order never reaches output.
	for op, s := range want { //tnpu:orderfree
		if op.String() != s {
			t.Errorf("%v.String() = %q, want %q", int(op), op.String(), s)
		}
	}
	if !strings.Contains(Op(9).String(), "9") {
		t.Error("unknown op string")
	}
}

func TestTotalBytes(t *testing.T) {
	in := Instr{Op: OpMvIn, Segments: []Segment{{0, 100}, {4096, 28}}}
	if in.TotalBytes() != 128 {
		t.Errorf("TotalBytes = %d, want 128", in.TotalBytes())
	}
	if !in.IsDMA() {
		t.Error("mvin should be DMA")
	}
	if (&Instr{Op: OpCompute}).IsDMA() {
		t.Error("compute is not DMA")
	}
}

func TestAppendReturnsIndex(t *testing.T) {
	var tr Trace
	i0 := tr.Append(Instr{Op: OpMvIn, Segments: []Segment{{0, 64}}})
	i1 := tr.Append(Instr{Op: OpCompute, Cycles: 10, Deps: []int32{i0}})
	if i0 != 0 || i1 != 1 {
		t.Fatalf("indices = %d,%d", i0, i1)
	}
}

func TestValidateGood(t *testing.T) {
	var tr Trace
	a := tr.Append(Instr{Op: OpMvIn, Segments: []Segment{{0, 64}}})
	c := tr.Append(Instr{Op: OpCompute, Cycles: 5, Deps: []int32{a}})
	tr.Append(Instr{Op: OpMvOut, Segments: []Segment{{64, 64}}, Deps: []int32{c}})
	tr.Append(Instr{Op: OpPreload})
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		tr   Trace
	}{
		{"forward dep", Trace{Instrs: []Instr{{Op: OpCompute, Cycles: 1, Deps: []int32{0}}}}},
		{"future dep", Trace{Instrs: []Instr{{Op: OpCompute, Cycles: 1, Deps: []int32{5}}}}},
		{"empty mvin", Trace{Instrs: []Instr{{Op: OpMvIn}}}},
		{"zero-byte mvout", Trace{Instrs: []Instr{{Op: OpMvOut, Segments: []Segment{{0, 0}}}}}},
		// An empty segment inside a transfer would be one block on the
		// per-block path and none on the batched one.
		{"zero-byte segment", Trace{Instrs: []Instr{{Op: OpMvIn, Segments: []Segment{{0, 640}, {640, 0}, {1280, 640}}}}}},
		{"zero-cycle compute", Trace{Instrs: []Instr{{Op: OpCompute}}}},
		{"unknown op", Trace{Instrs: []Instr{{Op: Op(99)}}}},
	}
	for _, c := range cases {
		if err := c.tr.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestSummarize(t *testing.T) {
	var tr Trace
	tr.Append(Instr{Op: OpMvIn, Layer: 0, Segments: []Segment{{0, 128}}})
	tr.Append(Instr{Op: OpCompute, Layer: 0, Cycles: 100})
	tr.Append(Instr{Op: OpMvOut, Layer: 1, Segments: []Segment{{0, 64}}})
	s := tr.Summarize()
	if s.MvIns != 1 || s.MvOuts != 1 || s.Computes != 1 {
		t.Errorf("op counts wrong: %+v", s)
	}
	if s.BytesIn != 128 || s.BytesOut != 64 || s.ComputeCycles != 100 {
		t.Errorf("byte/cycle sums wrong: %+v", s)
	}
	if s.Layers != 2 {
		t.Errorf("layers = %d, want 2", s.Layers)
	}
}

func TestInstrString(t *testing.T) {
	in := Instr{Op: OpMvIn, Tensor: 3, Tile: 1, Version: 7, Layer: 2, Segments: []Segment{{0, 64}}}
	s := in.String()
	for _, want := range []string{"mvin", "t3.1", "v7", "64B"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	c := Instr{Op: OpCompute, Cycles: 42, Deps: []int32{1}}
	if !strings.Contains(c.String(), "42 cycles") || !strings.Contains(c.String(), "deps") {
		t.Errorf("compute String() = %q", c.String())
	}
}
