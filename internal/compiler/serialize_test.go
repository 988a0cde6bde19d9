package compiler

import (
	"bytes"
	"testing"
)

func TestProgramSerializationRoundTrip(t *testing.T) {
	for _, short := range []string{"df", "sent"} {
		orig := compileShort(t, short, smallCfg())
		var buf bytes.Buffer
		n, err := orig.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
		}
		got, err := ReadProgram(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.MemoryTop != orig.MemoryTop {
			t.Fatalf("%s: memory top %d != %d", short, got.MemoryTop, orig.MemoryTop)
		}
		if len(got.Tensors) != len(orig.Tensors) {
			t.Fatalf("%s: tensor count %d != %d", short, len(got.Tensors), len(orig.Tensors))
		}
		for i := range got.Tensors {
			if got.Tensors[i] != orig.Tensors[i] {
				t.Fatalf("%s: tensor %d differs: %+v vs %+v", short, i, got.Tensors[i], orig.Tensors[i])
			}
		}
		if len(got.Trace.Instrs) != len(orig.Trace.Instrs) {
			t.Fatalf("%s: instr count differs", short)
		}
		for i := range got.Trace.Instrs {
			a, b := &got.Trace.Instrs[i], &orig.Trace.Instrs[i]
			if a.Op != b.Op || a.Tensor != b.Tensor || a.Tile != b.Tile ||
				a.Version != b.Version || a.Cycles != b.Cycles || a.Layer != b.Layer ||
				len(a.Segments) != len(b.Segments) || len(a.Deps) != len(b.Deps) {
				t.Fatalf("%s: instr %d differs:\n%v\n%v", short, i, a, b)
			}
			for s := range a.Segments {
				if a.Segments[s] != b.Segments[s] {
					t.Fatalf("%s: instr %d segment %d differs", short, i, s)
				}
			}
			for d := range a.Deps {
				if a.Deps[d] != b.Deps[d] {
					t.Fatalf("%s: instr %d dep %d differs", short, i, d)
				}
			}
		}
		if len(got.LayerFirst) != len(orig.LayerFirst) {
			t.Fatalf("%s: layer ranges differ", short)
		}
	}
}

func TestReadProgramRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		append([]byte{0x55, 0x50, 0x4E, 0x54}, bytes.Repeat([]byte{0xFF}, 32)...), // right magic, garbage after
		bytes.Repeat([]byte{0}, 64), // wrong magic
	}
	for i, c := range cases {
		if _, err := ReadProgram(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestReadProgramTruncation(t *testing.T) {
	orig := compileShort(t, "df", smallCfg())
	var buf bytes.Buffer
	orig.WriteTo(&buf)
	full := buf.Bytes()
	for _, cut := range []int{8, len(full) / 2, len(full) - 1} {
		if _, err := ReadProgram(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}
