package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTrafficAccumulation(t *testing.T) {
	var tr Traffic
	tr.AddRead(Data, 64)
	tr.AddRead(Data, 64)
	tr.AddWrite(Data, 128)
	tr.AddRead(MAC, 8)
	tr.AddWrite(Counter, 64)

	if got := tr.Read(Data); got != 128 {
		t.Errorf("Read(Data) = %d, want 128", got)
	}
	if got := tr.Write(Data); got != 128 {
		t.Errorf("Write(Data) = %d, want 128", got)
	}
	if got := tr.Class(Data); got != 256 {
		t.Errorf("Class(Data) = %d, want 256", got)
	}
	if got := tr.Total(); got != 256+8+64 {
		t.Errorf("Total = %d, want %d", got, 256+8+64)
	}
	if got := tr.Metadata(); got != 72 {
		t.Errorf("Metadata = %d, want 72", got)
	}
}

func TestTrafficMergeAndReset(t *testing.T) {
	var a, b Traffic
	a.AddRead(Data, 100)
	b.AddWrite(Hash, 50)
	b.AddRead(Version, 8)
	a.Merge(&b)
	if a.Total() != 158 {
		t.Fatalf("merged total = %d, want 158", a.Total())
	}
	a.Reset()
	if a.Total() != 0 {
		t.Fatalf("total after reset = %d, want 0", a.Total())
	}
}

func TestTrafficClassString(t *testing.T) {
	want := map[TrafficClass]string{
		Data: "data", Counter: "counter", Hash: "hash", MAC: "mac", Version: "version",
	}
	// Each iteration asserts independently; order never reaches output.
	for c, s := range want { //tnpu:orderfree
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), s)
		}
	}
	if got := TrafficClass(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown class string = %q", got)
	}
}

func TestCacheStatsMissRate(t *testing.T) {
	var s CacheStats
	if s.MissRate() != 0 {
		t.Fatal("empty stats should have miss rate 0")
	}
	s.Lookups = 10
	s.Misses = 3
	if got := s.MissRate(); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("MissRate = %v, want 0.3", got)
	}
	var other CacheStats
	other.Lookups = 10
	other.Misses = 7
	s.Merge(&other)
	if got := s.MissRate(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("merged MissRate = %v, want 0.5", got)
	}
}

func TestGeoMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{2}, 2},
		{[]float64{1, 4}, 2},
		{[]float64{2, 2, 2}, 2},
	}
	for _, c := range cases {
		if got := GeoMean(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("GeoMean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestGeoMeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive input")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{1, 2, 3}); math.Abs(got-2) > 1e-12 {
		t.Errorf("Mean = %v, want 2", got)
	}
}

// Property: merging two traffic tallies equals summing their totals.
func TestTrafficMergeProperty(t *testing.T) {
	f := func(r1, w1, r2, w2 uint32) bool {
		var a, b Traffic
		a.AddRead(Data, uint64(r1))
		a.AddWrite(MAC, uint64(w1))
		b.AddRead(Counter, uint64(r2))
		b.AddWrite(Hash, uint64(w2))
		want := a.Total() + b.Total()
		a.Merge(&b)
		return a.Total() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: GeoMean of positive values lies between min and max.
func TestGeoMeanBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r) + 1 // ensure positive
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g := GeoMean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("model", "value")
	tb.AddRow("res", F(1.234567))
	tb.AddRow("goo") // short row padded
	out := tb.String()
	if !strings.Contains(out, "model") || !strings.Contains(out, "1.235") {
		t.Errorf("unexpected table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4:\n%s", len(lines), out)
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.211); got != "21.1%" {
		t.Errorf("Pct = %q, want 21.1%%", got)
	}
}

func TestTrafficString(t *testing.T) {
	var tr Traffic
	tr.AddRead(Data, 64)
	tr.AddWrite(MAC, 8)
	s := tr.String()
	if !strings.Contains(s, "data=64") || !strings.Contains(s, "mac=8") {
		t.Errorf("Traffic.String() = %q", s)
	}
}

func TestDetectionStatsCoverage(t *testing.T) {
	var d DetectionStats
	if d.Coverage() != 0 {
		t.Errorf("empty coverage = %v, want 0", d.Coverage())
	}
	d = DetectionStats{Injections: 24, Detected: 24}
	if d.Coverage() != 1 {
		t.Errorf("full coverage = %v, want 1", d.Coverage())
	}
	d = DetectionStats{Injections: 24, Detected: 12, Silent: 6, Inert: 6}
	if d.Coverage() != 0.5 {
		t.Errorf("half coverage = %v, want 0.5", d.Coverage())
	}
}

func TestDetectionStatsMerge(t *testing.T) {
	a := DetectionStats{Injections: 10, Detected: 10}
	b := DetectionStats{Injections: 6, Detected: 2, Silent: 3, Inert: 1}
	a.Merge(&b)
	want := DetectionStats{Injections: 16, Detected: 12, Silent: 3, Inert: 1}
	if a != want {
		t.Errorf("merged = %+v, want %+v", a, want)
	}
}

func TestDetectionStatsString(t *testing.T) {
	d := DetectionStats{Injections: 24, Detected: 24}
	s := d.String()
	for _, part := range []string{"injected=24", "detected=24", "silent=0", "inert=0", "coverage=100.0%"} {
		if !strings.Contains(s, part) {
			t.Errorf("String() = %q, missing %q", s, part)
		}
	}
}
