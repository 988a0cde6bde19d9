package exp

import (
	"strings"
	"testing"

	"tnpu/internal/memprot"
)

func TestBandwidthSweep(t *testing.T) {
	s, err := NewRunner("df").BandwidthSweep("df")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 4 {
		t.Fatalf("points = %d", len(s.Points))
	}
	for _, p := range s.Points {
		if p.TNPU > p.Baseline {
			t.Errorf("%s: tnpu %.3f above baseline %.3f", p.Label, p.TNPU, p.Baseline)
		}
		if p.TNPU < 1 || p.Baseline < 1 {
			t.Errorf("%s: overhead below 1: %+v", p.Label, p)
		}
	}
	if !strings.Contains(s.String(), "bandwidth") {
		t.Error("rendering lost the sweep name")
	}
}

func TestSPMSweepShrinksTraffic(t *testing.T) {
	s, err := NewRunner("df").SPMSweep("df")
	if err != nil {
		t.Fatal(err)
	}
	// Larger scratchpads should not make the baseline's normalized
	// overhead dramatically worse (more on-chip reuse, fewer counters).
	first, last := s.Points[0].Baseline, s.Points[len(s.Points)-1].Baseline
	if last > first*1.15 {
		t.Errorf("baseline overhead grew with SPM: %.3f -> %.3f", first, last)
	}
}

func TestLatencySweepWidensGap(t *testing.T) {
	s, err := NewRunner("sent").LatencySweep("sent")
	if err != nil {
		t.Fatal(err)
	}
	// The baseline pays DRAM latency per serialized walk level; TNPU does
	// not. The gap must grow monotonically-ish with latency.
	firstGap := s.Points[0].Baseline - s.Points[0].TNPU
	lastGap := s.Points[len(s.Points)-1].Baseline - s.Points[len(s.Points)-1].TNPU
	if lastGap <= firstGap {
		t.Errorf("gap did not widen with DRAM latency: %.3f -> %.3f", firstGap, lastGap)
	}
}

func TestSweepUnknownModel(t *testing.T) {
	if _, err := NewRunner("nope").BandwidthSweep("nope"); err == nil {
		t.Error("unknown model accepted")
	}
}

// TestSweepReadsFigureCells pins that a sweep point is the x1 cell of its
// configuration: after the three Small x1 cells Figures 4 and 14 read,
// the bandwidth sweep's 1x point simulates nothing, so its four points
// add 3x3 cells, not 4x3.
func TestSweepReadsFigureCells(t *testing.T) {
	r := NewRunner("df")
	for _, s := range []memprot.Scheme{memprot.Unsecure, memprot.Baseline, memprot.TreeLess} {
		if _, err := r.Run("df", Small, s, 1); err != nil {
			t.Fatal(err)
		}
	}
	done := r.Log().CellsDone()
	if _, err := r.BandwidthSweep("df"); err != nil {
		t.Fatal(err)
	}
	if got := r.Log().CellsDone() - done; got != 9 {
		t.Errorf("bandwidth sweep added %d cells to the run log, want 9", got)
	}
}

func TestLayerBreakdownEmbeddingDominates(t *testing.T) {
	shares, err := LayerBreakdown("sent", Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) == 0 {
		t.Fatal("no layers")
	}
	// The embedding layer must account for the bulk of the baseline's
	// EXTRA time (the paper's sent/tf analysis).
	var embExtra, totalExtra int64
	for _, s := range shares {
		extra := int64(s.Baseline) - int64(s.Unsecure)
		totalExtra += extra
		if s.Layer == "embed" {
			embExtra += extra
		}
	}
	if totalExtra <= 0 {
		t.Fatal("no baseline overhead to attribute")
	}
	if embExtra*2 < totalExtra {
		t.Errorf("embedding layer holds only %d of %d extra cycles", embExtra, totalExtra)
	}
}
