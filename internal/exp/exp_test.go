package exp

import (
	"strings"
	"testing"

	"tnpu/internal/memprot"
)

// testRunner uses a small, fast workload subset.
func testRunner() *Runner { return NewRunner("df", "agz", "sent") }

func TestClassString(t *testing.T) {
	if Small.String() != "small" || Large.String() != "large" {
		t.Error("class names wrong")
	}
	if Small.Config().Name != "small" || Large.Config().Name != "large" {
		t.Error("class configs wrong")
	}
	if len(Classes()) != 2 {
		t.Error("want 2 classes")
	}
}

func TestRunnerDefaultsToAllModels(t *testing.T) {
	if got := len(NewRunner().Models); got != 14 {
		t.Errorf("default runner has %d models, want 14", got)
	}
}

func TestRunCaching(t *testing.T) {
	r := testRunner()
	a, err := r.Run("df", Small, memprot.Baseline, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := r.Run("df", Small, memprot.Baseline, 1)
	if a.Cycles != b.Cycles {
		t.Fatal("cache returned different result")
	}
	if len(r.sims) != 1 {
		t.Fatalf("expected 1 cached run, have %d", len(r.sims))
	}

	// Run and RunMixed are views of one cell: a tuple of one model
	// repeated is the cell of that many copies, whichever asks first.
	done := r.Log().CellsDone()
	if _, err := r.RunMixed([]string{"df"}, Small, memprot.Baseline); err != nil {
		t.Fatal(err)
	}
	if got := r.Log().CellsDone(); got != done {
		t.Errorf("RunMixed([df]) after Run(df x1) computed %d cells, want 0", got-done)
	}
	if _, err := r.RunMixed([]string{"df", "df"}, Small, memprot.TreeLess); err != nil {
		t.Fatal(err)
	}
	done = r.Log().CellsDone()
	if _, err := r.Run("df", Small, memprot.TreeLess, 2); err != nil {
		t.Fatal(err)
	}
	if got := r.Log().CellsDone(); got != done {
		t.Errorf("Run(df x2) after RunMixed([df df]) computed %d cells, want 0", got-done)
	}
}

func TestFigure4(t *testing.T) {
	r := testRunner()
	f, err := r.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 2 {
		t.Fatalf("Figure 4 has %d series, want 2 (small/large)", len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.Values) != 3 {
			t.Fatalf("series %s/%s has %d values", s.Class, s.Label, len(s.Values))
		}
		for i, v := range s.Values {
			if v < 1 {
				t.Errorf("%s baseline overhead %s < 1: %v", s.Class, s.Models[i], v)
			}
		}
		if s.Mean() <= 1 {
			t.Errorf("mean overhead not above 1: %v", s.Mean())
		}
	}
	if !strings.Contains(f.String(), "Figure 4") {
		t.Error("rendering lost the title")
	}
}

func TestFigure5(t *testing.T) {
	r := testRunner()
	f, err := r.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Series {
		for i, v := range s.Values {
			if v < 0 || v > 1 {
				t.Errorf("miss rate out of range: %s=%v", s.Models[i], v)
			}
		}
	}
	// sent (index 2) must dominate df (index 0) on the Small NPU.
	small := f.Series[0]
	if small.Values[2] <= small.Values[0] {
		t.Errorf("sent miss rate %v not above df %v", small.Values[2], small.Values[0])
	}
}

func TestFigure14Ordering(t *testing.T) {
	r := testRunner()
	f, err := r.Figure14()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 4 { // 2 classes x {baseline, tnpu}
		t.Fatalf("Figure 14 has %d series", len(f.Series))
	}
	// Per class: tnpu mean < baseline mean.
	for i := 0; i < len(f.Series); i += 2 {
		base, tnpu := f.Series[i], f.Series[i+1]
		if tnpu.Mean() >= base.Mean() {
			t.Errorf("%s: tnpu mean %.3f not below baseline %.3f", base.Class, tnpu.Mean(), base.Mean())
		}
	}
}

func TestFigure15TrafficBounds(t *testing.T) {
	r := testRunner()
	f, err := r.Figure15()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Series {
		for i, v := range s.Values {
			if v <= 1 || v > 2 {
				t.Errorf("%s/%s %s traffic ratio implausible: %v", s.Class, s.Label, s.Models[i], v)
			}
		}
	}
}

func TestFigure16SeriesCount(t *testing.T) {
	r := NewRunner("df") // single model keeps the 3-NPU sweep fast
	f, err := r.Figure16()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 12 { // 2 classes x 3 counts x 2 schemes
		t.Fatalf("Figure 16 has %d series, want 12", len(f.Series))
	}
}

func TestFigure17(t *testing.T) {
	r := testRunner()
	f, err := r.Figure17()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(f.Series); i += 2 {
		base, tnpu := f.Series[i], f.Series[i+1]
		if tnpu.Mean() >= base.Mean() {
			t.Errorf("e2e %s: tnpu %.3f not below baseline %.3f", base.Class, tnpu.Mean(), base.Mean())
		}
	}
}

func TestTable3(t *testing.T) {
	out := testRunner().Table3()
	for _, want := range []string{"Table III", "df", "sent", "MB"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table3 output missing %q", want)
		}
	}
}

func TestVersionStorage(t *testing.T) {
	per, avg, max, err := testRunner().VersionStorage(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 3 || avg <= 0 || max <= 0 {
		t.Fatalf("version storage: %v avg=%v max=%v", per, avg, max)
	}
	// Sec. IV-D regime: KB-scale, not MB.
	if max > 64<<10 {
		t.Errorf("max version storage %dB not KB-scale", max)
	}
}

func TestHardwareCost(t *testing.T) {
	s := testRunner().HardwareCost()
	if s.AreaMM2 <= 0 || s.PowerMW <= 0 {
		t.Fatal("empty hardware cost")
	}
}

func TestImprovement(t *testing.T) {
	r := testRunner()
	imp, err := r.Improvement(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	if imp <= 0 || imp > 0.5 {
		t.Errorf("improvement %.3f outside plausible range", imp)
	}
}

func TestUnknownModelPropagates(t *testing.T) {
	r := NewRunner("nope")
	if _, err := r.Figure4(); err == nil {
		t.Error("unknown model accepted")
	}
}
