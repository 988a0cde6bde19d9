package exp

import (
	"io"
	"testing"

	"tnpu/internal/memprot"
)

// TestRunnerConfigFrozen pins the enforcement of the "set before the first
// figure/sweep call" contract: mutating any public knob after the runner
// has computed a cell must panic instead of silently skewing later cells.
func TestRunnerConfigFrozen(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*Runner)
	}{
		{"Models", func(r *Runner) { r.Models = append(r.Models, "agz") }},
		{"Workers", func(r *Runner) { r.Workers = 7 }},
		{"Progress", func(r *Runner) { r.Progress = io.Discard }},
	}
	for _, tc := range mutations {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := NewRunner("df")
			r.Workers = 2 // before first use: allowed
			if _, err := r.Run("df", Small, memprot.Unsecure, 1); err != nil {
				t.Fatal(err)
			}
			tc.mutate(r)
			defer func() {
				if recover() == nil {
					t.Errorf("%s mutated after first use without panic", tc.name)
				}
			}()
			r.Run("df", Small, memprot.Baseline, 1) //nolint:errcheck // must panic first
		})
	}
}

// TestRunnerConfigFrozenOnForEach covers the second enforcement point: the
// worker pool itself (figure generators fan out through forEach without
// necessarily touching a compute cell first).
func TestRunnerConfigFrozenOnForEach(t *testing.T) {
	r := NewRunner("df")
	if _, _, _, err := r.VersionStorage(Small); err != nil {
		t.Fatal(err)
	}
	r.Workers = 3
	defer func() {
		if recover() == nil {
			t.Error("Workers mutated after first forEach without panic")
		}
	}()
	r.VersionStorage(Small) //nolint:errcheck // must panic first
}

// TestImprovementNoModels pins the headline metric's empty-set behavior:
// an explicit error, not the NaN that 0/0 used to produce.
func TestImprovementNoModels(t *testing.T) {
	r := NewRunner("df")
	r.Models = nil
	if _, err := r.Improvement(Small, 1); err == nil {
		t.Error("Improvement with no models returned no error (previously NaN)")
	}
}
