package purity_test

import (
	"testing"

	"tnpu/internal/analysis/analysistest"
	"tnpu/internal/analysis/purity"
)

func TestPurity(t *testing.T) {
	analysistest.Run(t, "testdata", purity.Analyzer, "purity")
}
