package canoncover_test

import (
	"testing"

	"tnpu/internal/analysis/analysistest"
	"tnpu/internal/analysis/canoncover"
)

func TestDigestCover(t *testing.T) {
	analysistest.Run(t, "testdata", canoncover.Analyzer, "npu", "exp", "missing/exp")
}
