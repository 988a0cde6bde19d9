package analysistest

import (
	"go/ast"
	"strings"
	"testing"

	"tnpu/internal/analysis"
)

// boomAnalyzer flags every call to a function named boom — the smallest
// possible analyzer, used to test the harness rather than any contract.
var boomAnalyzer = &analysis.Analyzer{
	Name: "boom",
	Run: func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "boom" {
						pass.Reportf(call.Pos(), "call to boom is forbidden")
					}
				}
				return true
			})
		}
		return nil
	},
}

// TestSelfTestBrokenWants runs the harness over a fixture whose want
// comments are wrong in both directions and asserts the failure strings
// are the readable diff a fixture author needs: the unmet expectation
// with its quoted substring, and the unexpected diagnostic with its
// message, both prefixed file:line.
func TestSelfTestBrokenWants(t *testing.T) {
	failures, err := Check(t.TempDir(), "testdata/selftest", boomAnalyzer, "selftest")
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 2 {
		t.Fatalf("expected exactly 2 failures, got %d:\n%s",
			len(failures), strings.Join(failures, "\n"))
	}
	// Unmet wants are reported first, in position order.
	if !strings.Contains(failures[0], `expected diagnostic containing "never fires", got none`) ||
		!strings.HasPrefix(failures[0], "selftest/selftest.go:") {
		t.Errorf("unmet-want failure not readable: %q", failures[0])
	}
	if !strings.Contains(failures[1], "unexpected diagnostic: call to boom is forbidden") ||
		!strings.HasPrefix(failures[1], "selftest/selftest.go:") {
		t.Errorf("unexpected-diagnostic failure not readable: %q", failures[1])
	}
}

// TestSelfTestCleanFixture is the positive control: matching wants
// produce zero failures.
func TestSelfTestCleanFixture(t *testing.T) {
	failures, err := Check(t.TempDir(), "testdata/selftest", boomAnalyzer, "okpkg")
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("expected clean fixture, got:\n%s", strings.Join(failures, "\n"))
	}
}
