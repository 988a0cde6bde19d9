// Package analysistest is a stdlib-only re-implementation of
// golang.org/x/tools/go/analysis/analysistest, sized for this repo's
// analyzers: it materializes a testdata package tree as a throwaway
// module, loads it through internal/analysis/load (so fixtures
// type-check against real export data), runs one analyzer, and matches
// its diagnostics against `// want "substring"` expectations written on
// the offending lines.
//
// Expectation syntax (a deliberate subset of x/tools'):
//
//	x := onlyBad() // want "is discarded"
//
// Each `// want` comment holds one double-quoted substring that must
// occur in the message of a diagnostic reported on that line. Every
// diagnostic must be wanted and every want must fire, or the test
// fails. Lines without a want comment must stay clean — including
// waiver-carrying lines, which is how the waiver cases are expressed.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"tnpu/internal/analysis"
	"tnpu/internal/analysis/checker"
)

// wantRE extracts the quoted expectation from a // want comment.
var wantRE = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// Run materializes testdata (a directory containing src/<pkg>/...),
// loads the named package patterns, applies the analyzer, and checks
// diagnostics against // want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, patterns ...string) {
	t.Helper()
	failures, err := Check(t.TempDir(), testdata, a, patterns...)
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}
	for _, f := range failures {
		t.Error(f)
	}
}

// Check is Run's engine, decoupled from *testing.T so the framework can
// test itself: it materializes the fixture tree into scratch (an empty
// directory the caller owns), runs the analyzer, and returns one
// human-readable failure string per mismatch between diagnostics and
// // want expectations — unmet wants first (in file/line order), then
// unexpected diagnostics. An empty slice means the fixture passed.
func Check(scratch, testdata string, a *analysis.Analyzer, patterns ...string) ([]string, error) {
	src := filepath.Join(testdata, "src")
	if err := copyTree(scratch, src); err != nil {
		return nil, fmt.Errorf("copy testdata: %v", err)
	}
	gomod := filepath.Join(scratch, "go.mod")
	if err := os.WriteFile(gomod, []byte("module testdata\n\ngo 1.22\n"), 0o666); err != nil {
		return nil, err
	}
	var qualified []string
	for _, p := range patterns {
		qualified = append(qualified, "testdata/"+p)
	}
	diags, err := checker.Run(scratch, []*analysis.Analyzer{a}, qualified...)
	if err != nil {
		return nil, err
	}

	// Only the requested packages' wants apply: testdata trees hold
	// several independent fixture suites, and a want in a package this
	// invocation does not analyze must not count as unmet.
	wants := make(map[posKey][]string)
	for _, p := range patterns {
		if err := collectWants(src, filepath.Join(src, p), wants); err != nil {
			return nil, err
		}
	}
	// Index diagnostics by file-relative position; testdata files were
	// copied, so strip the temp dir to compare against the source tree.
	var failures []string
	matched := make([]bool, len(diags))
	var keys []posKey
	for key := range wants {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, key := range keys {
		for _, want := range wants[key] {
			found := false
			for i, d := range diags {
				if matched[i] {
					continue
				}
				rel, rErr := filepath.Rel(scratch, d.Position.Filename)
				if rErr != nil {
					continue
				}
				if (posKey{rel, d.Position.Line}) == key && strings.Contains(d.Message, want) {
					matched[i] = true
					found = true
					break
				}
			}
			if !found {
				failures = append(failures,
					fmt.Sprintf("%s:%d: expected diagnostic containing %q, got none", key.file, key.line, want))
			}
		}
	}
	for i, d := range diags {
		if !matched[i] {
			rel, _ := filepath.Rel(scratch, d.Position.Filename)
			failures = append(failures,
				fmt.Sprintf("%s:%d: unexpected diagnostic: %s", rel, d.Position.Line, d.Message))
		}
	}
	return failures, nil
}

type posKey struct {
	file string // path relative to the temp module root
	line int
}

// collectWants scans one fixture package directory for // want comments,
// keyed by position relative to the testdata src root.
func collectWants(root, dir string, wants map[posKey][]string) error {
	return filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				unq := strings.NewReplacer(`\"`, `"`, `\\`, `\`).Replace(m[1])
				key := posKey{rel, i + 1}
				wants[key] = append(wants[key], unq)
			}
		}
		return nil
	})
}

// copyTree copies the package tree under src into dst, flattening the
// leading "src/" so testdata/src/foo becomes <module>/foo.
func copyTree(dst, src string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o777)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o666)
	})
}
