package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tnpu/internal/analysis/checker"
)

// inTempModule materializes files as a throwaway module and chdirs into
// it for the duration of the test, so checker.Main's "./..." patterns
// resolve against the fixture instead of this repository.
func inTempModule(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files { //tnpu:orderfree (files land on disk regardless of creation order)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

// TestSuiteCleanOverTree is the merge gate behind the CI tnpu-vet job:
// the full analyzer suite must run without a single diagnostic over the
// entire module, tests included. A failure here means either a real
// invariant violation crept in or a new check needs its waiver.
func TestSuiteCleanOverTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	var stderr bytes.Buffer
	code := checker.Main(&stderr, []string{"tnpu/..."}, Suite)
	if code != 0 {
		t.Fatalf("tnpu-vet exit %d over tnpu/...:\n%s", code, stderr.String())
	}
}

// TestRejectsFlags pins the argument contract: anything dash-prefixed
// other than -only is a usage error, not a pattern. That includes the
// handshakes of `go vet -vettool`, which tnpu-vet does not speak, so a
// stray -vettool invocation fails at once instead of passing silently.
func TestRejectsFlags(t *testing.T) {
	for _, flag := range []string{"-badflag", "-flags", "-V=full", "-json", "-v"} {
		var stderr bytes.Buffer
		if code := checker.Main(&stderr, []string{flag}, Suite); code != 1 {
			t.Errorf("%s: exit %d, want 1", flag, code)
		}
	}
}

// detmapFixture is a module with one deliberate detmap violation, a map
// range printing in iteration order, and one cycleunits violation for
// -only to leave out.
var detmapFixture = map[string]string{
	"go.mod": "module vetfix\n\ngo 1.22\n",
	"bad.go": `// Package vetfix is a tnpu-vet CLI test fixture.
package vetfix

import "fmt"

// Dump prints in map order.
func Dump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}

// Total adds bytes to cycles.
func Total(readBytes, stallCycles uint64) uint64 { return readBytes + stallCycles }
`,
}

// TestOnlySelectsAnalyzer drives the CLI end to end over detmapFixture:
// the full suite reports both findings, and -only detmap exactly one, as
// the "file:line:col: analyzer: message" line CI's problem matcher
// (.github/tnpu-vet-matcher.json) turns into an annotation.
func TestOnlySelectsAnalyzer(t *testing.T) {
	inTempModule(t, detmapFixture)
	var all bytes.Buffer
	if code := checker.Main(&all, []string{"./..."}, Suite); code != 2 || strings.Count(all.String(), "\n") != 2 {
		t.Fatalf("full suite: exit %d, want 2 with two findings\nstderr:\n%s", code, all.String())
	}
	var stderr bytes.Buffer
	code := checker.Main(&stderr, []string{"-only", "detmap", "./..."}, Suite)
	if code != 2 {
		t.Fatalf("-only detmap: exit %d, want 2 (one finding)\nstderr:\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("-only detmap printed %d lines, want 1:\n%s", len(lines), stderr.String())
	}
	for _, want := range []string{"bad.go:8:", ": detmap: ", "randomized iteration order"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("diagnostic %q lacks %q", lines[0], want)
		}
	}
}

// TestOnlyUnknownAnalyzer pins the failure mode of a typo'd -only list:
// a usage error naming the known analyzers, not a silently empty run.
func TestOnlyUnknownAnalyzer(t *testing.T) {
	var stderr bytes.Buffer
	if code := checker.Main(&stderr, []string{"-only", "nosuch"}, Suite); code != 1 {
		t.Fatalf("-only nosuch: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), `unknown analyzer "nosuch"`) ||
		!strings.Contains(stderr.String(), "detmap") {
		t.Fatalf("-only error should list the known analyzers:\n%s", stderr.String())
	}
}
