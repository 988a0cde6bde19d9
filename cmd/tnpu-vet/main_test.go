package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tnpu/internal/analysis/checker"
)

// tempModule materializes files as a throwaway module and returns its
// directory.
func tempModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files { //tnpu:orderfree (files land on disk regardless of creation order)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// inTempModule materializes files as a throwaway module and chdirs into
// it for the duration of the test, so checker.Main's "./..." patterns
// resolve against the fixture instead of this repository.
func inTempModule(t *testing.T, files map[string]string) {
	t.Helper()
	dir := tempModule(t, files)
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
	var stdout, stderr bytes.Buffer
	code := checker.Main(&stdout, &stderr, []string{"tnpu/..."}, Suite)
	if code != 0 {
		t.Fatalf("tnpu-vet exit %d over tnpu/...:\n%s", code, stderr.String())
	}
}

// TestFlagsHandshake pins the first exchange of `go vet -vettool`: the
// tool must describe its flags as a JSON array on stdout and exit 0.
func TestFlagsHandshake(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := checker.Main(&stdout, &stderr, []string{"-flags"}, Suite); code != 0 {
		t.Fatalf("-flags exit %d", code)
	}
	var flags []struct {
		Name  string
		Bool  bool
		Usage string
	}
	if err := json.Unmarshal(stdout.Bytes(), &flags); err != nil {
		t.Fatalf("-flags output %q is not a JSON flag list: %v", stdout.String(), err)
	}
	if len(flags) != 0 {
		t.Fatalf("suite declares no flags, got %v", flags)
	}
}

// TestVersionFlag pins the -V handshake cmd/go uses to identify vet
// tools: a single stable "name version ..." line on stdout and exit 0.
func TestVersionFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := checker.Main(&stdout, &stderr, []string{"-V=full"}, Suite); code != 0 {
		t.Fatalf("-V=full exit %d", code)
	}
	line := strings.TrimSpace(stdout.String())
	if !strings.HasPrefix(line, "tnpu-vet version ") || strings.Contains(line, "\n") {
		t.Fatalf("-V=full output %q; want one 'tnpu-vet version ...' line", line)
	}
}

// TestRejectsFlags pins the argument contract: anything dash-prefixed
// other than the protocol handshakes is a usage error, not a pattern.
func TestRejectsFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := checker.Main(&stdout, &stderr, []string{"-badflag"}, Suite); code != 1 {
		t.Fatalf("flag-looking argument: exit %d, want 1", code)
	}
}

// detmapFixture is a module with one deliberate detmap violation: a map
// range printing in iteration order.
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
`,
}

// TestJSONOnlyAndTiming drives the standalone CLI end to end over a
// fixture module with one deliberate detmap violation: -only restricts
// the suite, -json emits the machine-readable diagnostic array the CI
// problem matcher and editor integrations consume, and -v prints the
// load and per-analyzer wall times on stderr.
func TestJSONOnlyAndTiming(t *testing.T) {
	inTempModule(t, detmapFixture)
	var stdout, stderr bytes.Buffer
	code := checker.Main(&stdout, &stderr, []string{"-json", "-v", "-only", "detmap", "./..."}, Suite)
	if code != 2 {
		t.Fatalf("exit %d, want 2 (one finding)\nstderr:\n%s", code, stderr.String())
	}
	var diags []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
		Waiver   string `json:"waiver"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("-json output is not a diagnostic array: %v\n%s", err, stdout.String())
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1:\n%s", len(diags), stdout.String())
	}
	d := diags[0]
	if filepath.Base(d.File) != "bad.go" || d.Line != 8 || d.Col == 0 {
		t.Errorf("diagnostic position %s:%d:%d; want bad.go:8 with a column", d.File, d.Line, d.Col)
	}
	if d.Analyzer != "detmap" || !strings.Contains(d.Message, "randomized iteration order") {
		t.Errorf("diagnostic %q from %q; want detmap's map-range message", d.Message, d.Analyzer)
	}
	if d.Waiver != "orderfree" {
		t.Errorf("waiver %q; want the analyzer's default waiver orderfree", d.Waiver)
	}
	if !strings.Contains(stderr.String(), "load+typecheck") || !strings.Contains(stderr.String(), "detmap") {
		t.Errorf("-v stderr missing timing lines:\n%s", stderr.String())
	}
	if strings.Contains(stderr.String(), "noalloc") {
		t.Errorf("-only detmap still timed other analyzers:\n%s", stderr.String())
	}
}

// TestOnlyUnknownAnalyzer pins the failure mode of a typo'd -only list:
// a usage error naming the known analyzers, not a silently empty run.
func TestOnlyUnknownAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := checker.Main(&stdout, &stderr, []string{"-only", "nosuch"}, Suite); code != 1 {
		t.Fatalf("-only nosuch: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), `unknown analyzer "nosuch"`) ||
		!strings.Contains(stderr.String(), "detmap") {
		t.Fatalf("-only error should list the known analyzers:\n%s", stderr.String())
	}
}

// TestVetToolProtocol drives the built binary through cmd/go's own
// -vettool plumbing (the -flags and -V=full handshakes, then one vet.cfg
// per package, dependencies included): a fixture with a detmap violation
// must fail with the diagnostic on stderr, and a clean fixture must pass.
func TestVetToolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds tnpu-vet and runs go vet over two fixture modules")
	}
	bin := filepath.Join(t.TempDir(), "tnpu-vet")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build tnpu-vet: %v\n%s", err, out)
	}
	vet := func(files map[string]string) (string, error) {
		cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
		cmd.Dir = tempModule(t, files)
		out, err := cmd.CombinedOutput()
		return string(out), err
	}

	out, err := vet(detmapFixture)
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("go vet over the detmap fixture: err %v, want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(out, "bad.go:8:") || !strings.Contains(out, "randomized iteration order") {
		t.Errorf("go vet stderr lacks the detmap diagnostic at bad.go:8:\n%s", out)
	}

	if out, err := vet(map[string]string{
		"go.mod": "module vetclean\n\ngo 1.22\n",
		"ok.go": `// Package vetclean is a tnpu-vet CLI test fixture.
package vetclean

import (
	"fmt"
	"sort"
)

// Dump prints in sorted key order.
func Dump(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k, m[k])
	}
}
`,
	}); err != nil {
		t.Fatalf("go vet over the clean fixture: %v\n%s", err, out)
	}
}
