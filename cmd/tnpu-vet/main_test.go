package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tnpu/internal/analysis/canoncover"
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

// TestJSONOnlyAndTiming drives the standalone CLI end to end over a
// fixture module with one deliberate purity violation: -only restricts
// the suite, -json emits the machine-readable diagnostic array the CI
// problem matcher and editor integrations consume, and -v prints the
// load and per-analyzer wall times on stderr.
func TestJSONOnlyAndTiming(t *testing.T) {
	inTempModule(t, map[string]string{
		"go.mod": "module vetjson\n\ngo 1.22\n",
		"bad.go": `// Package vetjson is a tnpu-vet CLI test fixture.
package vetjson

// Bad is deliberately misannotated: it stores through its argument.
//
//tnpu:pure
func Bad(p *uint64) { *p = 1 }
`,
	})
	var stdout, stderr bytes.Buffer
	code := checker.Main(&stdout, &stderr, []string{"-json", "-v", "-only", "purity", "./..."}, Suite)
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
	if filepath.Base(d.File) != "bad.go" || d.Line == 0 || d.Col == 0 {
		t.Errorf("diagnostic position %s:%d:%d; want bad.go with line and col", d.File, d.Line, d.Col)
	}
	if d.Analyzer != "purity" || !strings.Contains(d.Message, "annotated //tnpu:pure but") {
		t.Errorf("diagnostic %q from %q; want purity's misannotation message", d.Message, d.Analyzer)
	}
	if d.Waiver != "pureok" {
		t.Errorf("waiver %q; want the analyzer's default waiver pureok", d.Waiver)
	}
	if !strings.Contains(stderr.String(), "load+typecheck") || !strings.Contains(stderr.String(), "purity") {
		t.Errorf("-v stderr missing timing lines:\n%s", stderr.String())
	}
	if strings.Contains(stderr.String(), "noalloc") {
		t.Errorf("-only purity still timed other analyzers:\n%s", stderr.String())
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
		!strings.Contains(stderr.String(), "purity") {
		t.Fatalf("-only error should list the known analyzers:\n%s", stderr.String())
	}
}

// TestCertifyWritesArtifact runs -certify over a minimal digest-covered
// struct and checks the emitted artifact names the type and its covered
// leaf fields — the mechanism that produces testdata/canoncover.json at
// the repo root.
func TestCertifyWritesArtifact(t *testing.T) {
	inTempModule(t, map[string]string{
		"go.mod": "module vetcert\n\ngo 1.22\n",
		"s.go": `// Package vetcert is a tnpu-vet -certify test fixture.
package vetcert

// S is a minimal digest target.
type S struct{ a uint64 }

// Digest renders every field of s.
//
//tnpu:digestcover S
func Digest(s S) uint64 { return s.a }
`,
	})
	checker.Certify = canoncover.Certify
	t.Cleanup(func() { checker.Certify = nil })
	var stdout, stderr bytes.Buffer
	out := filepath.Join(t.TempDir(), "cert.json")
	if code := checker.Main(&stdout, &stderr, []string{"-certify", out, "./..."}, Suite); code != 0 {
		t.Fatalf("-certify exit %d:\n%s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var certs []struct {
		Type    string   `json:"type"`
		Covered []string `json:"covered"`
	}
	if err := json.Unmarshal(data, &certs); err != nil {
		t.Fatalf("certify artifact is not JSON: %v\n%s", err, data)
	}
	if len(certs) != 1 || certs[0].Type != "vetcert.S" ||
		len(certs[0].Covered) != 1 || certs[0].Covered[0] != "a" {
		t.Fatalf("certify artifact %s; want one vetcert.S entry covering [a]", data)
	}
}
