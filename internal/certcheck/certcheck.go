// Package certcheck is the runtime half of the canoncover contract: it
// loads the certification artifact that `tnpu-vet -certify` writes
// (testdata/canoncover.json at the repository root) and cross-checks it
// against the live types via reflection. The static analyzer proves the
// digest functions cover the certified leaf sets; these helpers prove the
// certified sets still describe the compiled structs. Together they close
// the loop: adding a field without re-running certification
// (scripts/lint.sh regenerates and diffs the artifact) fails the
// package's cross-check test, and re-running certification on an
// uncovered field fails tnpu-vet.
package certcheck

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// Entry mirrors one canoncover.CertFact in the artifact.
type Entry struct {
	Type    string   `json:"type"`
	Covered []string `json:"covered"`
	Waived  []string `json:"waived"`
}

// Load reads a certification artifact and indexes it by qualified type
// name (e.g. "tnpu/internal/npu.Config").
func Load(t *testing.T, path string) map[string]Entry {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read certification artifact: %v (regenerate with scripts/lint.sh or `go run ./cmd/tnpu-vet -certify testdata/canoncover.json ./...`)", err)
	}
	var entries []Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	certs := make(map[string]Entry, len(entries))
	for _, e := range entries {
		certs[e.Type] = e
	}
	return certs
}

// LeafPathsMatch asserts that the certified covered∪waived entries for
// typeName are exactly the dot-joined scalar leaf paths of v's type,
// with waived paths pruning their subtree. It backs the digest
// certificates, which list leaves (e.g. "Mem.FreqHz").
func LeafPathsMatch(t *testing.T, certs map[string]Entry, typeName string, v any) {
	t.Helper()
	rt := reflect.TypeOf(v)
	waived := make(map[string]bool)
	if cert, ok := certs[typeName]; ok {
		for _, w := range cert.Waived {
			waived[w] = true
		}
	}
	var live []string
	var walk func(rt reflect.Type, prefix string)
	walk = func(rt reflect.Type, prefix string) {
		if waived[prefix] || rt.Kind() != reflect.Struct {
			live = append(live, prefix)
			return
		}
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			path := f.Name
			if prefix != "" {
				path = prefix + "." + f.Name
			}
			walk(f.Type, path)
		}
	}
	walk(rt, "")
	compare(t, certs, typeName, rt, live)
}

// compare diffs the live leaf-path set against the certificate in both
// directions so the failure names the exact drift.
func compare(t *testing.T, certs map[string]Entry, typeName string, rt reflect.Type, live []string) {
	t.Helper()
	cert, ok := certs[typeName]
	if !ok {
		t.Fatalf("no certificate for %s: re-run `go run ./cmd/tnpu-vet -certify testdata/canoncover.json ./...` and commit the artifact", typeName)
	}
	certified := make(map[string]bool, len(cert.Covered)+len(cert.Waived))
	for _, f := range cert.Covered {
		certified[f] = true
	}
	for _, f := range cert.Waived {
		certified[f] = true
	}
	sort.Strings(live)
	for _, f := range live {
		if !certified[f] {
			t.Errorf("%s (%s) has field %q with no certificate entry: the committed testdata/canoncover.json is stale — regenerate it, and cover or //tnpu:canonskip the field", rt, typeName, f)
		}
		delete(certified, f)
	}
	for f := range certified { //tnpu:orderfree (each leftover reported independently)
		t.Errorf("certificate for %s names field %q which %s no longer has: regenerate testdata/canoncover.json", typeName, f, rt)
	}
}
