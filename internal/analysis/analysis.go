// Package analysis is a dependency-free re-implementation of the core of
// golang.org/x/tools/go/analysis, sized for this repository's needs. The
// module is deliberately stdlib-only (DESIGN.md §2), so the invariant
// checkers under internal/analysis/* and the cmd/tnpu-vet driver cannot
// import the x/tools framework; this package supplies the same shape —
// an Analyzer runs over one type-checked package and reports positioned
// Diagnostics — plus the repo-wide waiver-comment convention.
//
// Waivers: every analyzer that enforces a contract accepts an explicit,
// greppable escape hatch written as a //tnpu:<marker> comment on the
// flagged line or on the line directly above it. Deliberate exceptions
// are annotated at the violation site instead of weakening the analyzer
// (see DESIGN.md §7c for the catalogue of markers).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one invariant checker: a named pass over a single
// type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and test expectations.
	// It must be a valid Go identifier.
	Name string

	// Run applies the analyzer to one package. Findings are delivered
	// through pass.Report; the error return is reserved for analyzer
	// malfunction (it aborts the whole run, it is not a finding).
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through an Analyzer.Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding.
	Report func(Diagnostic)

	// comments indexes every comment line per file, built lazily by
	// WaivedAt so analyzers that never consult waivers pay nothing.
	comments map[string]map[int]string
}

// Diagnostic is one positioned finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// WaivedAt reports whether a //tnpu:<marker> waiver comment covers pos:
// the marker appears in a comment on the same source line or on the line
// directly above. The marker is matched as a whole word so "orderfree"
// does not also waive "orderfreeze".
func (p *Pass) WaivedAt(pos token.Pos, marker string) bool {
	if p.comments == nil {
		p.comments = make(map[string]map[int]string)
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					cp := p.Fset.Position(c.Pos())
					byLine := p.comments[cp.Filename]
					if byLine == nil {
						byLine = make(map[int]string)
						p.comments[cp.Filename] = byLine
					}
					// A /* */ comment can span lines; index it at every
					// line it covers so a trailing waiver still lands.
					end := p.Fset.Position(c.End()).Line
					for line := cp.Line; line <= end; line++ {
						byLine[line] += " " + c.Text
					}
				}
			}
		}
	}
	want := "tnpu:" + marker
	at := p.Fset.Position(pos)
	byLine := p.comments[at.Filename]
	for _, line := range []int{at.Line, at.Line - 1} {
		if hasMarkerWord(byLine[line], want) {
			return true
		}
	}
	return false
}

// hasMarkerWord reports whether text contains want as a whole marker
// token (terminated by a non-marker character or end of text).
func hasMarkerWord(text, want string) bool {
	for i := 0; ; {
		j := strings.Index(text[i:], want)
		if j < 0 {
			return false
		}
		end := i + j + len(want)
		if end == len(text) || !isMarkerChar(text[end]) {
			return true
		}
		i = end
	}
}

func isMarkerChar(b byte) bool {
	return b == '-' || b == '_' ||
		'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || '0' <= b && b <= '9'
}

// DocHasMarker reports whether a doc comment group contains the
// //tnpu:<marker> annotation.
func DocHasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	want := "tnpu:" + marker
	for _, c := range doc.List {
		if hasMarkerWord(c.Text, want) {
			return true
		}
	}
	return false
}

// IsTestFile reports whether pos lies in a _test.go file. noalloc and
// cycleunits, whose contracts concern only the shipped timing model, skip
// test files; detmap, secerr and goroutinesafe check them too.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// PkgBase returns the last element of a package path: analyzers match
// contract packages ("secmem", "memprot", "attack", …) by base name so
// the same registry covers both the real tree (tnpu/internal/secmem) and
// the analysistest fixtures (testdata/secmem).
func PkgBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
