// tnpu-vet is the multichecker for this repository's invariant suite
// (DESIGN.md §7c): five stdlib-only go/analysis-style passes that
// mechanically enforce the simulator's correctness contracts —
// determinism of emitted output (detmap), consumption of verification
// errors (secerr), the zero-allocation batched hot path (noalloc),
// per-goroutine engine ownership (goroutinesafe), and cycle/byte unit
// discipline (cycleunits). Each pass looks at one package at a time;
// the invariants that once needed cross-package checking (digest
// coverage, guarded fast paths, side-effect-free guards) now hold by
// construction or are pinned by differential tests.
//
// Usage:
//
//	tnpu-vet [-only a1,a2] [packages]    # e.g. tnpu-vet ./...
//
// -only restricts the suite to the named analyzers; packages default to
// ./... . Each diagnostic goes to stderr as "file:line:col: analyzer:
// message", and any diagnostic makes the exit status 2. scripts/lint.sh
// runs it alongside gofmt/vet/staticcheck, and the CI lint job gates
// merges on a clean run.
package main

import (
	"os"

	"tnpu/internal/analysis"
	"tnpu/internal/analysis/checker"
	"tnpu/internal/analysis/cycleunits"
	"tnpu/internal/analysis/detmap"
	"tnpu/internal/analysis/goroutinesafe"
	"tnpu/internal/analysis/noalloc"
	"tnpu/internal/analysis/secerr"
)

// Suite is the full analyzer set, in diagnostic-priority order.
var Suite = []*analysis.Analyzer{
	detmap.Analyzer,
	secerr.Analyzer,
	noalloc.Analyzer,
	goroutinesafe.Analyzer,
	cycleunits.Analyzer,
}

func main() {
	os.Exit(checker.Main(os.Stderr, os.Args[1:], Suite))
}
