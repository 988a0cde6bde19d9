// Package guarddep exports a guard predicate as a fact, mirroring
// dram.Bus.BeginRun guarding memprot's streak bodies.
package guarddep

// Begin reports whether the closed form applies.
//
//tnpu:guard
func Begin(n int) bool { return n > 8 }
