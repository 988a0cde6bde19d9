// Package stats collects simulation metrics: cycle counts, per-category
// memory traffic, and cache hit/miss counters. All simulator components
// report into a Traffic or CacheStats value owned by the run, so a finished
// simulation can be summarized without global state.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// TrafficClass labels the reason bytes crossed the memory bus.
type TrafficClass int

const (
	// Data is plaintext/ciphertext tensor payload traffic.
	Data TrafficClass = iota
	// Counter is encryption-counter line traffic (baseline scheme only).
	Counter
	// Hash is integrity-tree node traffic (baseline scheme only).
	Hash
	// MAC is per-block message-authentication-code traffic.
	MAC
	// Version is version-table traffic to the fully protected region
	// (tree-less scheme only).
	Version
	numTrafficClasses
)

// String returns the canonical lower-case name of the class.
func (c TrafficClass) String() string {
	switch c {
	case Data:
		return "data"
	case Counter:
		return "counter"
	case Hash:
		return "hash"
	case MAC:
		return "mac"
	case Version:
		return "version"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Traffic accumulates bus bytes by class and direction.
type Traffic struct {
	read  [numTrafficClasses]uint64
	write [numTrafficClasses]uint64
}

// AddRead records bytes read from DRAM for the given class.
func (t *Traffic) AddRead(c TrafficClass, bytes uint64) { t.read[c] += bytes }

// AddWrite records bytes written to DRAM for the given class.
func (t *Traffic) AddWrite(c TrafficClass, bytes uint64) { t.write[c] += bytes }

// Read returns total bytes read for the class.
func (t *Traffic) Read(c TrafficClass) uint64 { return t.read[c] }

// Write returns total bytes written for the class.
func (t *Traffic) Write(c TrafficClass) uint64 { return t.write[c] }

// Class returns read+write bytes for one class.
func (t *Traffic) Class(c TrafficClass) uint64 { return t.read[c] + t.write[c] }

// Total returns all bytes moved across every class and direction.
func (t *Traffic) Total() uint64 {
	var sum uint64
	for c := TrafficClass(0); c < numTrafficClasses; c++ {
		sum += t.read[c] + t.write[c]
	}
	return sum
}

// Metadata returns all non-Data bytes (security metadata overhead).
func (t *Traffic) Metadata() uint64 { return t.Total() - t.Class(Data) }

// Merge adds other's counts into t.
func (t *Traffic) Merge(other *Traffic) {
	for c := TrafficClass(0); c < numTrafficClasses; c++ {
		t.read[c] += other.read[c]
		t.write[c] += other.write[c]
	}
}

// Reset zeroes every counter.
func (t *Traffic) Reset() { *t = Traffic{} }

// String renders a compact single-line breakdown.
func (t *Traffic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "total=%d", t.Total())
	for c := TrafficClass(0); c < numTrafficClasses; c++ {
		if v := t.Class(c); v > 0 {
			fmt.Fprintf(&b, " %s=%d", c, v)
		}
	}
	return b.String()
}

// CacheStats counts lookups and misses for one cache instance. Lookups
// and Misses cover demand accesses only; speculative fills are counted
// under Prefetches so that enabling a prefetcher never distorts the
// demand miss rate.
type CacheStats struct {
	Lookups    uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
	Prefetches uint64
}

// MissRate returns the demand miss rate Misses/Lookups, or 0 when there
// were no lookups. Prefetch fills do not enter either term.
func (s *CacheStats) MissRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Lookups)
}

// Merge adds other's counts into s.
func (s *CacheStats) Merge(other *CacheStats) {
	s.Lookups += other.Lookups
	s.Misses += other.Misses
	s.Evictions += other.Evictions
	s.Writebacks += other.Writebacks
	s.Prefetches += other.Prefetches
}

// DetectionStats aggregates the outcome of an adversarial fault-injection
// campaign against one protection scheme: how many faults were injected,
// how many surfaced as integrity violations (Detected), how many silently
// corrupted consumed data (Silent — the unsecure failure mode), and how
// many had no observable effect because the scheme has no such metadata
// surface (Inert, e.g. a MAC flip against unprotected memory).
type DetectionStats struct {
	Injections uint64
	Detected   uint64
	Silent     uint64
	Inert      uint64
}

// Coverage returns Detected/Injections, or 0 when nothing was injected.
func (d *DetectionStats) Coverage() float64 {
	if d.Injections == 0 {
		return 0
	}
	return float64(d.Detected) / float64(d.Injections)
}

// Merge adds other's counts into d.
func (d *DetectionStats) Merge(other *DetectionStats) {
	d.Injections += other.Injections
	d.Detected += other.Detected
	d.Silent += other.Silent
	d.Inert += other.Inert
}

// String renders a compact single-line summary.
func (d *DetectionStats) String() string {
	return fmt.Sprintf("injected=%d detected=%d silent=%d inert=%d coverage=%s",
		d.Injections, d.Detected, d.Silent, d.Inert, Pct(d.Coverage()))
}

// GeoMean returns the geometric mean of xs. It panics on non-positive
// inputs because normalized execution times are always positive.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %v", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Table is a minimal fixed-width text table builder used by the experiment
// harness to print paper-style rows.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends one row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// F formats a float with 3 decimal places for table cells.
func F(x float64) string { return fmt.Sprintf("%.3f", x) }

// Pct formats a ratio as a percentage with one decimal place.
func Pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
