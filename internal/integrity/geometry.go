package integrity

import (
	"fmt"

	"tnpu/internal/dram"
)

// Metadata address space layout: counters, tree nodes, and MACs live in
// reserved physical regions (Fig. 10 shows a dedicated MAC region). The
// simulator places them in disjoint synthetic ranges so the metadata caches
// see realistic, non-aliasing addresses.
const (
	// CounterBase is the start of the counter/tree-node region. Level L,
	// node index i resides at CounterBase + L*LevelStride + i*NodeBytes.
	CounterBase uint64 = 1 << 40
	// LevelStride separates tree levels in the synthetic address space.
	LevelStride uint64 = 1 << 32
	// MACBase is the start of the per-block MAC region.
	MACBase uint64 = 1 << 44
)

// Geometry describes the counter-tree shape protecting a data region of a
// given size: how many counter lines (level 0) and how many tree levels
// are needed until a single node fits on-chip as the root.
type Geometry struct {
	dataBytes uint64
	arity     uint64
	// counts[L] is the number of 64B nodes at level L stored in DRAM.
	// Level 0 is the counter lines; the root (one node) is on-chip and
	// NOT included.
	counts []uint64
}

// NewGeometry builds the tree geometry over dataBytes of protected memory.
// One counter line covers Arity data blocks (64 x 64B = 4KB); each tree
// level above reduces the node count by Arity until one node remains,
// which is the on-chip root.
func NewGeometry(dataBytes uint64) Geometry {
	return NewGeometryWithArity(dataBytes, Arity)
}

// NewGeometryWithArity builds a tree with a custom fan-out (the SGX MEE
// uses arity 8; the paper's SC-64 uses 64 — an ablation axis).
func NewGeometryWithArity(dataBytes, arity uint64) Geometry {
	if dataBytes == 0 {
		panic("integrity: geometry over empty region")
	}
	if arity < 2 {
		panic("integrity: tree arity must be at least 2")
	}
	blocks := (dataBytes + dram.BlockBytes - 1) / dram.BlockBytes
	n := (blocks + arity - 1) / arity // counter lines
	g := Geometry{dataBytes: dataBytes, arity: arity}
	for n > 1 {
		g.counts = append(g.counts, n)
		n = (n + arity - 1) / arity
	}
	// When even the counter level is a single line, that line still lives
	// in DRAM and is verified against the on-chip root hash; keep one
	// level so the scheme always fetches counters from memory.
	if len(g.counts) == 0 {
		g.counts = []uint64{1}
	}
	return g
}

// DataBytes returns the protected region size.
func (g Geometry) DataBytes() uint64 { return g.dataBytes }

// Levels returns the number of DRAM-resident levels (root excluded).
func (g Geometry) Levels() int { return len(g.counts) }

// NodesAt returns how many nodes level L holds.
func (g Geometry) NodesAt(level int) uint64 {
	if level < 0 || level >= len(g.counts) {
		panic(fmt.Sprintf("integrity: level %d out of range [0,%d)", level, len(g.counts)))
	}
	return g.counts[level]
}

// CounterIndex maps a data block index to its covering counter line (level
// 0 node index) and the slot within the line.
func (g Geometry) CounterIndex(blockIdx uint64) (lineIdx uint64, slot int) {
	return blockIdx / g.arity, int(blockIdx % g.arity)
}

// Parent maps a node at (level, idx) to its parent node index at level+1.
// The parent of the top DRAM level is the on-chip root.
func (g Geometry) Parent(idx uint64) (parentIdx uint64, slot int) {
	return idx / g.arity, int(idx % g.arity)
}

// NodeAddr returns the synthetic DRAM address of a metadata node, used to
// index the counter/hash caches.
func (g Geometry) NodeAddr(level int, idx uint64) uint64 {
	if level < 0 || level >= len(g.counts) {
		panic(fmt.Sprintf("integrity: level %d out of range", level))
	}
	if idx >= g.counts[level] {
		panic(fmt.Sprintf("integrity: node %d out of range at level %d (max %d)", idx, level, g.counts[level]))
	}
	return CounterBase + uint64(level)*LevelStride + idx*NodeBytes
}

// MACAddr returns the synthetic address of the 8-byte MAC slot protecting
// the 64B data block at blockAddr. Eight MACs pack into one 64B MAC line,
// which is what the MAC cache caches.
func MACAddr(blockAddr uint64) uint64 {
	return MACBase + (blockAddr/dram.BlockBytes)*8
}
