package attack

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"tnpu/internal/compiler"
	"tnpu/internal/dram"
	"tnpu/internal/isa"
)

// ErrSilentCorruption marks a read that returned attacker-controlled
// content without any integrity violation — the NPU consumed corrupted
// data and nobody noticed. It is the expected (and damning) outcome for
// data attacks against the unprotected schemes, and a matrix violation
// for the protected ones.
var ErrSilentCorruption = errors.New("attack: corrupted data consumed undetected")

// Executor functionally drives a compiled workload through a Memory the
// way the e2e service does (Sec. V-D): each request re-initializes the
// parameter tensors, executes the trace's data movement, and reads the
// output tensor back. Requests use disjoint version and content-tag
// ranges, so every block's expected plaintext is deterministic per
// request — stale data from an earlier request can never pass the content
// check by accident, which is what makes silent corruption observable.
//
// A detection campaign runs request 0 write-only (populating DRAM with a
// history the attacker can snoop), arms the injector, then runs request 1
// with full read verification and classifies how the fault surfaced.
type Executor struct {
	prog *compiler.Program
	mem  Memory

	// ReadFilter, when non-nil, restricts which blocks verifying requests
	// actually fetch. Campaigns sweeping hundreds of cells point it at
	// the victim block: the victim's read still happens at its exact
	// trace position through the scheme's full verified path, but the
	// (already separately tested) clean reads of innocent blocks are
	// skipped, which is what makes a 100-cell sweep affordable.
	ReadFilter func(addr uint64) bool

	// WriteFilter, when non-nil, restricts which blocks are physically
	// written (version/tag bookkeeping still covers every block, so the
	// trace walk and the victim's write positions are unchanged). The
	// campaign fast path keeps just the victim and the splice donor,
	// cutting per-cell crypto from the whole model to a handful of
	// blocks. Cells verified through this path classify identically to
	// thorough cells — TestTinyModelFastMatchesThorough pins that.
	WriteFilter func(addr uint64) bool

	// written is the software's version bookkeeping: the version each
	// block was last MACed under.
	written map[uint64]uint64
	// tag is the writer id per block for the content check.
	tag map[uint64]uint64
}

// NewExecutor prepares an executor for one program over one memory.
func NewExecutor(prog *compiler.Program, mem Memory) *Executor {
	return &Executor{
		prog:    prog,
		mem:     mem,
		written: make(map[uint64]uint64),
		tag:     make(map[uint64]uint64),
	}
}

// versionOffset separates the version ranges of successive requests.
func versionOffset(req int) uint64 { return uint64(req) << 32 }

// Seed writes one block as request req would have, giving the block a
// genuine write history without the cost of running the whole request.
// Campaign fast paths seed just the victim in place of a full request 0:
// the injector still snoops a real pre-overwrite state when request 1
// rewrites the block, so replays play back authentic stale captures.
func (x *Executor) Seed(req int, addr uint64) error {
	off := versionOffset(req)
	return x.mem.WriteBlock(addr, blockPayload(addr, off), off+1)
}

// blocksOf enumerates the 64B-aligned blocks a segment covers.
func blocksOf(seg isa.Segment, fn func(addr uint64) error) error {
	first := seg.Addr &^ (dram.BlockBytes - 1)
	for addr := first; addr < seg.Addr+seg.Bytes; addr += dram.BlockBytes {
		if err := fn(addr); err != nil {
			return err
		}
	}
	return nil
}

// blockPayload is the deterministic plaintext for (block, writer).
func blockPayload(addr, writer uint64) []byte {
	var b [dram.BlockBytes]byte
	binary.LittleEndian.PutUint64(b[0:8], addr^0xD1E5)
	binary.LittleEndian.PutUint64(b[8:16], writer)
	for i := 16; i < dram.BlockBytes; i++ {
		b[i] = byte(addr>>7) ^ byte(writer*13+uint64(i))
	}
	return b[:]
}

// RunRequest serves one inference request. With verify false only the
// write traffic runs (the request whose bus history the attacker snoops);
// with verify true every mvin and the output readback fetch and check
// their blocks, surfacing the injected fault.
func (x *Executor) RunRequest(req int, verify bool) error {
	off := versionOffset(req)

	// Parameter load: the service streams input and weights per request
	// under this request's version range.
	for _, ten := range x.prog.Tensors {
		if !compiler.IsParameter(ten.Name) {
			continue
		}
		for blk := uint64(0); blk < ten.Blocks(); blk++ {
			addr := ten.Addr + blk*dram.BlockBytes
			if err := x.write(addr, off, off+1); err != nil {
				return fmt.Errorf("init %s: %w", ten.Name, err)
			}
		}
	}

	// Trace data movement.
	for i := range x.prog.Trace.Instrs {
		in := &x.prog.Trace.Instrs[i]
		switch in.Op {
		case isa.OpMvOut:
			writer := off + uint64(i) + 1
			for _, seg := range in.Segments {
				if err := blocksOf(seg, func(addr uint64) error {
					return x.write(addr, writer, off+in.Version)
				}); err != nil {
					return fmt.Errorf("instr %d: %w", i, err)
				}
			}
		case isa.OpMvIn:
			if !verify {
				continue
			}
			for _, seg := range in.Segments {
				if err := blocksOf(seg, x.readCheck); err != nil {
					return fmt.Errorf("instr %d: %w", i, err)
				}
			}
		}
	}

	if !verify {
		return nil
	}
	// Output readback: the CPU fetches the result tensor.
	out := x.prog.Tensors[len(x.prog.Tensors)-1]
	for blk := uint64(0); blk < out.Blocks(); blk++ {
		if err := x.readCheck(out.Addr + blk*dram.BlockBytes); err != nil {
			return fmt.Errorf("output readback: %w", err)
		}
	}
	return nil
}

// write records the block's new version and writer tag, and performs the
// physical write unless the WriteFilter drops it.
func (x *Executor) write(addr, writer, version uint64) error {
	x.written[addr] = version
	x.tag[addr] = writer
	if x.WriteFilter != nil && !x.WriteFilter(addr) {
		return nil
	}
	return x.mem.WriteBlock(addr, blockPayload(addr, writer), version)
}

// readCheck fetches one block through the scheme's verified read path and
// compares the returned plaintext against the known writer tag. A content
// mismatch without an integrity error is silent corruption.
func (x *Executor) readCheck(addr uint64) error {
	if x.ReadFilter != nil && !x.ReadFilter(addr) {
		return nil
	}
	ver, ok := x.written[addr]
	if !ok {
		return fmt.Errorf("attack: read of never-written block %#x", addr)
	}
	data, err := x.mem.ReadBlock(addr, ver)
	if err != nil {
		return err
	}
	if want := blockPayload(addr, x.tag[addr]); !bytes.Equal(data, want) {
		return fmt.Errorf("%w: block %#x", ErrSilentCorruption, addr)
	}
	return nil
}
