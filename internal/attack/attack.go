// Package attack is the adversarial fault-injection harness: it mounts
// the paper's physical attacker model (Sec. II-E — a bus snooper who can
// replay, splice, and tamper with off-chip DRAM, the same threat model
// GuardNN and MGX define) against the functional protected memories and
// proves, per scheme, that the integrity machinery actually detects the
// tampering rather than merely costing cycles in the timing model.
//
// The pieces compose bottom-up:
//
//   - Memory is the scheme-generic functional block-memory interface with
//     an explicit attacker surface (snapshot/restore/splice/bit-flips/
//     freshness rollback). Adapters wrap the unsecure, encrypt-only,
//     tree-based (integrity.TreeMemory) and tree-less
//     (secmem.TreelessMemory) implementations.
//
//   - Injector is a fault-injecting wrapper implementing Memory: armed at
//     a chosen point of the run, it mounts one planned attack on a victim
//     block immediately before the next read of that block, exactly where
//     a bus interposer would strike.
//
//   - Executor drives a compiled e2e workload (init, NPU trace, output
//     readback — the Sec. V-D flow) through a Memory, request by request,
//     with deterministic content tags so silent corruption is observable.
//     It is the repository's one functional trace executor: a clean run
//     verifies every mvin block under every scheme.
//
//   - Campaign sweeps attack kind x victim traffic class x scheme over a
//     program and checks every outcome against the paper's detection
//     matrix: Baseline and TNPU must flag every injection as an integrity
//     violation; Unsecure (and EncryptOnly) must detect nothing.
package attack

import "tnpu/internal/memprot"

// Kind enumerates the injected fault types of the attacker model.
type Kind int

const (
	// Replay restores a stale (ciphertext, MAC) pair captured from an
	// earlier write to the same address — the freshness attack the
	// version numbers / counter tree exist to stop.
	Replay Kind = iota
	// Splice copies a currently valid block from a different address
	// over the victim — defeated by the address input of the MAC.
	Splice
	// TamperData flips one bit of the victim's stored data (ciphertext
	// for protected schemes, plaintext for unsecure).
	TamperData
	// TamperMAC flips one bit of the victim's stored MAC.
	TamperMAC
	// TamperFreshness flips one bit in the scheme's freshness metadata:
	// the victim's version-table entry (tree-less) or its counter line
	// (tree-based). Schemes without freshness metadata have no surface.
	TamperFreshness
	// Rollback rolls the scheme's freshness state for the victim back one
	// step: a stale version-table entry (tree-less) or a replayed counter
	// node (tree-based).
	Rollback
	numKinds
)

// Kinds lists every attack kind in declaration order.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// String names the kind for reports.
func (k Kind) String() string {
	switch k {
	case Replay:
		return "replay"
	case Splice:
		return "splice"
	case TamperData:
		return "tamper-data"
	case TamperMAC:
		return "tamper-mac"
	case TamperFreshness:
		return "tamper-freshness"
	case Rollback:
		return "rollback"
	}
	return "kind(?)"
}

// Target selects the traffic class of the victim block within a workload.
type Target int

const (
	// Weights targets a model-parameter block streamed in at init.
	Weights Target = iota
	// Input targets an input-tensor block.
	Input
	// Activation targets an intermediate tensor block written by an
	// mvout and consumed by a later mvin.
	Activation
	// Output targets the result tensor the CPU reads back.
	Output
	numTargets
)

// Targets lists every victim traffic class in declaration order.
func Targets() []Target {
	out := make([]Target, numTargets)
	for i := range out {
		out[i] = Target(i)
	}
	return out
}

// String names the target class for reports.
func (t Target) String() string {
	switch t {
	case Weights:
		return "weights"
	case Input:
		return "input"
	case Activation:
		return "activation"
	case Output:
		return "output"
	}
	return "target(?)"
}

// Effect classifies what an injection did to the victim run.
type Effect int

const (
	// None: the fault had no observable consequence (the scheme has no
	// such metadata surface, e.g. a MAC flip against unprotected DRAM).
	None Effect = iota
	// SilentCorruption: the run consumed attacker-controlled data without
	// noticing — the failure mode integrity protection exists to prevent.
	SilentCorruption
	// Detected: the read surfaced a typed integrity violation.
	Detected
)

// String names the effect for reports.
func (e Effect) String() string {
	switch e {
	case None:
		return "none"
	case SilentCorruption:
		return "SILENT"
	case Detected:
		return "detected"
	}
	return "effect(?)"
}

// Expected is the paper's detection matrix: the effect each scheme must
// exhibit for each attack kind. Integrity-protected schemes detect every
// injection; unprotected schemes detect none — data attacks corrupt
// silently, while attacks on nonexistent metadata are inert.
func Expected(s memprot.Scheme, k Kind) Effect {
	switch s {
	case memprot.Baseline, memprot.TreeLess:
		return Detected
	}
	switch k {
	case Replay, Splice, TamperData:
		return SilentCorruption
	}
	return None
}
