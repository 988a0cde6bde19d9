// Package enclave implements TNPU's access-control layer (Sec. IV-A/B):
// the Extended EPCM (EEPCM) — a flat inverse page map covering the entire
// physical memory, held in the fully protected region — plus OS-controlled
// page tables, MMU/IOMMU models that validate every TLB fill against the
// EEPCM, NPU contexts with their NELRANGE, the protected NPU driver
// enclave, and SGX-style measurement/attestation (Sec. IV-E).
//
// The security invariant is the SGX one: the TLB/IOTLB only ever holds
// translations the EEPCM has validated, so a malicious OS rewriting page
// tables cannot map one enclave's pages into another context.
package enclave

import (
	"errors"
	"fmt"
)

// PageBytes is the page granularity of the EEPCM.
const PageBytes = 4096

// ID identifies an enclave (0 is reserved for "no owner").
type ID uint32

// Perm is a page-permission bitmask.
type Perm uint8

// Page permissions.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// Region classifies which protection scheme covers a physical page
// (Fig. 10).
type Region uint8

const (
	// RegionUnprotected pages get no integrity protection (non-enclave
	// memory; still encrypted by TME-style full-memory encryption).
	RegionUnprotected Region = iota
	// RegionFullyProtected pages live in the 128MB tree-protected region
	// (EPC, security metadata, version tables).
	RegionFullyProtected
	// RegionTreeLess pages are NPU-context memory under versioned MACs.
	RegionTreeLess
)

// Errors returned by validation.
var (
	ErrNotOwner     = errors.New("enclave: page not owned by requesting context")
	ErrBadMapping   = errors.New("enclave: page-table mapping disagrees with EEPCM")
	ErrNoPerm       = errors.New("enclave: permission denied")
	ErrUnmapped     = errors.New("enclave: no translation for virtual page")
	ErrPageInUse    = errors.New("enclave: physical page already assigned")
	ErrOutsideRange = errors.New("enclave: virtual address outside NELRANGE")
)

// EEPCMEntry is the per-physical-page security metadata (Sec. IV-B: owner
// enclave ID, virtual page number, permission, protection status).
type EEPCMEntry struct {
	Valid    bool
	Owner    ID
	VirtPage uint64
	Perm     Perm
	Region   Region
}

// EEPCM is the flat inverse map indexed by physical page number. It lives
// in the fully protected region, so neither the OS nor a physical attacker
// can alter it undetected.
type EEPCM struct {
	entries map[uint64]EEPCMEntry
}

// NewEEPCM creates an empty map.
func NewEEPCM() *EEPCM { return &EEPCM{entries: make(map[uint64]EEPCMEntry)} }

// Assign records ownership of a physical page. Assigning an owned page
// fails: pages must be reclaimed first.
func (m *EEPCM) Assign(physPage uint64, e EEPCMEntry) error {
	if old, ok := m.entries[physPage]; ok && old.Valid {
		return fmt.Errorf("%w: phys page %#x owned by enclave %d", ErrPageInUse, physPage, old.Owner)
	}
	e.Valid = true
	m.entries[physPage] = e
	return nil
}

// Reclaim invalidates a physical page's entry (enclave teardown).
func (m *EEPCM) Reclaim(physPage uint64) {
	delete(m.entries, physPage)
}

// Lookup returns the entry for a physical page.
func (m *EEPCM) Lookup(physPage uint64) (EEPCMEntry, bool) {
	e, ok := m.entries[physPage]
	return e, ok && e.Valid
}

// Validate checks a proposed translation (virtPage→physPage by owner with
// the needed permission) against the inverse map — the Fig. 11 step.
func (m *EEPCM) Validate(owner ID, virtPage, physPage uint64, need Perm) error {
	e, ok := m.Lookup(physPage)
	if !ok || e.Owner != owner {
		return fmt.Errorf("%w: phys page %#x", ErrNotOwner, physPage)
	}
	if e.VirtPage != virtPage {
		return fmt.Errorf("%w: phys %#x maps virt %#x, OS claims %#x", ErrBadMapping, physPage, e.VirtPage, virtPage)
	}
	if e.Perm&need != need {
		return fmt.Errorf("%w: page %#x lacks %b", ErrNoPerm, physPage, need)
	}
	return nil
}

// PageTable is the OS-maintained forward map. The OS may rewrite it at any
// time — it is untrusted input to the MMU/IOMMU.
type PageTable struct {
	m map[uint64]uint64 // virtPage -> physPage
}

// NewPageTable creates an empty table.
func NewPageTable() *PageTable { return &PageTable{m: make(map[uint64]uint64)} }

// Map installs (or maliciously rewrites) a translation.
func (p *PageTable) Map(virtPage, physPage uint64) { p.m[virtPage] = physPage }

// Walk resolves a virtual page, as the hardware page walker would.
func (p *PageTable) Walk(virtPage uint64) (uint64, bool) {
	pa, ok := p.m[virtPage]
	return pa, ok
}

// TLB caches validated translations for one context (an MMU for a CPU
// enclave, an IOMMU for an NPU context — Fig. 11). Every miss re-validates
// against the EEPCM; hits are trusted because invalidations shoot entries
// down.
type TLB struct {
	owner ID
	pt    *PageTable
	eepcm *EEPCM
	e     map[uint64]uint64 // virtPage -> physPage

	Hits, Misses, Rejections uint64
}

// NewTLB builds a TLB for a context owned by owner over the OS page table.
func NewTLB(owner ID, pt *PageTable, eepcm *EEPCM) *TLB {
	return &TLB{owner: owner, pt: pt, eepcm: eepcm, e: make(map[uint64]uint64)}
}

// Translate resolves a virtual address with the given permission need.
func (t *TLB) Translate(va uint64, need Perm) (pa uint64, err error) {
	vp, off := va/PageBytes, va%PageBytes
	if pp, ok := t.e[vp]; ok {
		t.Hits++
		return pp*PageBytes + off, nil
	}
	t.Misses++
	pp, ok := t.pt.Walk(vp)
	if !ok {
		return 0, fmt.Errorf("%w: va %#x", ErrUnmapped, va)
	}
	if err := t.eepcm.Validate(t.owner, vp, pp, need); err != nil {
		t.Rejections++
		return 0, err
	}
	t.e[vp] = pp
	return pp*PageBytes + off, nil
}

// Shootdown removes a cached translation (issued when the EEPCM entry is
// reclaimed, preserving the invariant that the TLB holds only validated
// mappings).
func (t *TLB) Shootdown(virtPage uint64) { delete(t.e, virtPage) }

// Flush clears every entry.
func (t *TLB) Flush() { t.e = make(map[uint64]uint64) }
