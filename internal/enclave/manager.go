package enclave

import (
	"errors"
	"fmt"
)

// Errors from lifecycle operations.
var (
	ErrNoDriver     = errors.New("enclave: NPU driver enclave not running")
	ErrNotAttested  = errors.New("enclave: driver refuses unattested requester")
	ErrNPUsBusy     = errors.New("enclave: all NPUs assigned")
	ErrTornDown     = errors.New("enclave: operation on destroyed enclave")
	ErrDoubleCreate = errors.New("enclave: id already exists")
)

// Enclave is one CPU enclave, possibly owning an NPU context.
type Enclave struct {
	ID ID
	// NELBase/NELPages delimit the protected virtual range (NELRANGE,
	// Sec. IV-B) of the attached NPU context.
	NELBase, NELPages uint64
	pt                *PageTable
	tlb               *TLB
	meas              *Measurement
	pages             []uint64 // owned physical pages, for teardown
	dead              bool
}

// PageTable exposes the enclave's (OS-controlled) page table.
func (e *Enclave) PageTable() *PageTable { return e.pt }

// TLB exposes the enclave's MMU.
func (e *Enclave) TLB() *TLB { return e.tlb }

// Measurement exposes the enclave's build measurement.
func (e *Enclave) Measurement() *Measurement { return e.meas }

// NPUContext is an NPU execution context bound to a CPU enclave; it has
// its own IOMMU validating against the same EEPCM (Fig. 11).
type NPUContext struct {
	Owner ID
	NPU   int
	IOMMU *TLB
}

// Manager owns the EEPCM and enclave lifecycle; it stands in for the
// microcode/secure-monitor layer.
type Manager struct {
	eepcm    *EEPCM
	enclaves map[ID]*Enclave
	// driver is the protected NPU driver enclave (Sec. IV-A): the OS can
	// only submit NPU requests through it.
	driver   *Enclave
	npusFree []int
	contexts map[ID]*NPUContext
}

// NewManager creates a manager controlling npus NPUs.
func NewManager(npus int) *Manager {
	m := &Manager{
		eepcm:    NewEEPCM(),
		enclaves: make(map[ID]*Enclave),
		contexts: make(map[ID]*NPUContext),
	}
	for i := 0; i < npus; i++ {
		m.npusFree = append(m.npusFree, i)
	}
	return m
}

// CreateEnclave builds an enclave with a fresh measurement.
func (m *Manager) CreateEnclave(id ID) (*Enclave, error) {
	if id == 0 {
		return nil, fmt.Errorf("enclave: id 0 is reserved")
	}
	if _, ok := m.enclaves[id]; ok {
		return nil, fmt.Errorf("%w: %d", ErrDoubleCreate, id)
	}
	e := &Enclave{ID: id, pt: NewPageTable(), meas: NewMeasurement()}
	e.tlb = NewTLB(id, e.pt, m.eepcm)
	m.enclaves[id] = e
	return e, nil
}

// InstallDriver marks an enclave as the protected NPU driver after
// verifying its measurement against the expected driver binary.
func (m *Manager) InstallDriver(e *Enclave, expected [32]byte) error {
	if e.meas.Digest() != expected {
		return fmt.Errorf("enclave: driver measurement mismatch")
	}
	m.driver = e
	return nil
}

// AddPage assigns a physical page to the enclave at the given virtual
// page: the EEPCM records ownership, the OS page table gets the forward
// mapping, and the content hash extends the measurement (load-time pages).
func (m *Manager) AddPage(e *Enclave, virtPage, physPage uint64, perm Perm, region Region, content []byte) error {
	if e.dead {
		return ErrTornDown
	}
	if err := m.eepcm.Assign(physPage, EEPCMEntry{
		Owner: e.ID, VirtPage: virtPage, Perm: perm, Region: region,
	}); err != nil {
		return err
	}
	e.pt.Map(virtPage, physPage)
	e.pages = append(e.pages, physPage)
	e.meas.ExtendPage(virtPage, perm, content)
	return nil
}

// RequestNPU is the OS-visible entry point: the request is forwarded to
// the driver enclave, which checks the requester's attestation quote and
// assigns a free NPU. The NPU context's IOMMU validates against the same
// EEPCM as CPU MMUs.
func (m *Manager) RequestNPU(e *Enclave, quote Quote, dev *Device, nelBase, nelPages uint64) (*NPUContext, error) {
	if m.driver == nil {
		return nil, ErrNoDriver
	}
	if e.dead {
		return nil, ErrTornDown
	}
	if !dev.VerifyQuote(quote) || quote.Measurement != e.meas.Digest() {
		return nil, ErrNotAttested
	}
	if len(m.npusFree) == 0 {
		return nil, ErrNPUsBusy
	}
	id := m.npusFree[0]
	m.npusFree = m.npusFree[1:]
	e.NELBase, e.NELPages = nelBase, nelPages
	ctx := &NPUContext{Owner: e.ID, NPU: id, IOMMU: NewTLB(e.ID, e.pt, m.eepcm)}
	m.contexts[e.ID] = ctx
	return ctx, nil
}

// AddNPUPage maps a tree-less-protected page into the NPU context's
// NELRANGE; pages outside the range are rejected (Sec. IV-B).
func (m *Manager) AddNPUPage(e *Enclave, virtPage, physPage uint64, perm Perm) error {
	if virtPage < e.NELBase || virtPage >= e.NELBase+e.NELPages {
		return fmt.Errorf("%w: virt page %#x not in [%#x,%#x)", ErrOutsideRange, virtPage, e.NELBase, e.NELBase+e.NELPages)
	}
	return m.AddPage(e, virtPage, physPage, perm, RegionTreeLess, nil)
}

// Destroy tears an enclave down: its NPU is released, every owned page is
// reclaimed, and cached translations are shot down everywhere so stale
// mappings cannot outlive ownership.
func (m *Manager) Destroy(e *Enclave) {
	if e.dead {
		return
	}
	e.dead = true
	if ctx, ok := m.contexts[e.ID]; ok {
		m.npusFree = append(m.npusFree, ctx.NPU)
		delete(m.contexts, e.ID)
		ctx.IOMMU.Flush()
	}
	for _, pp := range e.pages {
		if entry, ok := m.eepcm.Lookup(pp); ok {
			e.tlb.Shootdown(entry.VirtPage)
		}
		m.eepcm.Reclaim(pp)
	}
	e.tlb.Flush()
	delete(m.enclaves, e.ID)
}
