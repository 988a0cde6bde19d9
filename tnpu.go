// Package tnpu is the public API of the TNPU reproduction — the trusted
// NPU architecture with tree-less integrity protection from "TNPU:
// Supporting Trusted Execution with Tree-less Integrity Protection for
// Neural Processing Unit" (HPCA 2022).
//
// Two complementary layers are exposed:
//
//   - Simulation: Simulate / SimulateMulti / SimulateEndToEnd run the 14
//     benchmark workloads (Table III) on the cycle-accounting NPU
//     simulator under the three protection schemes the paper compares
//     (Unsecure, tree-based Baseline, tree-less TNPU), on the Small
//     (Exynos 990-class) or Large (Ethos N77-class) NPU of Table II.
//
//   - Functional security: NewSecureContext builds a context whose NPU
//     memory really is AES-XTS encrypted and MAC-verified with software
//     version numbers, for demonstrating tamper/replay/splice detection
//     end to end (see the examples directory).
//
// The experiment harness behind every paper figure is reachable through
// NewPaperRunner; cmd/tnpu-bench regenerates the full evaluation.
package tnpu

import (
	"fmt"

	"tnpu/internal/compiler"
	"tnpu/internal/core"
	"tnpu/internal/e2e"
	"tnpu/internal/exp"
	"tnpu/internal/memprot"
	"tnpu/internal/model"
	"tnpu/internal/multinpu"
)

// Scheme selects a memory-protection scheme.
type Scheme = memprot.Scheme

// The three schemes of the evaluation.
const (
	// Unsecure applies no memory protection (normalization baseline).
	Unsecure = memprot.Unsecure
	// Baseline is the conventional counter-tree protection (SC-64).
	Baseline = memprot.Baseline
	// TreeLess is the paper's TNPU scheme.
	TreeLess = memprot.TreeLess
	// EncryptOnly is the scalable-SGX-like confidentiality-only bound
	// (Sec. II-B): AES-XTS full-memory encryption, no integrity.
	EncryptOnly = memprot.EncryptOnly
)

// Class selects an NPU configuration from Table II.
type Class = exp.Class

// The two NPU classes.
const (
	// Small is the Samsung Exynos 990-class NPU (32x32 PEs, 11 GB/s).
	Small = exp.Small
	// Large is the ARM Ethos N77-class NPU (45x45 PEs, 22 GB/s).
	Large = exp.Large
)

// Models returns the Table III workload abbreviations in paper order.
func Models() []string { return model.ShortNames() }

// ModelInfo describes one benchmark workload.
type ModelInfo struct {
	Short       string
	Name        string
	FootprintMB float64
	// PaperFootprintMB is Table III's reported value.
	PaperFootprintMB float64
	Layers           int
	HasEmbedding     bool
}

// Describe returns metadata for a workload.
func Describe(short string) (ModelInfo, error) {
	m, err := model.ByShort(short)
	if err != nil {
		return ModelInfo{}, err
	}
	return ModelInfo{
		Short:            m.Short,
		Name:             m.Name,
		FootprintMB:      float64(m.Footprint()) / (1 << 20),
		PaperFootprintMB: model.PaperFootprintsMB[m.Short],
		Layers:           len(m.Layers),
		HasEmbedding:     m.HasEmbedding(),
	}, nil
}

// Report summarizes one simulation.
type Report struct {
	Model  string
	Class  Class
	Scheme Scheme
	NPUs   int

	// Cycles is the execution time (slowest NPU for multi-NPU runs).
	Cycles uint64
	// Milliseconds converts cycles at the class's clock.
	Milliseconds float64

	// TrafficBytes is total bus traffic; MetadataBytes the security
	// metadata share of it.
	TrafficBytes  uint64
	MetadataBytes uint64

	// CounterMissRate is the counter-cache miss rate (baseline only).
	CounterMissRate float64
	// MACMissRate is the MAC-cache miss rate (protected schemes).
	MACMissRate float64
	// VersionTablePeakBytes is the Sec. IV-D software storage cost
	// (tree-less only).
	VersionTablePeakBytes int
}

func report(short string, class Class, scheme Scheme, count int, res multinpu.Result, prog *compiler.Program) Report {
	return Report{
		Model:                 short,
		Class:                 class,
		Scheme:                scheme,
		NPUs:                  count,
		Cycles:                res.Cycles,
		Milliseconds:          1e3 * float64(res.Cycles) / float64(class.Config().Mem.FreqHz),
		TrafficBytes:          res.Traffic.Total(),
		MetadataBytes:         res.Traffic.Metadata(),
		CounterMissRate:       res.Counter.MissRate(),
		MACMissRate:           res.MAC.MissRate(),
		VersionTablePeakBytes: prog.Table.PeakStorageBytes(),
	}
}

// Simulate runs one workload on one NPU under one protection scheme.
func Simulate(short string, class Class, scheme Scheme) (Report, error) {
	return SimulateMulti(short, class, scheme, 1)
}

// SimulateMulti runs the workload on count NPUs sharing the memory
// controller and security engine (the Sec. V-C configuration).
func SimulateMulti(short string, class Class, scheme Scheme, count int) (Report, error) {
	m, err := model.ByShort(short)
	if err != nil {
		return Report{}, err
	}
	prog, err := compiler.Compile(m, class.Config().CompilerConfig())
	if err != nil {
		return Report{}, err
	}
	res, err := multinpu.Run(prog, scheme, class.Config(), count)
	if err != nil {
		return Report{}, err
	}
	return report(short, class, scheme, count, res, prog), nil
}

// EndToEndReport extends Report with the Sec. V-D phase breakdown.
type EndToEndReport struct {
	Report
	InitCycles, RunCycles, OutputCycles uint64
	// AmortizedCycles is the per-request latency once the parameters are
	// resident.
	AmortizedCycles uint64
}

// SimulateEndToEnd runs the full sensor-to-result flow of Sec. V-D.
func SimulateEndToEnd(short string, class Class, scheme Scheme) (EndToEndReport, error) {
	m, err := model.ByShort(short)
	if err != nil {
		return EndToEndReport{}, err
	}
	prog, err := compiler.Compile(m, class.Config().CompilerConfig())
	if err != nil {
		return EndToEndReport{}, err
	}
	res, err := e2e.Run(prog, scheme, class.Config())
	if err != nil {
		return EndToEndReport{}, err
	}
	out := EndToEndReport{
		Report: Report{
			Model: short, Class: class, Scheme: scheme, NPUs: 1,
			Cycles:                res.Total,
			Milliseconds:          1e3 * float64(res.Total) / float64(class.Config().Mem.FreqHz),
			TrafficBytes:          res.Traffic.Total(),
			MetadataBytes:         res.Traffic.Metadata(),
			VersionTablePeakBytes: prog.Table.PeakStorageBytes(),
		},
		InitCycles:      res.InitCycles,
		RunCycles:       res.RunCycles,
		OutputCycles:    res.OutputCycles,
		AmortizedCycles: res.Amortized(),
	}
	return out, nil
}

// Overhead runs a scheme and the unsecure reference, returning the
// normalized execution time (the y-axis of Figs. 4/14/16).
func Overhead(short string, class Class, scheme Scheme, count int) (float64, error) {
	ref, err := SimulateMulti(short, class, Unsecure, count)
	if err != nil {
		return 0, err
	}
	run, err := SimulateMulti(short, class, scheme, count)
	if err != nil {
		return 0, err
	}
	if ref.Cycles == 0 {
		return 0, fmt.Errorf("tnpu: empty reference run for %s", short)
	}
	return float64(run.Cycles) / float64(ref.Cycles), nil
}

// NewPaperRunner returns the experiment harness that regenerates every
// table and figure of the paper's evaluation (optionally restricted to a
// subset of workloads).
//
// The runner is safe for concurrent use: each (model tuple, hardware
// configuration, scheme) cell is simulated exactly once no matter how
// many goroutines ask, and figure/sweep generators fan independent
// cells across a bounded worker pool with output byte-identical to a
// sequential run.
// Set Workers (0 = GOMAXPROCS, 1 = sequential) and Progress (e.g.
// os.Stderr for per-cell status lines) before the first call; Log()
// exposes the RunLog instrumentation afterwards.
func NewPaperRunner(models ...string) *exp.Runner { return exp.NewRunner(models...) }

// RunLog is the experiment harness's observability record: per-cell wall
// times, completion counts, and compile-vs-simulate totals. Obtain one
// via NewPaperRunner().Log().
type RunLog = exp.RunLog

// SecureContext is the functional trusted-NPU runtime (real encryption,
// MACs, and version bookkeeping over real bytes).
type SecureContext = core.Context

// NewSecureContext creates a functional protected NPU context from the
// session keys established at enclave/NPU-context initialization.
func NewSecureContext(xtsKey, macKey []byte) (*SecureContext, error) {
	return core.NewContext(xtsKey, macKey)
}
