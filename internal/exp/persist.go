// Whole-run memos (DESIGN.md §6g): with a persistent memo store attached,
// the runner serializes finished cell results — simulations of one model
// tuple on one configuration (single- and multi-NPU runs, mixed tenancy,
// sweep points), end-to-end flows, version-table storage peaks — through
// memostore, so a later process reloads each cell whole instead of
// simulating it. Keys run through exp.Digest under CodeVersion plus a
// body-format tag, so both a simulator change and a framing change strand
// old entries. Bodies are fixed-width little-endian u64s, restored by
// accumulating into zero values; a body that fails structural validation
// is deleted and recomputed.
package exp

import (
	"encoding/binary"
	"strconv"

	"tnpu/internal/e2e"
	"tnpu/internal/memprot"
	"tnpu/internal/multinpu"
	"tnpu/internal/npu"
	"tnpu/internal/npu/memostore"
	"tnpu/internal/stats"
)

// cellMemoTag versions the persisted cell-result body format,
// independently of CodeVersion (which tracks simulation semantics).
// cellmemo2 added NPUStats.RoundBlocks to multi-NPU bodies; bumping the
// tag strands every older body instead of misdecoding it.
const cellMemoTag = "cellmemo2"

// SetMemoDir attaches a persistent memo store under dir: whole-run cell
// results recorded by this runner are written there and reloaded by
// later processes. Must be called before the first
// figure/sweep call, like the rest of the runner configuration (enforced:
// panics after first use). An empty dir is a no-op.
func (r *Runner) SetMemoDir(dir string) error {
	if dir == "" {
		return nil
	}
	if r.used.Load() {
		panic("exp: SetMemoDir after the runner's first use; attach the memo dir before the first figure/sweep call")
	}
	st, err := memostore.New(dir)
	if err != nil {
		return err
	}
	r.cellStore = st
	return nil
}

// MemoDir returns the attached persistent memo directory ("" if none).
func (r *Runner) MemoDir() string { return r.cellStore.Dir() }

// LayerMemoStats always returns the zero npu.MemoStats.
//
// Deprecated: the layer memo it reported on is gone; CellStoreStats
// reports the whole-run cell store.
func (r *Runner) LayerMemoStats() npu.MemoStats { return npu.MemoStats{} }

// CellStoreStats reports the persistent store's counters (zero when no
// memo dir is attached).
func (r *Runner) CellStoreStats() memostore.Stats { return r.cellStore.Stats() }

// persisted wraps one cell computation with the whole-run memo: try the
// store under key, validate, fall back to fn, save what fn produced.
// Errors are never persisted.
func persisted[V any](r *Runner, key string, enc func([]byte, *V) []byte, dec func([]byte) (V, bool), fn func() (V, error)) (V, error) {
	st := r.cellStore
	if st == nil {
		return fn()
	}
	if body, ok := st.Load(key); ok {
		if v, ok := dec(body); ok {
			return v, nil
		}
		// Checksum-valid bytes in a stale shape: drop and recompute.
		st.Delete(key)
	}
	v, err := fn()
	if err != nil {
		return v, err
	}
	st.Save(key, enc(nil, &v))
	return v, nil
}

// Body sizes of the fixed-width stats tails, measured from the
// encoders themselves so the decoders' structural validation cannot drift
// from the encoding.
var (
	trafficAccumLen = len((&stats.Traffic{}).AppendAccum(nil))
	cacheAccumLen   = len((&stats.CacheStats{}).AppendAccum(nil))
)

// u64cursor is a non-panicking u64 reader for persisted bodies: a disk
// body's shape is input (an older process may have framed it
// differently), so truncation must decode to "refuse", not panic.
type u64cursor struct {
	src []byte
	bad bool
}

func (c *u64cursor) u64() uint64 {
	if c.bad || len(c.src) < 8 {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(c.src)
	c.src = c.src[8:]
	return v
}

func (c *u64cursor) remaining(n int) bool { return !c.bad && len(c.src) == n }

func appendRunResult(dst []byte, res *multinpu.Result) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(res.Scheme))
	dst = binary.LittleEndian.AppendUint64(dst, res.Cycles)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(res.PerNPU)))
	for _, v := range res.PerNPU {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(res.NPUs)))
	for i := range res.NPUs {
		n := &res.NPUs[i]
		dst = binary.LittleEndian.AppendUint64(dst, n.Cycles)
		dst = binary.LittleEndian.AppendUint64(dst, n.Blocks)
		dst = binary.LittleEndian.AppendUint64(dst, n.ReadBytes)
		dst = binary.LittleEndian.AppendUint64(dst, n.WriteBytes)
		dst = binary.LittleEndian.AppendUint64(dst, n.Runs)
		dst = binary.LittleEndian.AppendUint64(dst, n.RoundBlocks)
	}
	dst = res.Traffic.AppendAccum(dst)
	dst = res.Counter.AppendAccum(dst)
	dst = res.Hash.AppendAccum(dst)
	return res.MAC.AppendAccum(dst)
}

func decodeRunResult(body []byte) (multinpu.Result, bool) {
	var res multinpu.Result
	c := &u64cursor{src: body}
	res.Scheme = memprot.Scheme(c.u64())
	res.Cycles = c.u64()
	n := c.u64()
	if c.bad || n > uint64(len(c.src))/8 {
		return multinpu.Result{}, false
	}
	res.PerNPU = make([]uint64, n)
	for i := range res.PerNPU {
		res.PerNPU[i] = c.u64()
	}
	n = c.u64()
	if c.bad || n > uint64(len(c.src))/(8*6) {
		return multinpu.Result{}, false
	}
	res.NPUs = make([]multinpu.NPUStats, n)
	for i := range res.NPUs {
		s := &res.NPUs[i]
		s.Cycles = c.u64()
		s.Blocks = c.u64()
		s.ReadBytes = c.u64()
		s.WriteBytes = c.u64()
		s.Runs = c.u64()
		s.RoundBlocks = c.u64()
	}
	if !c.remaining(trafficAccumLen + 3*cacheAccumLen) {
		return multinpu.Result{}, false
	}
	rest := res.Traffic.AddAccum(c.src)
	rest = res.Counter.AddAccum(rest)
	rest = res.Hash.AddAccum(rest)
	rest = res.MAC.AddAccum(rest)
	if len(rest) != 0 {
		return multinpu.Result{}, false
	}
	return res, true
}

func appendE2EResult(dst []byte, res *e2e.Result) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(res.Scheme))
	dst = binary.LittleEndian.AppendUint64(dst, res.InitCycles)
	dst = binary.LittleEndian.AppendUint64(dst, res.RunCycles)
	dst = binary.LittleEndian.AppendUint64(dst, res.OutputCycles)
	dst = binary.LittleEndian.AppendUint64(dst, res.Total)
	return res.Traffic.AppendAccum(dst)
}

func decodeE2EResult(body []byte) (e2e.Result, bool) {
	var res e2e.Result
	c := &u64cursor{src: body}
	res.Scheme = memprot.Scheme(c.u64())
	res.InitCycles = c.u64()
	res.RunCycles = c.u64()
	res.OutputCycles = c.u64()
	res.Total = c.u64()
	if !c.remaining(trafficAccumLen) {
		return e2e.Result{}, false
	}
	if rest := res.Traffic.AddAccum(c.src); len(rest) != 0 {
		return e2e.Result{}, false
	}
	return res, true
}

func appendCycles(dst []byte, v *uint64) []byte { return binary.LittleEndian.AppendUint64(dst, *v) }

func decodeCycles(body []byte) (uint64, bool) {
	if len(body) != 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(body), true
}

// Cell disk keys: one per persisted cell kind, each a Digest under
// CodeVersion + the body-format tag, so simulator changes and framing
// changes both strand old entries.

// simCellKey keys one simulation by its in-memory key: the configuration,
// the scheme, and the model tuple as simKey holds it, one way per tuple.
func simCellKey(k simKey) string {
	return Digest(CodeVersion, cellMemoTag, "sim", ConfigDigest(k.cfg), k.scheme.String(), k.models, strconv.Itoa(k.copies))
}

func e2eCellKey(short string, cfg npu.Config, scheme memprot.Scheme) string {
	return Digest(CodeVersion, cellMemoTag, "e2e", short, ConfigDigest(cfg), scheme.String())
}

// storageCellKey keys a model's peak version-table bytes: a property of
// the compiled program, recorded so that a warm runner need not compile.
func storageCellKey(short string, cfg npu.Config) string {
	return Digest(CodeVersion, cellMemoTag, "storage", short, ConfigDigest(cfg))
}
