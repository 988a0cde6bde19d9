package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"tnpu"
	"tnpu/internal/compiler"
	"tnpu/internal/e2e"
	"tnpu/internal/exp"
	"tnpu/internal/memprot"
	"tnpu/internal/model"
	"tnpu/internal/multinpu"
	"tnpu/internal/npu"
)

// simCall is one public one-shot API call.
type simCall struct {
	short  string
	class  exp.Class
	scheme memprot.Scheme
	e2e    bool
}

// simCalls lists one pass: Simulate on every (model, class, scheme) at
// one NPU and SimulateEndToEnd on the Figure 17 schemes.
func simCalls(models []string) []simCall {
	var calls []simCall
	for _, short := range models {
		for _, class := range exp.Classes() {
			for _, scheme := range memprot.AllSchemes() {
				calls = append(calls, simCall{short, class, scheme, false})
			}
			for _, scheme := range e2eSchemes {
				calls = append(calls, simCall{short, class, scheme, true})
			}
		}
	}
	return calls
}

func (c simCall) run(o *oracle) error {
	if c.e2e {
		rep, err := tnpu.SimulateEndToEnd(c.short, c.class, c.scheme)
		if err != nil {
			return err
		}
		return o.checkE2E(e2eKey(c.short, c.class, c.scheme), rep.Cycles, rep.TrafficBytes)
	}
	rep, err := tnpu.Simulate(c.short, c.class, c.scheme)
	if err != nil {
		return err
	}
	return o.checkCell(cellKey(c.short, c.class, c.scheme, 1), rep.Cycles, rep.TrafficBytes)
}

// prepareCalls builds the call list and warms the process up with one
// pass over the warm-up model's calls.
func prepareCalls(b *bench) error {
	b.calls = simCalls(b.models())
	for _, c := range simCalls([]string{warmModel}) {
		if err := c.run(b.oracle); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// simOneshot times passes over the one-shot API, each in a seeded
// order. Every call compiles its program afresh, as tnpu-sim does.
func simOneshot(b *bench) error {
	calls := b.calls
	order := rand.New(rand.NewPCG(b.opts.seed, 0x0e5))
	b.setupDone()
	for b.more() {
		order.Shuffle(len(calls), func(i, j int) { calls[i], calls[j] = calls[j], calls[i] })
		pass := b.tr.start("tnpu.pass", 0, 0)
		passStart := time.Now()
		for _, c := range calls {
			name := "tnpu.simulate"
			if c.e2e {
				name = "tnpu.simulate_e2e"
			}
			sp := b.tr.start(name, pass.ID, 0)
			start := time.Now()
			err := c.run(b.oracle)
			b.op(time.Since(start))
			b.tr.finish(sp)
			if err != nil {
				b.fail("%v", err)
			}
		}
		b.iteration(len(calls), time.Since(passStart))
		b.tr.finish(pass)
	}
	if b.tr != nil {
		return tierAblation(b)
	}
	return nil
}

// tier is one single-NPU execution path. The memo tiers share one layer
// memo: the first pass records it, the second replays it.
type tier struct {
	name     string
	perBlock bool
	memo     bool
}

var tiers = []tier{
	{"perblock", true, false},
	{"streak", false, false},
	{"memo_record", false, true},
	{"memo_replay", false, true},
}

// tierAblation times the single-NPU execution tiers over the one-NPU
// grid, each pass on the same compiled programs: the per-block
// reference, the batched streak path, a layer-memo recording pass and a
// replay of that memo. It also times compilation and the end-to-end flow
// on their own. Results are checked against the oracle.
func tierAblation(b *bench) error {
	type prog struct {
		short string
		class exp.Class
		p     *compiler.Program
	}
	var progs []prog
	for _, short := range b.models() {
		m, err := model.ByShort(short)
		if err != nil {
			return err
		}
		for _, class := range exp.Classes() {
			sp := b.tr.start("compiler.compile", 0, 0)
			p, err := compiler.Compile(m, class.Config().CompilerConfig())
			b.tr.finish(sp)
			if err != nil {
				return err
			}
			progs = append(progs, prog{short, class, p})
		}
	}

	memo := npu.NewLayerMemo()
	for _, t := range tiers {
		var tierMemo *npu.LayerMemo
		if t.memo {
			tierMemo = memo
		}
		npu.ForcePerBlock(t.perBlock)
		var blocks, runs uint64
		schemeTime := map[memprot.Scheme]time.Duration{}
		schemeBlocks := map[memprot.Scheme]uint64{}
		sp := b.tr.start("npu."+t.name, 0, 0)
		tierStart := time.Now()
		for _, p := range progs {
			for _, scheme := range memprot.AllSchemes() {
				start := time.Now()
				res, err := multinpu.RunMemo(p.p, scheme, p.class.Config(), 1, tierMemo)
				schemeTime[scheme] += time.Since(start)
				if err != nil {
					npu.ForcePerBlock(false)
					return err
				}
				if err := b.oracle.checkCell(cellKey(p.short, p.class, scheme, 1), res.Cycles, res.Traffic.Total()); err != nil {
					b.fail("%s tier: %v", t.name, err)
				}
				blocks += res.NPUs[0].Blocks
				runs += res.NPUs[0].Runs
				schemeBlocks[scheme] += res.NPUs[0].Blocks
			}
		}
		d := time.Since(tierStart)
		b.tr.finish(sp)
		npu.ForcePerBlock(false)
		b.layer["npu."+t.name+"_blocks_per_s"] = float64(blocks) / seconds(d)
		if t.name == "streak" {
			b.layer["npu.blocks_per_run"] = ratio(blocks, runs)
			for _, scheme := range memprot.AllSchemes() {
				b.layer["npu.streak_blocks_per_s."+scheme.String()] = float64(schemeBlocks[scheme]) / seconds(schemeTime[scheme])
			}
		}
	}
	st := memo.Stats()
	b.layer["npu.memo_hits"] = float64(st.Hits)
	b.layer["npu.memo_misses"] = float64(st.Misses)
	b.layer["npu.memo_records"] = float64(st.Records)
	b.layer["npu.memo_disk_hits"] = float64(st.DiskHits)

	for _, p := range progs {
		for _, scheme := range e2eSchemes {
			sp := b.tr.start("e2e.run", 0, 0)
			res, err := e2e.Run(p.p, scheme, p.class.Config())
			b.tr.finish(sp)
			if err != nil {
				return err
			}
			if err := b.oracle.checkE2E(e2eKey(p.short, p.class, scheme), res.Total, res.Traffic.Total()); err != nil {
				b.fail("e2e: %v", err)
			}
		}
	}
	return nil
}
