// Command bench is the repository's end-to-end benchmark. It drives the
// simulator cold, the way users wait for it, through four workloads:
//
//	regen_cold   full paper regeneration on fresh runners, no memo store
//	regen_warm   the same regeneration replayed from a recorded memo store
//	serve_load   tnpu-serve's smoke-test legs: cold, warm and memo restart
//	sim_oneshot  the public one-shot API (tnpu.Simulate, SimulateEndToEnd)
//
// Every output is checked against testdata/expected.json, an oracle
// recorded on the per-block reference paths. The last line of standard
// output is one JSON object: the end-to-end metrics, or with -trace 1 the
// per-layer metrics computed from spans recorded around each layer call.
// See README.md for the metrics, the layers they belong to and the seed
// policy.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload regen_cold --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -record    # re-record the oracle
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"tnpu/internal/exp"
	"tnpu/internal/memprot"
	"tnpu/internal/model"
)

// options are one run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
	models   []string // nil = all 14
	requests int      // requests per serve leg
	tmpDir   string
}

// workload is one named input set. prepare builds its inputs from the
// seed and warms the process up; run does any further set-up, calls
// setupDone, and then runs timed iterations while more reports true.
type workload struct {
	name    string
	prepare func(*bench) error
	run     func(*bench) error
}

var workloads = []workload{
	{"regen_cold", prepareRegen, regenCold},
	{"regen_warm", prepareRegen, regenWarm},
	{"serve_load", prepareServe, serveLoadRun},
	{"sim_oneshot", prepareCalls, simOneshot},
}

// warmModel is the one-model scale at which set-up runs each workload
// once, checked against the oracle, so that lazy process set-up (code
// and heap warm-up, model construction) finishes before timing. df is
// the fastest workload.
const warmModel = "df"

// The repeatable part of set-up (oracle load, input generation and the
// warm-up) runs at least setupMinReps times and until setupMinTime has
// passed, at most setupMaxReps times; setup_s takes the median. A warm-up
// of a few milliseconds is dominated by scheduling jitter, so the cheap
// ones repeat more.
const (
	setupMinReps = 5
	setupMaxReps = 50
	setupMinTime = 500 * time.Millisecond
)

// bench is one run's state.
type bench struct {
	opts     options
	workers  int
	oracle   *oracle
	tr       *tracer // nil unless tracing
	reqs     []string
	serveDir string // the serve run's directory, recorded memo store included
	calls    []simCall

	prepared   time.Duration
	runStart   time.Time
	timedStart time.Time
	setup      time.Duration
	host0      hostSample
	iters      int

	ops       []float64 // operation latencies, ms
	rates     []float64 // operations per second of each timed iteration
	attempted int
	failed    int
	problems  []string
	layer     map[string]float64
}

func (b *bench) models() []string {
	if len(b.opts.models) == 0 {
		return model.ShortNames()
	}
	return b.opts.models
}

// setupDone ends set-up and starts the timed part.
func (b *bench) setupDone() {
	b.setup = b.prepared + time.Since(b.runStart)
	b.host0 = sampleHost()
	b.timedStart = time.Now()
}

// more reports whether to start another timed iteration: always the
// first, then while the run's time budget lasts.
func (b *bench) more() bool {
	b.iters++
	budget := time.Duration(b.opts.seconds * float64(time.Second))
	return b.iters == 1 || time.Since(b.timedStart) < budget
}

// op records one timed operation.
func (b *bench) op(d time.Duration) {
	b.ops = append(b.ops, millis(d))
	b.attempted++
}

// iteration records one timed iteration (a regeneration, a serve phase,
// a pass over the one-shot calls) that completed ops operations.
func (b *bench) iteration(ops int, wall time.Duration) {
	b.rates = append(b.rates, float64(ops)/seconds(wall))
}

// fail records a wrong output or a violated guard.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.problems) < 10 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerUnits are the metrics every traced run reports. A layer's time is
// given as its share of the workload's own time or as a rate, so a layer
// the workload does not exercise reads 0 without posing as a measured
// time.
func layerUnits() map[string]string {
	u := map[string]string{}
	set := func(unit string, names ...string) {
		for _, n := range names {
			u[n] = unit
		}
	}
	for _, id := range artifactIDs {
		set("ratio", "exp.artifact."+id+"_share")
	}
	for _, k := range cellKinds {
		set("ratio", "exp.cell."+k+"_share")
		set("count", "exp.cell."+k+"_n")
	}
	set("count", "exp.cells_computed", "exp.cell_cache_hits", "e2e.run_n", "compiler.compile_n")
	set("1/s", "e2e.runs_per_s", "compiler.compiles_per_s")
	set("ratio", "exp.pool_busy_frac", "trace.overhead_frac")
	set("blocks/run", "multinpu.blocks_per_run.x2", "multinpu.blocks_per_run.x3", "npu.blocks_per_run")
	set("count", "multinpu.joint_cache_hits", "multinpu.joint_cache_lookups")
	for _, t := range tiers {
		set("blocks/s", "npu."+t.name+"_blocks_per_s")
	}
	for _, s := range memprot.AllSchemes() {
		set("blocks/s", "npu.streak_blocks_per_s."+s.String())
	}
	set("count", "npu.memo_hits", "npu.memo_misses", "npu.memo_records", "npu.memo_disk_hits")
	set("count", "memostore.loads", "memostore.hits", "memostore.saves", "memostore.corrupt")
	for _, src := range sources {
		set("count", "serve."+src+"_n")
		set("ratio", "serve."+src+"_time_share")
	}
	for _, leg := range legs {
		set("ms", "serve."+leg+"_p50_ms")
		set("1/s", "serve."+leg+"_rps")
	}
	set("count", "serve.queue_rejected", "serve.store_hits", "serve.store_computes")
	set("MB", "host.alloc_mb", "host.peak_rss_mb")
	set("count", "host.gc_n", "trace.spans")
	set("ms", "host.gc_pause_ms", "trace.op_p50_ms", "trace.op_tail_ms")
	set("ns", "trace.span_ns")
	set("s", "setup.first_s")
	return u
}

// execute runs one workload and returns its result.
func execute(opts options) (result, *bench, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == opts.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		names := make([]string, len(workloads))
		for i := range workloads {
			names[i] = workloads[i].name
		}
		return result{}, nil, fmt.Errorf("unknown workload %q (want one of %s)", opts.workload, strings.Join(names, ", "))
	}
	if opts.seconds <= 0 {
		return result{}, nil, errors.New("seconds must be positive")
	}
	b := &bench{opts: opts, workers: min(2, runtime.NumCPU()), layer: map[string]float64{}}
	if opts.trace {
		b.tr = newTracer()
	}

	var times []float64
	setupStart := time.Now()
	for len(times) < setupMinReps || (len(times) < setupMaxReps && time.Since(setupStart) < setupMinTime) {
		start := time.Now()
		o, err := loadOracle()
		if err != nil {
			return result{}, nil, err
		}
		b.oracle = o
		if err := w.prepare(b); err != nil {
			return result{}, nil, fmt.Errorf("%s set-up: %w", opts.workload, err)
		}
		times = append(times, seconds(time.Since(start)))
	}
	b.prepared = time.Duration(median(times) * float64(time.Second))
	b.runStart = time.Now()
	if err := w.run(b); err != nil {
		return result{}, nil, fmt.Errorf("%s: %w", opts.workload, err)
	}
	timed := time.Since(b.timedStart)

	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	if !opts.trace {
		res.Metrics["setup_s"] = metric{seconds(b.setup), "s"}
		res.Metrics["op_p50_ms"] = metric{median(b.ops), "ms"}
		res.Metrics["ops_per_s"] = metric{median(b.rates), "1/s"}
		return res, b, nil
	}

	// The first set-up repetition also pays the process's one-time
	// warm-up and serve_load's memo recording, which the median in
	// setup_s leaves out.
	b.layer["setup.first_s"] = times[0] + seconds(b.setup-b.prepared)
	b.layer["host.peak_rss_mb"] = peakRSSMB()
	b.layer["trace.op_tail_ms"] = tail(b.ops)
	sampleHost().since(b.host0, b.layer)
	self, total, count := b.tr.selfTimes()
	if regen := total["exp.regen"]; regen > 0 {
		for _, id := range artifactIDs {
			b.layer["exp.artifact."+id+"_share"] = seconds(self["exp.artifact."+id]) / seconds(regen)
		}
	}
	for _, l := range []struct{ span, rate string }{{"e2e.run", "e2e.runs_per_s"}, {"compiler.compile", "compiler.compiles_per_s"}} {
		b.layer[l.span+"_n"] = float64(count[l.span])
		if d := self[l.span]; d > 0 {
			b.layer[l.rate] = float64(count[l.span]) / seconds(d)
		}
	}
	cost := spanCost()
	spans := b.tr.len()
	b.layer["trace.spans"] = float64(spans)
	b.layer["trace.span_ns"] = float64(cost.Nanoseconds())
	b.layer["trace.overhead_frac"] = float64(spans) * seconds(cost) / seconds(timed)
	b.layer["trace.op_p50_ms"] = median(b.ops)

	units := layerUnits()
	for name, unit := range units {
		res.Metrics[name] = metric{b.layer[name], unit}
	}
	var names []string
	for name := range b.layer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := units[name]; !ok {
			return result{}, nil, fmt.Errorf("per-layer metric %s is missing from layerUnits", name)
		}
	}
	path := filepath.Join(opts.traceDir, fmt.Sprintf("%s-seed%d.json", opts.workload, opts.seed))
	if err := b.tr.write(path); err != nil {
		return result{}, nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, b, nil
}

// runInfo is the line printed before the result: what ran, on what host,
// with how many samples, the tail beside the median latency, and the
// first problems found.
type runInfo struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    bool     `json:"trace"`
	Samples  int      `json:"samples"`
	OpTailMS float64  `json:"op_tail_ms"`
	Workers  int      `json:"workers"`
	Host     hostInfo `json:"host"`
	Problems []string `json:"problems,omitempty"`
}

type hostInfo struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	CodeVersion string `json:"code_version"`
}

func main() { os.Exit(mainRun(os.Args[1:], os.Stdout, os.Stderr)) }

func mainRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: regen_cold, regen_warm, serve_load or sim_oneshot")
	seed := fs.Uint64("seed", 1, "input seed; seed 1 is the default and seed 2 is held out for claims")
	secs := fs.Float64("seconds", 15, "how long the timed part runs (at least one iteration)")
	trace := fs.Int("trace", 0, "1 = record spans and report the per-layer metrics instead of the end-to-end ones")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "directory the spans of a traced run are written to")
	models := fs.String("models", "", "comma-separated model subset of the regen and sim workloads (default: all 14)")
	requests := fs.Int("requests", serveLoad, "requests per serve leg")
	record := fs.Bool("record", false, "re-record the oracle on the reference paths instead of running a workload")
	oracleOut := fs.String("oracle-out", "bench/testdata/expected.json", "where -record writes the oracle")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	workers := min(2, runtime.NumCPU())
	if *record {
		if err := recordOracle(*oracleOut, workers, [][]string{nil, {"df"}}); err != nil {
			fmt.Fprintln(stderr, "bench: record:", err)
			return 1
		}
		fmt.Fprintln(stderr, "bench: wrote", *oracleOut)
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	opts := options{
		workload: *workload,
		seed:     *seed,
		seconds:  *secs,
		trace:    *trace == 1,
		traceDir: *traceDir,
		requests: *requests,
		tmpDir:   os.TempDir(),
	}
	if *models != "" {
		opts.models = strings.Split(*models, ",")
	}
	res, b, err := execute(opts)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	info := runInfo{
		Workload: opts.workload, Seed: opts.seed, Seconds: opts.seconds, Trace: opts.trace,
		Samples: len(b.ops), OpTailMS: tail(b.ops), Workers: workers, Problems: b.problems,
		Host: hostInfo{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), exp.CodeVersion},
	}
	for _, v := range []any{info, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	if !res.Correct {
		for _, p := range b.problems {
			fmt.Fprintln(stderr, "bench: wrong output:", p)
		}
		return 1
	}
	return 0
}
