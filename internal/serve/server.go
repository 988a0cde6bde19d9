package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"tnpu/internal/exp"
	"tnpu/internal/memprot"
	"tnpu/internal/model"
	"tnpu/internal/npu/memostore"
	"tnpu/internal/plot"
)

// Options configures a Server.
type Options struct {
	// Models restricts the served workload set (nil = all 14).
	Models []string
	// CacheDir is the disk cache directory (required).
	CacheDir string
	// Workers bounds concurrent simulation work: it is both the
	// exp.Runner's cell fan-out and the server's artifact worker pool.
	// 0 = GOMAXPROCS.
	Workers int
	// Queue caps jobs admitted (queued + running) before the server
	// sheds load with 503; identical in-flight requests singleflight in
	// front of the queue and never occupy slots. 0 = 1024.
	Queue int
	// CodeVersion overrides exp.CodeVersion in cache keys (tests use
	// this to prove version bumps strand stale entries).
	CodeVersion string
	// MemoDir is the persistent memo-store directory (whole-run cell
	// results; DESIGN.md §6g). Empty = "memo" beside the
	// result cache; "off" disables persistence. Unlike the result cache
	// — whose entries are final artifacts — the memo store holds the
	// regenerable intermediates that make recomputing those artifacts
	// cheap after the result cache is wiped or its code version bumps.
	MemoDir string
}

// Server is the simulation service: stateless HTTP handlers over one
// shared exp.Runner (in-memory singleflight of cells) and one Store
// (cross-process disk cache of artifacts).
type Server struct {
	runner  *exp.Runner
	store   *Store
	bus     *eventBus
	version string
	models  []string
	workers int

	sem      chan struct{}
	queued   atomic.Int64
	maxQueue int64
	rejected atomic.Uint64

	start time.Time
	mux   *http.ServeMux
}

// New builds a Server. The runner's configuration is frozen here — the
// progress sink must be installed before the first simulation.
func New(opts Options) (*Server, error) {
	store, err := NewStore(opts.CacheDir)
	if err != nil {
		return nil, err
	}
	models := opts.Models
	if len(models) == 0 {
		models = model.ShortNames()
	}
	for _, short := range models {
		if _, err := model.ByShort(short); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	version := opts.CodeVersion
	if version == "" {
		version = exp.CodeVersion
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	queue := opts.Queue
	if queue <= 0 {
		queue = 1024
	}
	bus := newEventBus()
	r := exp.NewRunner(models...)
	r.Workers = opts.Workers
	r.Progress = bus
	memoDir := opts.MemoDir
	if memoDir == "" {
		memoDir = filepath.Join(opts.CacheDir, "memo")
	}
	if memoDir != "off" {
		// Cell keys stay under exp.CodeVersion even when opts.CodeVersion
		// overrides the artifact keys: the override exercises result-cache
		// stranding, while cell entries are tied to what actually changes
		// their meaning — the simulator revision.
		if err := r.SetMemoDir(memoDir); err != nil {
			return nil, err
		}
	}

	s := &Server{
		runner:   r,
		store:    store,
		bus:      bus,
		version:  version,
		models:   models,
		workers:  workers,
		sem:      make(chan struct{}, workers),
		maxQueue: int64(queue),
		start:    time.Now(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /events", s.handleEvents)
	mux.HandleFunc("GET /api/models", s.handleModels)
	mux.HandleFunc("GET /api/cell", s.handleCell)
	mux.HandleFunc("GET /api/mixed", s.handleMixed)
	mux.HandleFunc("GET /api/figure/{id}", s.handleFigure)
	mux.HandleFunc("GET /api/sweep/{kind}", s.handleSweep)
	mux.HandleFunc("GET /{$}", s.handleIndex)
	s.mux = mux
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Store exposes the disk cache (tests and /stats).
func (s *Server) Store() *Store { return s.store }

// Runner exposes the shared experiment harness (memo wiring and stats).
func (s *Server) Runner() *exp.Runner { return s.runner }

// errBusy is returned when the job queue is full; mapped to 503.
var errBusy = fmt.Errorf("serve: job queue full, retry later")

// acquire admits one job: it counts toward the queue bound immediately
// and blocks until a worker slot frees. Identical concurrent requests
// never reach here — the store's singleflight collapses them first.
func (s *Server) acquire() error {
	if s.queued.Add(1) > s.maxQueue {
		s.queued.Add(-1)
		s.rejected.Add(1)
		return errBusy
	}
	s.sem <- struct{}{}
	return nil
}

func (s *Server) release() {
	<-s.sem
	s.queued.Add(-1)
}

// cached looks key up through the disk cache, computing (under the job
// queue and worker pool) on a miss.
func (s *Server) cached(key string, compute func() ([]byte, error)) ([]byte, Source, error) {
	return s.store.Get(key, func() ([]byte, error) {
		if err := s.acquire(); err != nil {
			return nil, err
		}
		defer s.release()
		return compute()
	})
}

// --- request parsing helpers -------------------------------------------

func (s *Server) hasModel(short string) bool {
	for _, m := range s.models {
		if m == short {
			return true
		}
	}
	return false
}

func parseClass(v string) (exp.Class, error) {
	switch v {
	case "", "small":
		return exp.Small, nil
	case "large":
		return exp.Large, nil
	}
	return 0, fmt.Errorf("unknown class %q (small|large)", v)
}

func parseScheme(v string) (memprot.Scheme, error) {
	if v == "" {
		return memprot.TreeLess, nil
	}
	for _, sch := range memprot.AllSchemes() {
		if sch.String() == v {
			return sch, nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q (unsecure|baseline|tnpu|encrypt-only)", v)
}

// maxNPUCount bounds /api/cell's count parameter: the paper evaluates
// 1-3 NPUs; 4 leaves one step of headroom without letting a request
// order an unboundedly expensive simulation.
const maxNPUCount = 4

func parseCount(v string) (int, error) {
	if v == "" {
		return 1, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 || n > maxNPUCount {
		return 0, fmt.Errorf("count must be 1..%d, got %q", maxNPUCount, v)
	}
	return n, nil
}

// --- response helpers --------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data) //tnpu:errok (client went away; nothing to do)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeCached emits a cache-layer result: the entry bytes plus an
// X-Tnpu-Cache header naming where they came from (compute|disk|flight),
// which the load tests use to observe convergence.
func writeCached(w http.ResponseWriter, contentType string, data []byte, src Source) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("X-Tnpu-Cache", string(src))
	w.Write(data) //tnpu:errok (client went away; nothing to do)
}

func (s *Server) failCached(w http.ResponseWriter, err error) {
	if err == errBusy {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeError(w, http.StatusInternalServerError, err)
}

// --- endpoints ---------------------------------------------------------

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, `tnpu-serve — TNPU simulation as a service (code version %s)

GET /api/cell?model=df&class=small&scheme=tnpu&count=1   one simulation cell (JSON)
GET /api/mixed?models=df,res&class=small&scheme=tnpu     mixed-tenancy run with per-NPU attribution (JSON)
GET /api/figure/{fig4|fig5|fig14|fig15|fig16|fig17}      paper figure (JSON; &format=svg&class=small for a chart)
GET /api/sweep/{bandwidth|spm|latency}?model=df          sensitivity sweep (JSON)
GET /api/sweep/npucount?model=df                         1-3 NPU scalability curve (JSON; &format=svg&class=small)
GET /api/models                                          served workloads
GET /stats                                               cache/memo/queue counters
GET /events                                              SSE stream of completed-cell progress
GET /healthz                                             liveness
`, s.version)
}

// modelDoc is one workload's metadata.
type modelDoc struct {
	Short       string  `json:"short"`
	Name        string  `json:"name"`
	FootprintMB float64 `json:"footprint_mb"`
	Layers      int     `json:"layers"`
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	docs := make([]modelDoc, 0, len(s.models))
	for _, short := range s.models {
		m, err := model.ByShort(short)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		docs = append(docs, modelDoc{
			Short:       m.Short,
			Name:        m.Name,
			FootprintMB: float64(m.Footprint()) / (1 << 20),
			Layers:      len(m.Layers),
		})
	}
	writeJSON(w, http.StatusOK, docs)
}

// CellResult is the JSON payload of /api/cell: one (model, class, scheme,
// count) simulation plus its normalization against the same-count
// unsecure run.
type CellResult struct {
	Model  string `json:"model"`
	Class  string `json:"class"`
	Scheme string `json:"scheme"`
	Count  int    `json:"count"`

	Cycles       uint64  `json:"cycles"`
	Milliseconds float64 `json:"milliseconds"`
	// Normalized is cycles / unsecure cycles at the same NPU count (the
	// y-axis of Figs. 4/14/16); 1.0 for the unsecure scheme itself.
	Normalized float64 `json:"normalized"`

	TrafficBytes    uint64  `json:"traffic_bytes"`
	MetadataBytes   uint64  `json:"metadata_bytes"`
	CounterMissRate float64 `json:"counter_miss_rate"`
	MACMissRate     float64 `json:"mac_miss_rate"`
}

func (s *Server) handleCell(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	short := q.Get("model")
	if !s.hasModel(short) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown or unserved model %q (see /api/models)", short))
		return
	}
	class, err := parseClass(q.Get("class"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	scheme, err := parseScheme(q.Get("scheme"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	count, err := parseCount(q.Get("count"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	data, src, err := s.cached(cellKey(s.version, short, class, scheme, count), func() ([]byte, error) {
		res, err := s.runner.Run(short, class, scheme, count)
		if err != nil {
			return nil, err
		}
		base, err := s.runner.Run(short, class, memprot.Unsecure, count)
		if err != nil {
			return nil, err
		}
		if base.Cycles == 0 {
			return nil, fmt.Errorf("serve: unsecure reference for %s/%s took zero cycles", short, class)
		}
		cfg := class.Config()
		return json.Marshal(CellResult{
			Model:  short,
			Class:  class.String(),
			Scheme: scheme.String(),
			Count:  count,

			Cycles:       res.Cycles,
			Milliseconds: 1e3 * float64(res.Cycles) / float64(cfg.Mem.FreqHz),
			Normalized:   float64(res.Cycles) / float64(base.Cycles),

			TrafficBytes:    res.Traffic.Total(),
			MetadataBytes:   res.Traffic.Metadata(),
			CounterMissRate: res.Counter.MissRate(),
			MACMissRate:     res.MAC.MissRate(),
		})
	})
	if err != nil {
		s.failCached(w, err)
		return
	}
	writeCached(w, "application/json", data, src)
}

// cellKey content-addresses one /api/cell response: the model, the class
// configuration, the scheme and the NPU count, under a code version.
func cellKey(version, short string, class exp.Class, scheme memprot.Scheme, count int) string {
	return exp.Digest(version, "cell", short, exp.ConfigDigest(class.Config()), scheme.String(), fmt.Sprintf("x%d", count))
}

// figureDoc is the JSON shape of /api/figure.
type figureDoc struct {
	ID     string      `json:"id"`
	Title  string      `json:"title"`
	Series []seriesDoc `json:"series"`
}

type seriesDoc struct {
	Class  string    `json:"class"`
	Label  string    `json:"label"`
	Models []string  `json:"models"`
	Values []float64 `json:"values"`
	Mean   float64   `json:"mean"`
}

// figureKey content-addresses one figure: the figure definition (code
// version), the workload set, and both Table II hardware configurations
// it simulates.
func (s *Server) figureKey(id string) string {
	return exp.DigestParams(s.version, "figure", map[string]string{
		"id":     id,
		"models": strings.Join(s.models, ","),
		"small":  exp.ConfigDigest(exp.Small.Config()),
		"large":  exp.ConfigDigest(exp.Large.Config()),
	})
}

func (s *Server) handleFigure(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	i := slices.IndexFunc(exp.Figures, func(f exp.FigureSpec) bool { return f.ID == id })
	if i < 0 {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown figure %q (fig4|fig5|fig14|fig15|fig16|fig17)", id))
		return
	}
	s.serveFigure(w, req, s.figureKey(id), exp.Figures[i])
}

// serveFigure serves one figure-shaped artifact, for /api/figure and
// /api/sweep/npucount: the figureDoc JSON content-addressed under key,
// or, with format=svg, the requested class's chart rendered from it
// through plot.ClassCharts.
func (s *Server) serveFigure(w http.ResponseWriter, req *http.Request, key string, spec exp.FigureSpec) {
	format := req.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	if format != "json" && format != "svg" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (json|svg)", format))
		return
	}

	data, src, err := s.cached(key, func() ([]byte, error) {
		fig, err := spec.Gen(s.runner)
		if err != nil {
			return nil, err
		}
		doc := figureDoc{ID: fig.ID, Title: fig.Title}
		for _, series := range fig.Series {
			doc.Series = append(doc.Series, seriesDoc{
				Class:  series.Class.String(),
				Label:  series.Label,
				Models: series.Models,
				Values: series.Values,
				Mean:   series.Mean(),
			})
		}
		return json.Marshal(doc)
	})
	if err != nil {
		s.failCached(w, err)
		return
	}
	if format == "json" {
		writeCached(w, "application/json", data, src)
		return
	}

	// SVG is a cheap deterministic rendering of the cached figure data,
	// so only the JSON is content-addressed.
	class, err := parseClass(req.URL.Query().Get("class"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var doc figureDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("corrupt figure entry: %w", err))
		return
	}
	var classSeries []plot.ClassSeries
	categories := []string(nil)
	for _, series := range doc.Series {
		classSeries = append(classSeries, plot.ClassSeries{Class: series.Class, Label: series.Label, Values: series.Values})
		if categories == nil {
			categories = series.Models
		}
	}
	for _, cc := range plot.ClassCharts(doc.ID, doc.Title, categories, classSeries, spec.RefLine, spec.YLabel) {
		if cc.Class != class.String() {
			continue
		}
		svg, err := cc.Chart.SVG()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeCached(w, "image/svg+xml", []byte(svg), src)
		return
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("figure %s has no %s-class series", doc.ID, class))
}

// sweepDoc is the JSON shape of /api/sweep.
type sweepDoc struct {
	Name   string          `json:"name"`
	Model  string          `json:"model"`
	Points []sweepPointDoc `json:"points"`
}

type sweepPointDoc struct {
	Label    string  `json:"label"`
	Baseline float64 `json:"baseline"`
	TNPU     float64 `json:"tnpu"`
}

func (s *Server) handleSweep(w http.ResponseWriter, req *http.Request) {
	kind := req.PathValue("kind")
	var gen func(string) (exp.Sweep, error)
	switch kind {
	case "bandwidth":
		gen = s.runner.BandwidthSweep
	case "spm":
		gen = s.runner.SPMSweep
	case "latency":
		gen = s.runner.LatencySweep
	case "npucount":
		s.handleNPUCountSweep(w, req)
		return
	default:
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q (bandwidth|spm|latency|npucount)", kind))
		return
	}
	short := req.URL.Query().Get("model")
	if !s.hasModel(short) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown or unserved model %q (see /api/models)", short))
		return
	}

	// The sweeps scale one axis off the Small configuration, so its
	// digest (plus the sweep definition under the code version) is the
	// full input identity.
	key := exp.DigestParams(s.version, "sweep", map[string]string{
		"kind":  kind,
		"model": short,
		"base":  exp.ConfigDigest(exp.Small.Config()),
	})
	data, src, err := s.cached(key, func() ([]byte, error) {
		sw, err := gen(short)
		if err != nil {
			return nil, err
		}
		doc := sweepDoc{Name: sw.Name, Model: sw.Model}
		for _, p := range sw.Points {
			doc.Points = append(doc.Points, sweepPointDoc{Label: p.Label, Baseline: p.Baseline, TNPU: p.TNPU})
		}
		return json.Marshal(doc)
	})
	if err != nil {
		s.failCached(w, err)
		return
	}
	writeCached(w, "application/json", data, src)
}

// handleNPUCountSweep serves the scalability curve: normalized execution
// time at 1–3 NPUs per scheme and class, now cheap enough to compute on
// demand (the horizon arbitration). The
// artifact is figure-shaped — class-tagged series over NPU-count
// categories — so it is served through serveFigure, as /api/figure is.
// Both Table II configurations go into the cache key because the sweep
// simulates both classes (unlike the one-axis sweeps, which scale off
// Small alone). Count itself needs no key component: it is the category
// axis inside the artifact, and each runner cell beneath it keys its
// model tuple, one entry per NPU (exp.TestCellKeysDistinct).
func (s *Server) handleNPUCountSweep(w http.ResponseWriter, req *http.Request) {
	short := req.URL.Query().Get("model")
	if !s.hasModel(short) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown or unserved model %q (see /api/models)", short))
		return
	}
	key := exp.DigestParams(s.version, "sweep", map[string]string{
		"kind":  "npucount",
		"model": short,
		"small": exp.ConfigDigest(exp.Small.Config()),
		"large": exp.ConfigDigest(exp.Large.Config()),
	})
	gen := func(r *exp.Runner) (exp.Figure, error) { return r.NPUCountSweep(short) }
	s.serveFigure(w, req, key, exp.FigureSpec{ID: "npucount", Gen: gen, RefLine: 1, YLabel: "normalized execution time"})
}

// MixedResult is the JSON payload of /api/mixed: one mixed-tenancy run
// with per-NPU attribution — each tenant's completion time and served
// traffic on the shared bus and metadata caches.
type MixedResult struct {
	Models []string `json:"models"`
	Class  string   `json:"class"`
	Scheme string   `json:"scheme"`

	// Cycles is the completion time of the slowest tenant.
	Cycles       uint64  `json:"cycles"`
	Milliseconds float64 `json:"milliseconds"`

	NPUs []MixedNPU `json:"npus"`

	TrafficBytes  uint64 `json:"traffic_bytes"`
	MetadataBytes uint64 `json:"metadata_bytes"`
}

// MixedNPU is one tenant's share of a mixed run.
type MixedNPU struct {
	Model      string `json:"model"`
	Cycles     uint64 `json:"cycles"`
	Blocks     uint64 `json:"blocks"`
	ReadBytes  uint64 `json:"read_bytes"`
	WriteBytes uint64 `json:"write_bytes"`
}

// handleMixed serves the mixed-tenancy cell: different workloads on each
// NPU of one SoC, the co-tenant QoS view the ROADMAP contention matrix
// needs. The models parameter is an ordered comma-separated list; order
// is part of the identity (it fixes each tenant's context region).
func (s *Server) handleMixed(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	shorts := strings.Split(q.Get("models"), ",")
	if len(shorts) < 1 || len(shorts) > maxNPUCount || shorts[0] == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("models must list 1..%d workloads, got %q", maxNPUCount, q.Get("models")))
		return
	}
	for _, short := range shorts {
		if !s.hasModel(short) {
			writeError(w, http.StatusBadRequest, fmt.Errorf("unknown or unserved model %q (see /api/models)", short))
			return
		}
	}
	class, err := parseClass(q.Get("class"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	scheme, err := parseScheme(q.Get("scheme"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	key := exp.DigestParams(s.version, "mixed", map[string]string{
		"models": strings.Join(shorts, ","),
		"config": exp.ConfigDigest(class.Config()),
		"scheme": scheme.String(),
	})
	data, src, err := s.cached(key, func() ([]byte, error) {
		res, err := s.runner.RunMixed(shorts, class, scheme)
		if err != nil {
			return nil, err
		}
		cfg := class.Config()
		doc := MixedResult{
			Models: shorts,
			Class:  class.String(),
			Scheme: scheme.String(),

			Cycles:       res.Cycles,
			Milliseconds: 1e3 * float64(res.Cycles) / float64(cfg.Mem.FreqHz),

			TrafficBytes:  res.Traffic.Total(),
			MetadataBytes: res.Traffic.Metadata(),
		}
		for i, n := range res.NPUs {
			doc.NPUs = append(doc.NPUs, MixedNPU{
				Model:      shorts[i],
				Cycles:     n.Cycles,
				Blocks:     n.Blocks,
				ReadBytes:  n.ReadBytes,
				WriteBytes: n.WriteBytes,
			})
		}
		return json.Marshal(doc)
	})
	if err != nil {
		s.failCached(w, err)
		return
	}
	writeCached(w, "application/json", data, src)
}

// StatsDoc is the /stats payload: every counter the service keeps —
// disk-cache outcomes, the harness's in-memory cell cache, the persistent
// cell store, queue pressure, SSE delivery, and process vitals.
type StatsDoc struct {
	CodeVersion   string   `json:"code_version"`
	UptimeSeconds float64  `json:"uptime_seconds"`
	Models        []string `json:"models"`
	Workers       int      `json:"workers"`

	Store StoreStats `json:"store"`

	Queue struct {
		Depth    int64  `json:"depth"`
		Capacity int64  `json:"capacity"`
		Rejected uint64 `json:"rejected"`
	} `json:"queue"`

	// MemoStore is the persistent store of whole-run cell results (empty
	// dir = persistence disabled).
	MemoStore struct {
		Dir string `json:"dir"`
		memostore.Stats
	} `json:"memo_store"`

	// Harness is the runner's in-memory cell singleflight cache.
	Harness struct {
		CellsComputed  int    `json:"cells_computed"`
		CellCacheHits  uint64 `json:"cell_cache_hits"`
		CompileWallMS  int64  `json:"compile_wall_ms"`
		SimulateWallMS int64  `json:"simulate_wall_ms"`
	} `json:"harness"`

	Events struct {
		Published   uint64 `json:"published"`
		Dropped     uint64 `json:"dropped"`
		Subscribers int    `json:"subscribers"`
	} `json:"events"`

	Runtime struct {
		Goroutines     int    `json:"goroutines"`
		HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	} `json:"runtime"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	var doc StatsDoc
	doc.CodeVersion = s.version
	doc.UptimeSeconds = time.Since(s.start).Seconds()
	doc.Models = append([]string(nil), s.models...)
	sort.Strings(doc.Models)
	doc.Workers = s.workers

	doc.Store = s.store.Stats()

	doc.Queue.Depth = s.queued.Load()
	doc.Queue.Capacity = s.maxQueue
	doc.Queue.Rejected = s.rejected.Load()

	doc.MemoStore.Dir = s.runner.MemoDir()
	doc.MemoStore.Stats = s.runner.CellStoreStats()

	log := s.runner.Log()
	doc.Harness.CellsComputed = log.CellsDone()
	doc.Harness.CellCacheHits = log.CacheHits()
	doc.Harness.CompileWallMS = log.TotalByKind("compile").Milliseconds()
	doc.Harness.SimulateWallMS = log.TotalByKind("simulate").Milliseconds()

	doc.Events.Published = s.bus.published.Load()
	doc.Events.Dropped = s.bus.dropped.Load()
	doc.Events.Subscribers = s.bus.subscribers()

	doc.Runtime.Goroutines = runtime.NumGoroutine()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	doc.Runtime.HeapAllocBytes = mem.HeapAlloc

	writeJSON(w, http.StatusOK, doc)
}

// handleEvents streams the runner's completed-cell progress lines as
// server-sent events. Events may be dropped for a slow consumer (the
// stream is observability, not a transactional log); the terminating
// "dropped" count is visible on /stats.
func (s *Server) handleEvents(w http.ResponseWriter, req *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported by this connection"))
		return
	}
	ch := s.bus.subscribe()
	defer s.bus.unsubscribe(ch)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	fmt.Fprintf(w, "event: hello\ndata: tnpu-serve %s\n\n", s.version)
	fl.Flush()

	for {
		select {
		case <-req.Context().Done():
			return
		case line := <-ch:
			fmt.Fprintf(w, "event: cell\ndata: %s\n\n", line)
			fl.Flush()
		}
	}
}
