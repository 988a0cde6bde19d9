package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tnpu/internal/serve"
)

// The serve workload drives tnpu-serve the way the repository's own serve
// smoke test does (scripts/serve_smoke.sh): a server hosting one model,
// -models df, receives the load-test request mix in three legs, each on a
// freshly started server. The model, the endpoint mix, the request count
// and the legs are taken from that script and from the load tests it
// runs (internal/serve/load_test.go). What differs:
//   - the load test floods all requests at once over up to 128
//     connections; here `workers` closed-loop clients each send the next
//     request only after the previous reply arrived, so the load stays
//     within nproc connections;
//   - the arrival order is a seeded shuffle instead of goroutine
//     scheduling;
//   - the memo store the restart leg reads is recorded in set-up, and
//     the cold and warm legs run without one (see legs).
const (
	serveModel = "df"
	// serveLoad is the request count of the load test's full run
	// (TestLoadConcurrentSweeps) and of serve_smoke.sh's documented
	// SERVE_SMOKE_LOAD=2000.
	serveLoad = 2000
)

// servePaths is the load test's request mix (loadPaths): every (scheme,
// class, count 1-2) cell of one model, three figures and two sensitivity
// sweeps, 21 distinct artifacts.
func servePaths(short string) []string {
	var paths []string
	for _, scheme := range []string{"unsecure", "baseline", "tnpu", "encrypt-only"} {
		for _, class := range []string{"small", "large"} {
			for _, count := range []string{"1", "2"} {
				paths = append(paths, fmt.Sprintf("/api/cell?model=%s&class=%s&scheme=%s&count=%s", short, class, scheme, count))
			}
		}
	}
	return append(paths,
		"/api/figure/fig4",
		"/api/figure/fig14",
		"/api/figure/fig15",
		"/api/sweep/bandwidth?model="+short,
		"/api/sweep/latency?model="+short,
	)
}

// requestList builds the n requests of one leg. As in the load test they
// cycle through servePaths, so the multiset of requests is fixed and runs
// at different seeds do the same work. The seed sets only the order in
// which they arrive, which decides which request of an artifact computes,
// which waits on the in-flight computation and which reads the stored
// result back.
func requestList(n int, seed uint64) []string {
	paths := servePaths(serveModel)
	list := make([]string, n)
	for i := range list {
		list[i] = paths[i%len(paths)]
	}
	order := rand.New(rand.NewPCG(seed, 0x5eed))
	order.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	return list
}

// legs are one serve iteration, serve_smoke.sh's three legs:
//
//	cold     an empty result cache: every artifact is simulated once
//	warm     a restart over the cold leg's result cache: every request is
//	         read back from disk, nothing computes
//	restart  a restart on an empty result cache over a recorded memo
//	         store: every artifact is recomputed, from memos instead of
//	         simulation
//
// In serve_smoke.sh the cold leg records the memo store the restart leg
// reads. Here it is recorded in set-up, and the cold and warm legs run
// with memo persistence off. With it on, each cold leg would write about
// 250 memo files, tens of times a second. On the ext4 disk the benchmark
// was calibrated on, that churn slowed later file creation, and serve
// throughput fell by 40% over six consecutive runs. The record path
// therefore shows in set-up (setup.first_s), not in the timed part.
var legs = []string{"cold", "warm", "restart"}

// server is one in-process tnpu-serve on a loopback listener.
type server struct {
	srv  *serve.Server
	http *http.Server
	base string
	done chan error
}

// startServer starts a server with tnpu-serve's defaults except for the
// directories and the worker count. A memoDir of "off" disables memo
// persistence.
func startServer(workers int, cacheDir, memoDir string) (*server, error) {
	srv, err := serve.New(serve.Options{Models: []string{serveModel}, CacheDir: cacheDir, MemoDir: memoDir, Workers: workers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// reply is what one request got back.
type reply struct {
	status int
	body   []byte
	src    string // X-Tnpu-Cache
	lat    time.Duration
}

// client sends the requests of every leg over at most `clients`
// keep-alive connections.
type client struct {
	http    *http.Client
	clients int
	reqID   atomic.Int64
}

func newClient(clients int) *client {
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	return &client{http: &http.Client{Transport: tr, Timeout: 120 * time.Second}, clients: clients}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// replay sends reqs from closed-loop clients, each sending its next
// request only after the previous reply arrived. Replies land at their
// request's index.
func (c *client) replay(s *server, reqs []string, tr *tracer, parent int64) ([]reply, time.Duration) {
	out := make([]reply, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < c.clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				sp := tr.start("serve.request", parent, c.reqID.Add(1))
				out[i] = c.get(s.base + reqs[i])
				tr.finish(sp)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

func (c *client) get(url string) reply {
	start := time.Now()
	resp, err := c.http.Get(url)
	if err != nil {
		return reply{body: []byte(err.Error()), lat: time.Since(start)}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	rep := reply{status: resp.StatusCode, body: body, src: resp.Header.Get("X-Tnpu-Cache"), lat: time.Since(start)}
	if err != nil {
		rep.status, rep.body = 0, []byte(err.Error())
	}
	return rep
}

// checkReplies returns what is wrong with a leg's replies: a non-200
// status or a body whose digest differs from the oracle's for its URL.
// Every leg is checked against the same digests, so a restart body that
// is not byte-identical to the cold body for the same URL fails too.
func checkReplies(o *oracle, reqs []string, reps []reply) []string {
	var bad []string
	for i, rep := range reps {
		if rep.status != http.StatusOK {
			bad = append(bad, fmt.Sprintf("%s: status %d: %s", reqs[i], rep.status, bytes.TrimSpace(rep.body)))
			continue
		}
		if err := o.checkServe(reqs[i], rep.body); err != nil {
			bad = append(bad, err.Error())
		}
	}
	return bad
}

// legResult is one replay of the request list against one server.
type legResult struct {
	reps  []reply
	wall  time.Duration
	stats serve.StatsDoc
	layer map[string]float64 // runner readings; nil unless traced
}

// runLeg starts a server, replays reqs against it with spans under tr,
// reads /stats, and stops it.
func (b *bench) runLeg(cl *client, name string, reqs []string, cacheDir, memoDir string, tr *tracer) (legResult, error) {
	var res legResult
	s, err := startServer(b.workers, cacheDir, memoDir)
	if err != nil {
		return res, err
	}
	sp := tr.start("serve."+name, 0, 0)
	res.reps, res.wall = cl.replay(s, reqs, tr, sp.ID)
	tr.finish(sp)
	res.stats, err = readStats(cl, s)
	if tr != nil {
		res.layer = b.runnerLayers(s.srv.Runner(), res.wall, false)
	}
	cl.close()
	if serr := s.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stopping the server: %w", serr)
	}
	return res, err
}

func readStats(cl *client, s *server) (serve.StatsDoc, error) {
	var doc serve.StatsDoc
	rep := cl.get(s.base + "/stats")
	if rep.status != http.StatusOK {
		return doc, fmt.Errorf("/stats: status %d: %s", rep.status, rep.body)
	}
	if err := json.Unmarshal(rep.body, &doc); err != nil {
		return doc, fmt.Errorf("/stats: %w", err)
	}
	return doc, nil
}

// guardLeg returns why a leg did not do what it stands for, or "": the
// cold leg must compute each distinct artifact once and the warm leg
// nothing, and the restart leg must be served by the memo store without
// adding to it.
func guardLeg(name string, reqs []string, st serve.StatsDoc) string {
	distinct := map[string]bool{}
	for _, r := range reqs {
		distinct[r] = true
	}
	switch {
	case name == "cold" && st.Store.Computes != uint64(len(distinct)):
		return fmt.Sprintf("guard: the cold leg computed %d artifacts, want %d", st.Store.Computes, len(distinct))
	case name == "warm" && st.Store.Computes != 0:
		return fmt.Sprintf("guard: the warm leg computed %d artifacts, want 0", st.Store.Computes)
	case name == "restart" && (st.MemoStore.Hits == 0 || st.MemoStore.Saves != 0):
		return fmt.Sprintf("guard: the restart leg had %d memo-store hits and %d saves, want some and none",
			st.MemoStore.Hits, st.MemoStore.Saves)
	}
	return ""
}

// iterate runs the three legs in a fresh directory under parent, the
// restart leg over memoDir, and checks each one. It returns the legs in
// order and what was wrong with them.
func (b *bench) iterate(cl *client, parent, memoDir string, reqs []string, tr *tracer) ([]legResult, []string, error) {
	dir, err := os.MkdirTemp(parent, "serve-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	dirs := map[string][2]string{
		"cold":    {filepath.Join(dir, "cache"), "off"},
		"warm":    {filepath.Join(dir, "cache"), "off"},
		"restart": {filepath.Join(dir, "restart"), memoDir},
	}
	var out []legResult
	var bad []string
	for _, name := range legs {
		res, err := b.runLeg(cl, name, reqs, dirs[name][0], dirs[name][1], tr)
		if err != nil {
			return nil, nil, fmt.Errorf("%s leg: %w", name, err)
		}
		bad = append(bad, checkReplies(b.oracle, reqs, res.reps)...)
		if msg := guardLeg(name, reqs, res.stats); msg != "" {
			bad = append(bad, msg)
		}
		out = append(out, res)
	}
	return out, bad, nil
}

// recordMemo records a memo store in dir/memo the way a cold leg of
// serve_smoke.sh does: a server on an empty result cache with the store
// attached answers every distinct request once.
func (b *bench) recordMemo(cl *client, dir string) error {
	paths := servePaths(serveModel)
	res, err := b.runLeg(cl, "record", paths, filepath.Join(dir, "cache"), filepath.Join(dir, "memo"), nil)
	if err != nil {
		return fmt.Errorf("recording the memo store: %w", err)
	}
	if bad := checkReplies(b.oracle, paths, res.reps); len(bad) > 0 {
		return fmt.Errorf("recording the memo store: %d problems, first: %s", len(bad), bad[0])
	}
	if res.stats.MemoStore.Saves == 0 {
		return errors.New("recording the memo store saved nothing")
	}
	return nil
}

// sources are the X-Tnpu-Cache values a reply can carry.
var sources = []string{string(serve.SourceCompute), string(serve.SourceFlight), string(serve.SourceDisk)}

// serveLayers adds to a traced leg's runner readings where its request
// time went, by cache outcome, as shares of the summed request latency,
// and the server's queue and store counters.
func serveLayers(res legResult) map[string]float64 {
	m := res.layer
	var total time.Duration
	for _, src := range sources {
		m["serve."+src+"_n"] = 0
		m["serve."+src+"_time_share"] = 0
	}
	for _, rep := range res.reps {
		total += rep.lat
		if n, ok := m["serve."+rep.src+"_n"]; ok {
			m["serve."+rep.src+"_n"] = n + 1
			m["serve."+rep.src+"_time_share"] += seconds(rep.lat)
		}
	}
	for _, src := range sources {
		m["serve."+src+"_time_share"] /= seconds(total)
	}
	m["serve.queue_rejected"] = float64(res.stats.Queue.Rejected)
	m["serve.store_hits"] = float64(res.stats.Store.Hits())
	m["serve.store_computes"] = float64(res.stats.Store.Computes)
	return m
}

// prepareServe builds the request list and warms the process up with the
// three legs over each distinct request once. Server start-up is part of
// it, so work moved there shows in setup_s. The first repetition also
// records the restart leg's memo store in b.serveDir, which later
// repetitions and the timed part reuse. Recording writes about 250
// files, and on the calibration host the time to create 300 files
// doubled from one minute to the next, so recording stays out of the
// median in setup_s and shows in setup.first_s instead; regen_warm's
// setup_s gates the record path.
func prepareServe(b *bench) error {
	b.reqs = requestList(b.opts.requests, b.opts.seed)
	cl := newClient(b.workers)
	if b.serveDir == "" {
		dir, err := os.MkdirTemp(b.opts.tmpDir, "serve-")
		if err != nil {
			return err
		}
		b.serveDir = dir
		if err := b.recordMemo(cl, dir); err != nil {
			return err
		}
	}
	dir := b.serveDir
	_, bad, err := b.iterate(cl, dir, filepath.Join(dir, "memo"), servePaths(serveModel), nil)
	if err != nil {
		return err
	}
	if len(bad) > 0 {
		return fmt.Errorf("warm-up: %d problems, first: %s", len(bad), bad[0])
	}
	return nil
}

// serveLoadRun times iterations of the three legs over the memo store
// set-up recorded. An iteration's rate is its requests over the summed
// replay time of its legs; server start-up and shutdown are not part of
// it.
func serveLoadRun(b *bench) error {
	dir := b.serveDir
	defer os.RemoveAll(dir)
	cl := newClient(b.workers)
	memoDir := filepath.Join(dir, "memo")
	perLeg := newMeans()
	lat := map[string][]float64{}
	rate := map[string][]float64{}
	b.setupDone()
	for b.more() {
		res, bad, err := b.iterate(cl, dir, memoDir, b.reqs, b.tr)
		if err != nil {
			return err
		}
		for _, msg := range bad {
			b.fail("%s", msg)
		}
		var wall time.Duration
		ops := 0
		for i, leg := range res {
			wall += leg.wall
			ops += len(leg.reps)
			for _, rep := range leg.reps {
				b.op(rep.lat)
				lat[legs[i]] = append(lat[legs[i]], millis(rep.lat))
			}
			rate[legs[i]] = append(rate[legs[i]], float64(len(leg.reps))/seconds(leg.wall))
			if leg.layer != nil {
				perLeg.add(serveLayers(leg))
			}
		}
		b.iteration(ops, wall)
	}
	if b.tr != nil {
		perLeg.into(b.layer)
		for _, leg := range legs {
			b.layer["serve."+leg+"_p50_ms"] = median(lat[leg])
			b.layer["serve."+leg+"_rps"] = median(rate[leg])
		}
	}
	return nil
}
