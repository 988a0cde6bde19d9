package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// loadPaths is the request mix the load tests hammer: every (scheme,
// class, count) cell of a sweep grid plus figure and sensitivity-sweep
// artifacts — 21 distinct content addresses, requested thousands of
// times.
func loadPaths(model string) []string {
	var paths []string
	for _, scheme := range []string{"unsecure", "baseline", "tnpu", "encrypt-only"} {
		for _, class := range []string{"small", "large"} {
			for _, count := range []string{"1", "2"} {
				paths = append(paths, fmt.Sprintf("/api/cell?model=%s&class=%s&scheme=%s&count=%s", model, class, scheme, count))
			}
		}
	}
	paths = append(paths,
		"/api/figure/fig4",
		"/api/figure/fig14",
		"/api/figure/fig15",
		"/api/sweep/bandwidth?model="+model,
		"/api/sweep/latency?model="+model,
	)
	return paths
}

// loadClient bounds sockets, not concurrency: thousands of in-flight
// requests share a capped connection pool so the test exercises the
// server's queueing, not the kernel's fd table.
func loadClient() *http.Client {
	return &http.Client{
		Timeout: 5 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     128,
			MaxIdleConnsPerHost: 128,
		},
	}
}

// floodStats aggregates one flood's outcomes.
type floodStats struct {
	ok        atomic.Uint64
	badStatus atomic.Uint64
	transport atomic.Uint64
	status5xx atomic.Uint64

	mu     sync.Mutex
	sample string // first failure, for the report
}

func (f *floodStats) note(sample string) {
	f.mu.Lock()
	if f.sample == "" {
		f.sample = sample
	}
	f.mu.Unlock()
}

// flood fires n concurrent GETs round-robin over paths and waits for all
// of them. Bodies are fully drained so connections are reused.
func flood(client *http.Client, base string, paths []string, n int) *floodStats {
	stats := &floodStats{}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			resp, err := client.Get(base + path)
			if err != nil {
				stats.transport.Add(1)
				stats.note(fmt.Sprintf("%s: %v", path, err))
				return
			}
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close() //tnpu:errok
			if rerr != nil {
				stats.transport.Add(1)
				stats.note(fmt.Sprintf("%s: read: %v", path, rerr))
				return
			}
			if resp.StatusCode != http.StatusOK {
				stats.badStatus.Add(1)
				if resp.StatusCode >= 500 {
					stats.status5xx.Add(1)
				}
				stats.note(fmt.Sprintf("%s: status %d: %.200s", path, resp.StatusCode, body))
				return
			}
			if len(body) == 0 {
				stats.badStatus.Add(1)
				stats.note(path + ": empty 200 body")
				return
			}
			stats.ok.Add(1)
		}(paths[i%len(paths)])
	}
	wg.Wait()
	return stats
}

func (f *floodStats) assertClean(t *testing.T, n int) {
	t.Helper()
	if got := f.ok.Load(); got != uint64(n) {
		t.Errorf("%d/%d requests ok (%d bad status, %d of them 5xx, %d transport errors); first failure: %s",
			got, n, f.badStatus.Load(), f.status5xx.Load(), f.transport.Load(), f.sample)
	}
}

// TestLoadConcurrentSweeps is the acceptance load test: thousands of
// concurrent requests over a 21-artifact sweep grid against a cold
// service, with the singleflight + disk-cache contract verified through
// the counters, memory bounded, and a restarted (warm-cache) service
// measurably faster than the cold one at the same request volume.
func TestLoadConcurrentSweeps(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 250
	}
	paths := loadPaths("df")
	client := loadClient()
	dir := t.TempDir()

	// --- cold service: every artifact must be computed exactly once ----
	cold, err := New(Options{Models: []string{"df"}, CacheDir: dir, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	coldTS := httptest.NewServer(cold.Handler())
	defer coldTS.Close()

	coldStart := time.Now()
	flood(client, coldTS.URL, paths, n).assertClean(t, n)
	coldDur := time.Since(coldStart)

	st := cold.Store().Stats()
	if st.Computes != uint64(len(paths)) {
		t.Errorf("cold computes = %d, want exactly %d (one per distinct artifact)", st.Computes, len(paths))
	}
	if st.Stores != uint64(len(paths)) {
		t.Errorf("cold stores = %d, want %d", st.Stores, len(paths))
	}
	if got := st.Hits() + st.Computes; got != uint64(n) {
		t.Errorf("cold lookups don't add up: hits %d + computes %d != %d requests", st.Hits(), st.Computes, n)
	}
	if st.Corrupt != 0 || st.Errors != 0 {
		t.Errorf("cold corruption/errors: %+v", st)
	}
	// The runner's own singleflight must have collapsed the cell grid:
	// figures and cells share unsecure denominators, so in-memory cache
	// hits are structural, and no simulation ran twice.
	log := cold.runner.Log()
	if log.CacheHits() == 0 {
		t.Error("harness cell cache saw no hits during the figure/cell grid")
	}

	// --- bounded memory ------------------------------------------------
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	const heapBound = 1 << 30
	if mem.HeapAlloc > heapBound {
		t.Errorf("heap after %d requests = %d MiB, bound %d MiB", n, mem.HeapAlloc>>20, heapBound>>20)
	}
	t.Logf("cold: %d requests in %v, %d computes, heap %d MiB", n, coldDur, st.Computes, mem.HeapAlloc>>20)

	// --- warm restart: zero recomputation, faster regeneration ---------
	warm, err := New(Options{Models: []string{"df"}, CacheDir: dir, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	warmTS := httptest.NewServer(warm.Handler())
	defer warmTS.Close()

	warmStart := time.Now()
	flood(client, warmTS.URL, paths, n).assertClean(t, n)
	warmDur := time.Since(warmStart)

	wst := warm.Store().Stats()
	if wst.Computes != 0 {
		t.Errorf("warm service recomputed %d artifacts; disk cache did not survive the restart", wst.Computes)
	}
	if wst.DiskHits+wst.FlightHits != uint64(n) {
		t.Errorf("warm hits = %d, want %d", wst.DiskHits+wst.FlightHits, n)
	}
	if cells := warm.runner.Log().CellsDone(); cells != 0 {
		t.Errorf("warm service computed %d harness cells; results must come from disk", cells)
	}
	t.Logf("warm: %d requests in %v (cold %v)", n, warmDur, coldDur)
	// Warm regeneration does strictly less work (disk reads instead of
	// simulations); only compare wall clocks when the cold run is slow
	// enough for the difference to dominate scheduling noise.
	if coldDur > 100*time.Millisecond && warmDur >= coldDur {
		t.Errorf("warm regeneration (%v) not faster than cold (%v)", warmDur, coldDur)
	}
}

// TestLoadResponsesByteIdentical pins response determinism across the
// cache layers: the same artifact fetched cold (computed), hot (disk),
// and after a restart must be byte-identical.
func TestLoadResponsesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	paths := loadPaths("df")

	fetchAll := func(s *Server) map[string]string {
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		out := make(map[string]string, len(paths))
		for _, path := range paths {
			resp, body := get(t, ts.URL+path)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: %d", path, resp.StatusCode)
			}
			out[path] = string(body)
		}
		return out
	}

	first, err := New(Options{Models: []string{"df"}, CacheDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	coldBodies := fetchAll(first)
	hotBodies := fetchAll(first)
	second, err := New(Options{Models: []string{"df"}, CacheDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	restartBodies := fetchAll(second)

	for _, path := range paths {
		if coldBodies[path] != hotBodies[path] {
			t.Errorf("%s: disk-cached body differs from computed body", path)
		}
		if coldBodies[path] != restartBodies[path] {
			t.Errorf("%s: post-restart body differs from computed body", path)
		}
	}
	if got := second.Store().Stats().Computes; got != 0 {
		t.Errorf("restarted service computed %d artifacts", got)
	}
}

// TestLoadAgainstExternalServer drives a separately booted tnpu-serve
// process (scripts/serve_smoke.sh): TNPU_SERVE_URL points at it,
// TNPU_SERVE_LOAD scales the request count, and TNPU_SERVE_EXPECT_WARM=1
// asserts the process serves purely from its disk cache (the smoke
// script's restart leg). Asserts zero 5xx and cross-request cache hits.
func TestLoadAgainstExternalServer(t *testing.T) {
	base := os.Getenv("TNPU_SERVE_URL")
	if base == "" {
		t.Skip("TNPU_SERVE_URL not set; this target is driven by scripts/serve_smoke.sh")
	}
	n := 300
	if v := os.Getenv("TNPU_SERVE_LOAD"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed <= 0 {
			t.Fatalf("bad TNPU_SERVE_LOAD %q", v)
		}
		n = parsed
	}
	model := os.Getenv("TNPU_SERVE_MODEL")
	if model == "" {
		model = "df"
	}

	client := loadClient()
	stats := flood(client, base, loadPaths(model), n)
	stats.assertClean(t, n)
	if got := stats.status5xx.Load(); got != 0 {
		t.Errorf("%d requests hit a 5xx", got)
	}

	var doc StatsDoc
	getJSON(t, base+"/stats", &doc)
	if doc.Store.Hits() == 0 {
		t.Error("no cross-request cache hits on the external server")
	}
	if doc.Store.Corrupt != 0 {
		t.Errorf("external server rejected %d corrupt entries", doc.Store.Corrupt)
	}
	if os.Getenv("TNPU_SERVE_EXPECT_WARM") == "1" && doc.Store.Computes != 0 {
		t.Errorf("warm external server computed %d artifacts; expected pure disk serving", doc.Store.Computes)
	}
	t.Logf("external %s: %d requests, store %+v", base, n, doc.Store)
}
