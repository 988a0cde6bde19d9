package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"tnpu/internal/exp"
	"tnpu/internal/memprot"
)

// newTestServer boots a service over a fresh cache directory with a small
// workload set, returning the server and its HTTP front end.
func newTestServer(t *testing.T, models ...string) (*Server, *httptest.Server) {
	t.Helper()
	if len(models) == 0 {
		models = []string{"df"}
	}
	s, err := New(Options{Models: models, CacheDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close() //tnpu:errok
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp, body
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, body := get(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: content-type %q", url, ct)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: decode: %v (%s)", url, err, body)
	}
	return resp
}

func TestCellEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	url := ts.URL + "/api/cell?model=df&class=small&scheme=tnpu&count=1"

	var cell CellResult
	resp := getJSON(t, url, &cell)
	if got := resp.Header.Get("X-Tnpu-Cache"); got != string(SourceCompute) {
		t.Errorf("first fetch cache source = %q, want compute", got)
	}
	if cell.Model != "df" || cell.Class != "small" || cell.Scheme != "tnpu" || cell.Count != 1 {
		t.Errorf("cell identity: %+v", cell)
	}
	if cell.Cycles == 0 || cell.TrafficBytes == 0 || cell.Milliseconds <= 0 {
		t.Errorf("cell has empty results: %+v", cell)
	}
	if cell.Normalized < 1 {
		t.Errorf("protected run normalized %.3f < 1 vs unsecure", cell.Normalized)
	}

	// Served cycles must match a direct harness run — the service is a
	// cache in front of exp.Runner, not a different simulator.
	ref, err := exp.NewRunner("df").Run("df", exp.Small, memprot.TreeLess, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Cycles != ref.Cycles {
		t.Errorf("served cycles %d != direct harness cycles %d", cell.Cycles, ref.Cycles)
	}

	var again CellResult
	resp = getJSON(t, url, &again)
	if got := resp.Header.Get("X-Tnpu-Cache"); got != string(SourceDisk) {
		t.Errorf("second fetch cache source = %q, want disk", got)
	}
	if again != cell {
		t.Errorf("cached cell differs: %+v vs %+v", again, cell)
	}
}

func TestCellValidation(t *testing.T) {
	_, ts := newTestServer(t)
	bad := []string{
		"/api/cell?model=nope",
		"/api/cell?model=res",            // known model, but not served by this instance
		"/api/cell?model=df&class=tiny",  // unknown class
		"/api/cell?model=df&scheme=mgx",  // unknown scheme
		"/api/cell?model=df&count=0",     // below range
		"/api/cell?model=df&count=99",    // above range
		"/api/cell?model=df&count=three", // not a number
	}
	for _, path := range bad {
		resp, body := get(t, ts.URL+path)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400 (%s)", path, resp.StatusCode, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("GET %s: error body %q", path, body)
		}
	}
}

func TestFigureEndpointJSONAndSVG(t *testing.T) {
	_, ts := newTestServer(t)

	var doc figureDoc
	getJSON(t, ts.URL+"/api/figure/fig14", &doc)
	if doc.ID != "Figure 14" || len(doc.Series) == 0 {
		t.Fatalf("figure doc: %+v", doc)
	}
	classes := map[string]bool{}
	for _, s := range doc.Series {
		classes[s.Class] = true
		if len(s.Models) != 1 || s.Models[0] != "df" || len(s.Values) != 1 {
			t.Errorf("series shape: %+v", s)
		}
		if s.Values[0] < 1 {
			t.Errorf("%s/%s normalized %.3f < 1", s.Class, s.Label, s.Values[0])
		}
	}
	if !classes["small"] || !classes["large"] {
		t.Errorf("figure missing a class: %v", classes)
	}

	resp, body := get(t, ts.URL+"/api/figure/fig14?format=svg&class=large")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("svg status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Errorf("svg content-type %q", ct)
	}
	svg := string(body)
	if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "large NPU") {
		t.Errorf("svg body does not look like the large-class chart: %.120s", svg)
	}
	// The figure compute is shared between formats: the SVG render reuses
	// the content-addressed JSON entry.
	if got := resp.Header.Get("X-Tnpu-Cache"); got != string(SourceDisk) {
		t.Errorf("svg after json fetch: cache source %q, want disk", got)
	}

	resp, _ = get(t, ts.URL+"/api/figure/fig99")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown figure status %d, want 404", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/api/figure/fig14?format=pdf")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format status %d, want 400", resp.StatusCode)
	}
}

func TestSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t)

	var doc sweepDoc
	getJSON(t, ts.URL+"/api/sweep/bandwidth?model=df", &doc)
	if doc.Model != "df" || len(doc.Points) != 4 {
		t.Fatalf("bandwidth sweep doc: %+v", doc)
	}
	for _, p := range doc.Points {
		if p.Baseline < 1 || p.TNPU < 1 {
			t.Errorf("point %s: baseline %.3f tnpu %.3f below unsecure", p.Label, p.Baseline, p.TNPU)
		}
	}

	resp, _ := get(t, ts.URL+"/api/sweep/voltage?model=df")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep status %d, want 404", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/api/sweep/bandwidth?model=zzz")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown model status %d, want 400", resp.StatusCode)
	}
}

func TestNPUCountSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t)

	var doc figureDoc
	resp := getJSON(t, ts.URL+"/api/sweep/npucount?model=df", &doc)
	if got := resp.Header.Get("X-Tnpu-Cache"); got != string(SourceCompute) {
		t.Errorf("first fetch cache source = %q, want compute", got)
	}
	// 2 classes x {baseline, tnpu, encrypt-only}, each over counts 1-3.
	if doc.ID != "npucount" || len(doc.Series) != 6 {
		t.Fatalf("npucount doc: id=%q series=%d", doc.ID, len(doc.Series))
	}
	for _, s := range doc.Series {
		if len(s.Models) != 3 || s.Models[0] != "1 NPU" || s.Models[2] != "3 NPU" {
			t.Errorf("series %s/%s categories: %v", s.Class, s.Label, s.Models)
		}
		for i, v := range s.Values {
			if v < 1 {
				t.Errorf("%s/%s at %s: normalized %.3f < 1", s.Class, s.Label, s.Models[i], v)
			}
		}
	}

	resp, body := get(t, ts.URL+"/api/sweep/npucount?model=df&format=svg&class=small")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("svg status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Errorf("svg content-type %q", ct)
	}
	if got := resp.Header.Get("X-Tnpu-Cache"); got != string(SourceDisk) {
		t.Errorf("svg render cache source = %q, want disk (same JSON artifact)", got)
	}
	if svg := string(body); !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "small NPU") {
		t.Errorf("svg content: %.80s", svg)
	}

	resp, _ = get(t, ts.URL+"/api/sweep/npucount?model=zzz")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown model status %d, want 400", resp.StatusCode)
	}
}

func TestMixedEndpoint(t *testing.T) {
	_, ts := newTestServer(t, "df", "res")

	var doc MixedResult
	getJSON(t, ts.URL+"/api/mixed?models=df,res&class=small&scheme=tnpu", &doc)
	if len(doc.Models) != 2 || doc.Models[0] != "df" || doc.Models[1] != "res" {
		t.Fatalf("mixed identity: %+v", doc.Models)
	}
	if len(doc.NPUs) != 2 {
		t.Fatalf("per-NPU attribution has %d entries, want 2", len(doc.NPUs))
	}
	var worst uint64
	for i, n := range doc.NPUs {
		if n.Model != doc.Models[i] {
			t.Errorf("npu %d attributed to %q, want %q", i, n.Model, doc.Models[i])
		}
		if n.Cycles == 0 || n.Blocks == 0 || n.ReadBytes == 0 {
			t.Errorf("npu %d has empty attribution: %+v", i, n)
		}
		if n.Cycles > worst {
			worst = n.Cycles
		}
	}
	if doc.Cycles != worst {
		t.Errorf("run cycles %d != slowest tenant %d", doc.Cycles, worst)
	}
	if doc.TrafficBytes == 0 || doc.MetadataBytes == 0 {
		t.Errorf("traffic empty: %+v", doc)
	}

	// The tuple is ordered: reversing it is a different artifact key (the
	// tenants swap context regions), not a cache hit.
	resp, _ := get(t, ts.URL+"/api/mixed?models=res,df&class=small&scheme=tnpu")
	if got := resp.Header.Get("X-Tnpu-Cache"); got != string(SourceCompute) {
		t.Errorf("reversed tuple cache source = %q, want compute", got)
	}

	for _, bad := range []string{
		"/api/mixed?models=&class=small",
		"/api/mixed?models=df,zzz&class=small",
		"/api/mixed?models=df,df,df,df,df&class=small",
	} {
		resp, _ := get(t, ts.URL+bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	get(t, ts.URL+"/api/cell?model=df&class=small&scheme=baseline")
	get(t, ts.URL+"/api/cell?model=df&class=small&scheme=baseline") // disk hit

	var doc StatsDoc
	getJSON(t, ts.URL+"/stats", &doc)
	if doc.CodeVersion != exp.CodeVersion {
		t.Errorf("code version %q", doc.CodeVersion)
	}
	if doc.Store.Computes != 1 || doc.Store.DiskHits != 1 || doc.Store.Lookups != 2 {
		t.Errorf("store stats: %+v", doc.Store)
	}
	// The cell computed baseline + unsecure runs plus a compile: the
	// harness's own counters must be visible through the endpoint.
	if doc.Harness.CellsComputed < 3 {
		t.Errorf("harness cells computed = %d, want >= 3", doc.Harness.CellsComputed)
	}
	// The memo store sits beside the result cache by default and saves
	// each fresh simulation cell (the baseline and unsecure runs).
	if doc.MemoStore.Dir == "" || doc.MemoStore.Saves < 2 {
		t.Errorf("memo store stats: %+v", doc.MemoStore)
	}
	if doc.Queue.Capacity != 1024 || doc.Queue.Depth != 0 {
		t.Errorf("queue stats: %+v", doc.Queue)
	}
	if doc.Workers != 2 || len(doc.Models) != 1 {
		t.Errorf("identity stats: workers=%d models=%v", doc.Workers, doc.Models)
	}
	if doc.Runtime.HeapAllocBytes == 0 || doc.Runtime.Goroutines == 0 {
		t.Errorf("runtime stats empty: %+v", doc.Runtime)
	}
}

// TestEventsSSE subscribes to the progress stream and then triggers a
// fresh simulation: its completed-cell lines must arrive as SSE events.
func TestEventsSSE(t *testing.T) {
	_, ts := newTestServer(t)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //tnpu:errok
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type %q", ct)
	}

	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()

	// The hello event confirms the subscription before work starts.
	waitFor := func(want string) string {
		t.Helper()
		for {
			select {
			case line, ok := <-lines:
				if !ok {
					t.Fatalf("stream closed waiting for %q", want)
				}
				if strings.HasPrefix(line, want) {
					return line
				}
			case <-ctx.Done():
				t.Fatalf("timed out waiting for %q", want)
			}
		}
	}
	waitFor("event: hello")

	go func() {
		resp, err := http.Get(ts.URL + "/api/cell?model=df&class=small&scheme=tnpu")
		if err == nil {
			resp.Body.Close() //tnpu:errok
		}
	}()
	waitFor("event: cell")
	data := waitFor("data: ")
	if !strings.Contains(data, "df") {
		t.Errorf("cell event payload %q does not name the model", data)
	}
}

func TestIndexModelsHealth(t *testing.T) {
	_, ts := newTestServer(t, "df", "agz")

	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("healthz: %d %q", resp.StatusCode, body)
	}

	var models []modelDoc
	getJSON(t, ts.URL+"/api/models", &models)
	if len(models) != 2 || models[0].Short != "df" || models[1].Short != "agz" {
		t.Errorf("models: %+v", models)
	}
	for _, m := range models {
		if m.Name == "" || m.FootprintMB <= 0 || m.Layers == 0 {
			t.Errorf("model metadata empty: %+v", m)
		}
	}

	resp, body = get(t, ts.URL+"/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "/api/figure") {
		t.Errorf("index: %d %q", resp.StatusCode, body)
	}
	resp, _ = get(t, ts.URL+"/nosuch")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status %d, want 404", resp.StatusCode)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Models: []string{"zzz"}, CacheDir: t.TempDir()}); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := New(Options{}); err == nil {
		t.Error("empty cache dir accepted")
	}
}

// TestQueueSheds pins the load-shedding contract: with a one-worker pool,
// one slot of queue capacity, and a compute that blocks, a second
// distinct-key job is rejected with errBusy rather than queued without
// bound.
func TestQueueSheds(t *testing.T) {
	s, err := New(Options{Models: []string{"df"}, CacheDir: t.TempDir(), Workers: 1, Queue: 1})
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, err := s.cached(testKey("slow"), func() ([]byte, error) {
			close(started)
			<-block
			return []byte("x"), nil
		})
		if err != nil {
			t.Errorf("admitted job failed: %v", err)
		}
	}()
	<-started
	if _, _, err := s.cached(testKey("shed"), func() ([]byte, error) { return []byte("y"), nil }); err != errBusy {
		t.Errorf("over-capacity job err = %v, want errBusy", err)
	}
	close(block)
	<-done
	if got := s.rejected.Load(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
}

func ExampleServer() {
	// Typical embedding: boot the service over a persistent cache
	// directory and serve it like any http.Handler.
	dir, err := os.MkdirTemp("", "tnpu-serve-example-")
	if err != nil {
		fmt.Println("tempdir:", err)
		return
	}
	defer os.RemoveAll(dir) //tnpu:errok
	s, err := New(Options{Models: []string{"df"}, CacheDir: dir, Workers: 2})
	if err != nil {
		fmt.Println("boot:", err)
		return
	}
	_ = s.Handler() // http.ListenAndServe(":8080", s.Handler())
	fmt.Println("ready")
	// Output: ready
}
