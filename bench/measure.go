package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count), 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest whole percentile, at most p99, that still has
// ten samples beyond it (nearest-rank). With fewer than 11 samples no
// percentile qualifies and the slowest sample stands in.
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n < 11 {
		return s[n-1]
	}
	for p := 99; p > 1; p-- {
		if i := (p*n+99)/100 - 1; n-1-i >= 10 {
			return s[i]
		}
	}
	return s[0]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB reads the process's peak resident set (VmHWM) from
// /proc/self/status, falling back to the Go runtime's total reservation
// where procfs is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// hostSample is a runtime.MemStats snapshot for the host.* layer deltas.
type hostSample struct {
	alloc   uint64
	gcs     uint32
	pauseNs uint64
}

func sampleHost() hostSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostSample{alloc: ms.TotalAlloc, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// since records the allocation and GC work done between a and b.
func (b hostSample) since(a hostSample, layer map[string]float64) {
	layer["host.alloc_mb"] = float64(b.alloc-a.alloc) / (1 << 20)
	layer["host.gc_n"] = float64(b.gcs - a.gcs)
	layer["host.gc_pause_ms"] = float64(b.pauseNs-a.pauseNs) / 1e6
}

// span is one timed call into a layer. Parent is the enclosing span's ID
// (0 at the top); Req ties the spans of one serve request together.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per span.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span; finish closes it.
func (t *tracer) start(name string, parent, req int64) span {
	if t == nil {
		return span{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return span{ID: id, Parent: parent, Name: name, Req: req, Start: int64(time.Since(t.t0))}
}

func (t *tracer) finish(s span) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time (duration minus
// the part covered by child spans), the summed duration and the span
// count.
func (t *tracer) selfTimes() (self, total map[string]time.Duration, count map[string]int) {
	self, total, count = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int{}
	if t == nil {
		return self, total, count
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	for _, s := range t.spans {
		d := s.dur() - children[s.ID]
		if d < 0 {
			d = 0
		}
		self[s.Name] += d
		total[s.Name] += s.dur()
		count[s.Name]++
	}
	return self, total, count
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores every span, ordered by start, as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// spanCost measures what recording one span costs, for the tracing
// overhead estimate.
func spanCost() time.Duration {
	const n = 100000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.finish(t.start("calibrate", 0, 0))
	}
	return time.Since(start) / n
}
