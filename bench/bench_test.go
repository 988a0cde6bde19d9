package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsSmoke runs every workload at toy scale (one model, one
// repetition, 40 requests), traced and untraced, and checks that the
// oracle checks pass and that every metric BENCHMARK.json names is
// emitted with its unit.
func TestWorkloadsSmoke(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			opts := options{
				workload: w.name,
				seed:     1,
				seconds:  0.001,
				trace:    traced,
				traceDir: t.TempDir(),
				models:   []string{"df"},
				requests: 40,
				tmpDir:   t.TempDir(),
			}
			res, b, err := execute(opts)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%q",
					w.name, traced, res.Correct, res.Attempted, res.Failed, b.problems)
			}
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestRequestListSeeded checks that one seed always yields the same serve
// request list and that seeds 1 and 2 yield different ones.
func TestRequestListSeeded(t *testing.T) {
	a, b := requestList(serveLoad, 1), requestList(serveLoad, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 1 produced two different request lists")
	}
	if reflect.DeepEqual(a, requestList(serveLoad, 2)) {
		t.Fatal("seeds 1 and 2 produced the same request list")
	}
	// Like the load test, the list cycles through the paths in order.
	count := map[string]int{}
	for _, r := range a {
		count[r]++
	}
	paths := servePaths(serveModel)
	for i, p := range paths {
		want := serveLoad / len(paths)
		if i < serveLoad%len(paths) {
			want++
		}
		if count[p] != want {
			t.Errorf("%s requested %d times, want %d", p, count[p], want)
		}
	}
	if len(a) != serveLoad || len(count) != len(paths) {
		t.Fatalf("%d requests over %d paths, want %d over %d", len(a), len(count), serveLoad, len(paths))
	}
}
