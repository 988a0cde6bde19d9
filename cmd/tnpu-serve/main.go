// Command tnpu-serve runs the TNPU simulation service: the experiment
// harness behind every paper figure (exp.Runner), wrapped in an HTTP
// server with a bounded worker pool, a job queue, and a disk-backed
// content-addressed result cache. Identical requests are computed once —
// across concurrent clients (singleflight) and across process restarts
// (the disk cache) — and every figure is served as a JSON or SVG
// artifact.
//
// Usage:
//
//	tnpu-serve                         # all 14 workloads on :8080
//	tnpu-serve -addr 127.0.0.1:0       # ephemeral port (printed at boot)
//	tnpu-serve -cache /var/tnpu-cache  # persistent result cache
//	tnpu-serve -models df,res          # restrict the served workload set
//	tnpu-serve -parallel 8 -queue 512  # worker pool and admission bound
//
// Endpoints (see GET / for the live index):
//
//	/api/cell     one simulation cell as JSON
//	/api/figure/  paper figures as JSON or SVG
//	/api/sweep/   sensitivity sweeps as JSON
//	/stats        cache, memo, queue, and runtime counters
//	/events       SSE stream of completed-cell progress
//	/healthz      liveness
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"tnpu/internal/serve"
)

func main() {
	os.Exit(run())
}

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a slow-header (slowloris) client cannot hold a connection
// and its goroutine open indefinitely. It matches the in-process server
// the benchmark drives.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer returns the HTTP server tnpu-serve listens with.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

func run() int {
	addrFlag := flag.String("addr", ":8080", "listen address (host:port; port 0 picks an ephemeral port)")
	cacheFlag := flag.String("cache", "", "result cache directory (default: a tnpu-serve dir under the user cache dir)")
	modelsFlag := flag.String("models", "", "comma-separated workload subset (default: all 14)")
	parallelFlag := flag.Int("parallel", 0, "simulation worker count (0 = GOMAXPROCS)")
	queueFlag := flag.Int("queue", 0, "max admitted jobs before load shedding with 503 (0 = 1024)")
	memoDirFlag := flag.String("memodir", "", `persistent memo-store directory for whole-run cell results (default: "memo" beside the result cache; "off" disables)`)
	flag.Parse()

	cacheDir := *cacheFlag
	if cacheDir == "" {
		base, err := os.UserCacheDir()
		if err != nil {
			fmt.Fprintln(os.Stderr, "tnpu-serve: no -cache and no user cache dir:", err)
			return 2
		}
		cacheDir = filepath.Join(base, "tnpu-serve")
	}
	var models []string
	if *modelsFlag != "" {
		models = strings.Split(*modelsFlag, ",")
	}

	srv, err := serve.New(serve.Options{
		Models:   models,
		CacheDir: cacheDir,
		Workers:  *parallelFlag,
		Queue:    *queueFlag,
		MemoDir:  *memoDirFlag,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tnpu-serve:", err)
		return 2
	}

	ln, err := net.Listen("tcp", *addrFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tnpu-serve:", err)
		return 1
	}
	// The boot line is machine-parsed (scripts/serve_smoke.sh; bash
	// bench/run.sh drives serve in process) — keep its shape stable.
	fmt.Printf("tnpu-serve: listening on http://%s (cache %s)\n", ln.Addr(), cacheDir)
	if dir := srv.Runner().MemoDir(); dir != "" {
		fmt.Printf("tnpu-serve: memo store %s\n", dir)
	}

	hs := newHTTPServer(srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "tnpu-serve:", err)
			return 1
		}
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "tnpu-serve: %v, draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "tnpu-serve: shutdown:", err)
			return 1
		}
	}
	return 0
}
