package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestHTTPServerBoundsHeaderReads pins the slowloris guards: the server
// tnpu-serve listens with must bound header reads (an unset
// ReadHeaderTimeout lets a client trickle headers forever) and the whole
// request read, at least as long as the header bound (a ReadTimeout below
// it would cut header reads short), and must serve the handler it was
// given.
func TestHTTPServerBoundsHeaderReads(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
	hs := newHTTPServer(h)
	if hs.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", hs.ReadHeaderTimeout)
	}
	if hs.ReadTimeout != 30*time.Second || hs.ReadTimeout < hs.ReadHeaderTimeout {
		t.Errorf("ReadTimeout = %v, want 30s (and at least ReadHeaderTimeout %v)", hs.ReadTimeout, hs.ReadHeaderTimeout)
	}
	rec := httptest.NewRecorder()
	hs.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusTeapot {
		t.Errorf("server does not serve the given handler: status %d", rec.Code)
	}
}
