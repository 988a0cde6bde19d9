package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestHTTPServerBoundsHeaderReads pins the slowloris guard: the server
// tnpu-serve listens with must bound header reads (an unset
// ReadHeaderTimeout lets a client trickle headers forever) and must serve
// the handler it was given.
func TestHTTPServerBoundsHeaderReads(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
	hs := newHTTPServer(h)
	if hs.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", hs.ReadHeaderTimeout)
	}
	rec := httptest.NewRecorder()
	hs.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusTeapot {
		t.Errorf("server does not serve the given handler: status %d", rec.Code)
	}
}
