package main

import (
	"net/http"
	"testing"
	"time"
)

// TestNewHTTPServerSetsTimeouts: the listener must not run with the
// zero (unbounded) timeouts of a bare http.ListenAndServe.
func TestNewHTTPServerSetsTimeouts(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	for name, got := range map[string]time.Duration{
		"ReadHeaderTimeout": srv.ReadHeaderTimeout,
		"ReadTimeout":       srv.ReadTimeout,
		"IdleTimeout":       srv.IdleTimeout,
	} {
		if got <= 0 {
			t.Errorf("%s = %v, want a positive timeout", name, got)
		}
	}
}
