package service

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// unavailable answers the first n requests with 503 (carrying
// retryAfter when non-empty) and hands the rest to next, counting every
// request.
func unavailable(n int64, retryAfter string, next http.Handler, calls *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= n {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			http.Error(w, "recovering", http.StatusServiceUnavailable)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// TestClientRetriesOnceOnRetryAfter: a 503 with Retry-After (a
// collection still recovering) is retried exactly once — one 503 is
// absorbed, two fail the call.
func TestClientRetriesOnceOnRetryAfter(t *testing.T) {
	srv, err := NewServer(serviceSchema(t), core.PrivacySpec{Rho1: 0.05, Rho2: 0.50})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var calls atomic.Int64
	once := httptest.NewServer(unavailable(1, "0", srv.Handler(), &calls))
	defer once.Close()
	c, err := NewClient(once.URL)
	if err != nil {
		t.Fatalf("client after one 503 + Retry-After: %v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d requests, want the 503 and one retry", n)
	}
	if _, err := c.Stats(); err != nil || calls.Load() != 3 {
		t.Fatalf("stats: %v after %d requests, want one more", err, calls.Load())
	}

	calls.Store(0)
	twice := httptest.NewServer(unavailable(2, "0", srv.Handler(), &calls))
	defer twice.Close()
	if _, err := NewClient(twice.URL); err == nil {
		t.Fatal("two 503s in a row accepted")
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d requests, want exactly one retry", n)
	}
}

// TestClientDoesNotRetryBareBusy: a 503 without Retry-After — a full
// job queue — is not retried and still maps to ErrBusy.
func TestClientDoesNotRetryBareBusy(t *testing.T) {
	srv, err := NewServer(serviceSchema(t), core.PrivacySpec{Rho1: 0.05, Rho2: 0.50})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var calls atomic.Int64
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	busy := httptest.NewServer(unavailable(1, "", srv.Handler(), &calls))
	defer busy.Close()
	c.base = busy.URL
	if _, err := c.SubmitMineJob(MineParams{MinSupport: 0.1}); !errors.Is(err, ErrBusy) {
		t.Fatalf("bare 503 error %v, want ErrBusy", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d requests, want no retry", n)
	}
}
