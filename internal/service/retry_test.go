package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

// TestClientErrorsCarryReason: every Client call that meets an error
// answer returns an error wrapping ErrService that carries the server's
// reason (a JSON error body's "error" field, or a plain body's text),
// and only SubmitMineJob's 503 (a full job queue) is ErrBusy.
func TestClientErrorsCarryReason(t *testing.T) {
	srv, ts := startServer(t)
	good := wireClient(t, ts)
	recs := wireRecords(good.Schema(), 3, 1)
	prepared, err := good.PrepareBatch(recs, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	calls := []struct {
		name string
		call func(c *Client) error
	}{
		{"NewClient", func(c *Client) error { _, err := NewClient(c.base); return err }},
		{"Submit", func(c *Client) error { return c.Submit(recs[0], rand.New(rand.NewSource(3))) }},
		{"SubmitBatch", func(c *Client) error { return c.SubmitBatch(recs, rand.New(rand.NewSource(4))) }},
		{"SubmitPrepared", func(c *Client) error { return c.SubmitPrepared(prepared) }},
		{"Mine", func(c *Client) error { _, err := c.Mine(0.1, 0.5, 10); return err }},
		{"SubmitMineJob", func(c *Client) error { _, err := c.SubmitMineJob(MineParams{MinSupport: 0.1}); return err }},
		{"MineJob", func(c *Client) error { _, err := c.MineJob("j1"); return err }},
		{"MineJobs", func(c *Client) error { _, err := c.MineJobs(); return err }},
		{"AwaitMineJob", func(c *Client) error { _, err := c.AwaitMineJob(ctx, "j1", time.Millisecond); return err }},
		{"MineAsync", func(c *Client) error { _, err := c.MineAsync(ctx, MineParams{MinSupport: 0.1}); return err }},
		{"Query", func(c *Client) error { _, err := c.Query(QueryFilter{}); return err }},
		{"QueryAll", func(c *Client) error { _, err := c.QueryAll([]QueryFilter{{}}); return err }},
		{"QueryWindow", func(c *Client) error { _, err := c.QueryWindow([]QueryFilter{{}}, "1m"); return err }},
		{"Stats", func(c *Client) error { _, err := c.Stats(); return err }},
		{"FederationStats", func(c *Client) error { _, err := c.FederationStats(); return err }},
	}
	for _, status := range []int{http.StatusBadRequest, http.StatusConflict, http.StatusServiceUnavailable} {
		reason := fmt.Sprintf("refused with %d for a reason", status)
		failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			if status == http.StatusServiceUnavailable {
				http.Error(w, reason, status) // a plain-text body, as a proxy would send
				return
			}
			writeJSON(w, status, map[string]string{"error": reason})
		}))
		for _, tc := range calls {
			c := wireClient(t, ts)
			c.base = failing.URL
			err := tc.call(c)
			if err == nil || !errors.Is(err, ErrService) || !strings.Contains(err.Error(), reason) {
				t.Errorf("%s on %d: error %v, want ErrService with %q", tc.name, status, err, reason)
			}
			wantBusy := status == http.StatusServiceUnavailable && (tc.name == "SubmitMineJob" || tc.name == "MineAsync")
			if errors.Is(err, ErrBusy) != wantBusy {
				t.Errorf("%s on %d: ErrBusy = %v, want %v (%v)", tc.name, status, !wantBusy, wantBusy, err)
			}
		}
		failing.Close()
	}
	if n := srv.N(); n != 0 {
		t.Fatalf("failing server calls reached the real one: %d records", n)
	}
}
