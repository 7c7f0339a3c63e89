package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/store"
)

func serviceSchema(t *testing.T) *dataset.Schema {
	t.Helper()
	s, err := dataset.NewSchema("svc", []dataset.Attribute{
		{Name: "a", Categories: []string{"a0", "a1", "a2"}},
		{Name: "b", Categories: []string{"b0", "b1"}},
		{Name: "c", Categories: []string{"c0", "c1", "c2", "c3"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func startServer(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewServer(serviceSchema(t), core.PrivacySpec{Rho1: 0.05, Rho2: 0.50}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil, core.PrivacySpec{Rho1: 0.05, Rho2: 0.5}); !errors.Is(err, ErrService) {
		t.Fatal("nil schema accepted")
	}
	if _, err := NewServer(serviceSchema(t), core.PrivacySpec{Rho1: 0.9, Rho2: 0.5}); err == nil {
		t.Fatal("bad privacy spec accepted")
	}
}

// TestNewServerRejectsModePairs: NewServer is the one place the serving
// modes are checked, and a store, a window and peers exclude each other.
func TestNewServerRejectsModePairs(t *testing.T) {
	window := WithWindow(2, time.Minute)
	peers := WithPeers([]string{"http://127.0.0.1:1"})
	for _, tc := range []struct {
		name  string
		store bool
		opts  []Option
	}{
		{"store+window", true, []Option{window}},
		{"store+peers", true, []Option{peers}},
		{"window+peers", false, []Option{window, peers}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			if tc.store {
				st, err := store.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				opts = append([]Option{WithStore(st)}, opts...)
			}
			srv, err := NewServer(serviceSchema(t), core.PrivacySpec{Rho1: 0.05, Rho2: 0.50}, opts...)
			if !errors.Is(err, ErrService) {
				if srv != nil {
					srv.Close()
				}
				t.Fatalf("NewServer(%s) = %v, want ErrService", tc.name, err)
			}
		})
	}
}

func TestSchemaEndpoint(t *testing.T) {
	_, ts := startServer(t)
	resp, err := ts.Client().Get(ts.URL + "/v1/schema")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SchemaResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Name != "svc" || len(sr.Attributes) != 3 {
		t.Fatalf("schema response %+v", sr)
	}
	if math.Abs(sr.Privacy.Gamma-19) > 1e-9 {
		t.Fatalf("gamma = %v", sr.Privacy.Gamma)
	}
}

func TestSubmitValidation(t *testing.T) {
	srv, ts := startServer(t)
	post := func(body string) int {
		resp, err := ts.Client().Post(ts.URL+"/v1/submit", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"a":"a0","b":"b1","c":"c2"}`); code != http.StatusAccepted {
		t.Fatalf("valid submit returned %d", code)
	}
	if code := post(`{"a":"a0"}`); code != http.StatusBadRequest {
		t.Fatalf("short record returned %d", code)
	}
	if code := post(`{"a":"nope","b":"b1","c":"c2"}`); code != http.StatusBadRequest {
		t.Fatalf("bad category returned %d", code)
	}
	if code := post(`{"a":"a0","b":"b1","x":"c2"}`); code != http.StatusBadRequest {
		t.Fatalf("bad attribute returned %d", code)
	}
	if code := post(`not json`); code != http.StatusBadRequest {
		t.Fatalf("garbage returned %d", code)
	}
	if srv.N() != 1 {
		t.Fatalf("server stored %d records, want 1", srv.N())
	}
}

func TestMineRequiresData(t *testing.T) {
	_, ts := startServer(t)
	resp, err := ts.Client().Get(ts.URL + "/v1/mine")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mine on empty server returned %d", resp.StatusCode)
	}
}

func TestMineBadParams(t *testing.T) {
	_, ts := startServer(t)
	for _, q := range []string{"minsup=zzz", "minconf=zzz", "limit=-3", "limit=zz"} {
		resp, err := ts.Client().Get(ts.URL + "/v1/mine?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("query %q returned %d", q, resp.StatusCode)
		}
	}
}

func TestClientEndToEnd(t *testing.T) {
	srv, ts := startServer(t)
	client, err := NewClient(ts.URL, WithHTTPClient(ts.Client()))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(client.Gamma()-19) > 1e-9 {
		t.Fatalf("client gamma %v", client.Gamma())
	}
	// Population skewed toward {0,0,0}.
	rng := rand.New(rand.NewSource(3))
	var recs []dataset.Record
	for i := 0; i < 6000; i++ {
		if rng.Float64() < 0.5 {
			recs = append(recs, dataset.Record{0, 0, 0})
		} else {
			recs = append(recs, dataset.Record{rng.Intn(3), rng.Intn(2), rng.Intn(4)})
		}
	}
	// Mix of single and batch submissions.
	for _, rec := range recs[:50] {
		if err := client.Submit(rec, rng); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.SubmitBatch(recs[50:], rng); err != nil {
		t.Fatal(err)
	}
	if srv.N() != len(recs) {
		t.Fatalf("server has %d records, want %d", srv.N(), len(recs))
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != len(recs) || math.Abs(stats.Gamma-19) > 1e-9 {
		t.Fatalf("stats %+v", stats)
	}
	mr, err := client.Mine(0.2, 0.5, 50)
	if err != nil {
		t.Fatal(err)
	}
	if mr.Records != len(recs) || len(mr.Counts) == 0 {
		t.Fatalf("mine response %+v", mr)
	}
	// The dominant planted triple must be reconstructed as frequent.
	found := false
	for _, is := range mr.Itemsets {
		if is.Items["a"] == "a0" && is.Items["b"] == "b0" && is.Items["c"] == "c0" {
			found = true
			if math.Abs(is.Support-0.52) > 0.12 {
				t.Fatalf("planted triple support %v, want ≈0.52", is.Support)
			}
		}
	}
	if !found {
		t.Fatal("planted triple not mined through the service")
	}
	for _, r := range mr.Rules {
		if r.Confidence <= 0 || r.Confidence > 1 {
			t.Fatalf("bad rule confidence %v", r.Confidence)
		}
	}
}

func TestClientRandomized(t *testing.T) {
	_, ts := startServer(t)
	client, err := NewClient(ts.URL, WithHTTPClient(ts.Client()), WithClientRandomization(0.5))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	if err := client.Submit(dataset.Record{0, 0, 0}, rng); err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(ts.URL, WithHTTPClient(ts.Client()), WithClientRandomization(2)); !errors.Is(err, ErrService) {
		t.Fatal("excessive randomization accepted")
	}
}

func TestClientRejectsInvalidRecord(t *testing.T) {
	_, ts := startServer(t)
	client, err := NewClient(ts.URL, WithHTTPClient(ts.Client()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	if err := client.Submit(dataset.Record{9, 9, 9}, rng); err == nil {
		t.Fatal("invalid record accepted client-side")
	}
}

func TestConcurrentSubmissions(t *testing.T) {
	srv, ts := startServer(t)
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			client, err := NewClient(ts.URL, WithHTTPClient(ts.Client()))
			if err != nil {
				errs <- err
				return
			}
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				rec := dataset.Record{rng.Intn(3), rng.Intn(2), rng.Intn(4)}
				if err := client.Submit(rec, rng); err != nil {
					errs <- err
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if srv.N() != workers*perWorker {
		t.Fatalf("server has %d records, want %d", srv.N(), workers*perWorker)
	}
}

func TestServerShardsOption(t *testing.T) {
	srv, err := NewServer(serviceSchema(t), core.PrivacySpec{Rho1: 0.05, Rho2: 0.50}, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Shards() != 3 {
		t.Fatalf("shards = %d, want 3", srv.Shards())
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client, err := NewClient(ts.URL, WithHTTPClient(ts.Client()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	if err := client.Submit(dataset.Record{0, 0, 0}, rng); err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shards != 3 || stats.Records != 1 {
		t.Fatalf("stats %+v", stats)
	}
	// Default servers stripe per core.
	def, err := NewServer(serviceSchema(t), core.PrivacySpec{Rho1: 0.05, Rho2: 0.50})
	if err != nil {
		t.Fatal(err)
	}
	defer def.Close()
	if def.Shards() < 1 {
		t.Fatalf("default shards = %d", def.Shards())
	}
}

func TestServerStateAcrossShardCounts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	srv, ts := startStoreServer(t, dir, WithShards(3))
	client, err := NewClient(ts.URL, WithHTTPClient(ts.Client()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	var recs []dataset.Record
	for i := 0; i < 300; i++ {
		recs = append(recs, dataset.Record{rng.Intn(3), rng.Intn(2), rng.Intn(4)})
	}
	if err := client.SubmitBatch(recs, rng); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	ts.Close()
	// Restart under a different -shards setting: nothing lost.
	restored, _ := startStoreServer(t, dir, WithShards(2))
	if restored.N() != srv.N() || restored.Shards() != 2 {
		t.Fatalf("restored N=%d shards=%d, want N=%d shards=2", restored.N(), restored.Shards(), srv.N())
	}
}

func TestNewClientBadServer(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusTeapot)
	}))
	defer bad.Close()
	if _, err := NewClient(bad.URL, WithHTTPClient(bad.Client())); err == nil {
		t.Fatal("teapot server accepted")
	}
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("{{{{"))
	}))
	defer garbage.Close()
	if _, err := NewClient(garbage.URL, WithHTTPClient(garbage.Client())); err == nil {
		t.Fatal("garbage schema accepted")
	}
}
