package service

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/federation"
	"repro/internal/mining"
)

// submitN pushes n random (nominally already-perturbed) records through
// the HTTP submit path.
func submitN(t *testing.T, srv *Server, url string, rng *rand.Rand, n int) {
	t.Helper()
	client := &http.Client{}
	for i := 0; i < n; i++ {
		rj := make(RecordJSON, srv.schema.M())
		for _, a := range srv.schema.Attrs {
			rj[a.Name] = a.Categories[rng.Intn(a.Cardinality())]
		}
		body, err := json.Marshal(rj)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(url+"/v1/submit", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit returned %s", resp.Status)
		}
	}
}

func TestReplicateFullAndIncremental(t *testing.T) {
	srv, ts := startServer(t)
	rng := rand.New(rand.NewSource(1))
	submitN(t, srv, ts.URL, rng, 15)

	d1 := pullDelta(t, ts, 0, 0)
	if !d1.Full() || d1.Records != 15 {
		t.Fatalf("first pull: full=%v records=%d", d1.Full(), d1.Records)
	}
	if d1.Fingerprint != mining.CompatibilityFingerprint(srv.schema, srv.matrix) {
		t.Fatal("fingerprint does not match server contract")
	}

	submitN(t, srv, ts.URL, rng, 7)
	d2 := pullDelta(t, ts, d1.ToVersion, d1.Generation)
	if d2.Full() {
		t.Fatal("second pull fell back to full despite retained baseline")
	}
	if d2.FromVersion != d1.ToVersion || d2.Records != 7 {
		t.Fatalf("second pull: from=%d (want %d) records=%d (want 7)", d2.FromVersion, d1.ToVersion, d2.Records)
	}

	// Replaying both deltas rebuilds the server's counter exactly.
	replica, err := mining.NewShardedCounter(srv.CounterScheme(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.ApplyDelta(d1); err != nil {
		t.Fatal(err)
	}
	if err := replica.ApplyDelta(d2); err != nil {
		t.Fatal(err)
	}
	if replica.N() != srv.N() {
		t.Fatalf("replica has %d records, server %d", replica.N(), srv.N())
	}
}

func TestReplicateGenerationMismatchForcesFull(t *testing.T) {
	srv, ts := startServer(t)
	rng := rand.New(rand.NewSource(2))
	submitN(t, srv, ts.URL, rng, 10)

	d1 := pullDelta(t, ts, 0, 0)
	// Copy, add more, swap the copy back in: the counter object is
	// replaced, its version line restarts, and its generation bumps.
	restored := counterCopy(t, srv)
	submitN(t, srv, ts.URL, rng, 5)
	if err := srv.replaceCounter(restored, nil); err != nil {
		t.Fatal(err)
	}

	d2 := pullDelta(t, ts, d1.ToVersion, d1.Generation)
	if !d2.Full() {
		t.Fatal("post-restore pull chained incrementally across generations")
	}
	if d2.Generation == d1.Generation {
		t.Fatalf("generation did not change across restore: %d", d2.Generation)
	}
	if d2.Records != 10 {
		t.Fatalf("post-restore full delta has %d records, want restored 10", d2.Records)
	}
}

// counterCopy returns a new counter object holding srv's current
// content at the same version — what a federation coordinator publishes
// when the merged view has not moved. Swapping it in through
// replaceCounter is the counter swap every cache and replication
// contract keys on.
func counterCopy(t *testing.T, srv *Server) *mining.ShardedCounter {
	t.Helper()
	var state bytes.Buffer
	if err := srv.ctr().(*mining.ShardedCounter).CheckpointCut(0).Save(&state); err != nil {
		t.Fatal(err)
	}
	c, err := mining.LoadLiveCounter(&state, srv.CounterScheme(), srv.Shards())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestReplicateRejectsBadParams(t *testing.T) {
	_, ts := startServer(t)
	for _, q := range []string{"since=-1", "since=abc", "gen=zz"} {
		resp, err := ts.Client().Get(ts.URL + "/v1/replicate?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %s, want 400", q, resp.Status)
		}
	}
}

func TestFederatedServerRefusesSubmissions(t *testing.T) {
	srv, ts := startServer(t, WithPeers([]string{"http://127.0.0.1:1"}))
	if srv.Coordinator() == nil {
		t.Fatal("Coordinator() nil on a server built WithPeers")
	}
	for _, path := range []string{"/v1/submit", "/v1/submit-batch"} {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader([]byte("{}")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("%s: status %s, want 403", path, resp.Status)
		}
	}
}

// TestCloseStopsCoordinator: Server.Close owns the sync loop a
// WithPeers server starts — after Close returns, no pull reaches the
// peer, however short the sync interval.
func TestCloseStopsCoordinator(t *testing.T) {
	var pulls atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/replicate" {
			pulls.Add(1)
		}
		http.Error(w, "unavailable", http.StatusServiceUnavailable)
	}))
	defer peer.Close()
	srv, err := NewServer(serviceSchema(t), core.PrivacySpec{Rho1: 0.05, Rho2: 0.50},
		WithPeers([]string{peer.URL},
			federation.WithSyncInterval(time.Millisecond),
			federation.WithMaxBackoff(time.Millisecond),
			federation.WithHTTPClient(peer.Client())))
	if err != nil {
		t.Fatal(err)
	}
	srv.Coordinator().Start()
	deadline := time.Now().Add(10 * time.Second)
	for pulls.Load() == 0 {
		if time.Now().After(deadline) {
			srv.Close()
			t.Fatal("the sync loop never pulled the peer")
		}
		time.Sleep(time.Millisecond)
	}
	srv.Close()
	// A pull canceled by Close may still be dispatched by the peer once;
	// settle before counting. A loop that kept running would pull about
	// once a millisecond.
	time.Sleep(50 * time.Millisecond)
	after := pulls.Load()
	time.Sleep(100 * time.Millisecond)
	if n := pulls.Load(); n != after {
		t.Fatalf("%d pulls reached the peer after Close", n-after)
	}
}

func TestReplaceCounterValidatesContract(t *testing.T) {
	srv, _ := startServer(t)
	if err := srv.replaceCounter(nil, nil); err == nil {
		t.Fatal("nil counter accepted")
	}
	other, err := dataset.NewSchema("other", []dataset.Attribute{
		{Name: "x", Categories: []string{"x0", "x1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	om, err := core.NewGammaDiagonal(other.DomainSize(), 19)
	if err != nil {
		t.Fatal(err)
	}
	oc, err := mining.NewShardedGammaCounter(other, om, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.replaceCounter(oc, nil); err == nil {
		t.Fatal("mismatched counter accepted")
	}

	// A matching counter swaps in atomically with its version vector.
	merged, err := mining.NewShardedCounter(srv.CounterScheme(), 1)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]mining.Item, srv.schema.M())
	for j := range items {
		items[j] = mining.Item{Attr: j}
	}
	if err := merged.Ingest(items); err != nil {
		t.Fatal(err)
	}
	genBefore := srv.CounterGeneration()
	vector := map[string]uint64{"http://site-a": 42}
	if err := srv.replaceCounter(merged, vector); err != nil {
		t.Fatal(err)
	}
	if srv.N() != 1 {
		t.Fatalf("server records %d after replace, want 1", srv.N())
	}
	if srv.CounterGeneration() <= genBefore {
		t.Fatal("generation did not advance on replace")
	}
}
