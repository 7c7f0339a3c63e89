package service

import (
	"encoding/gob"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/store"
)

// startStoreServer builds a store-backed server over dir with a fast
// flusher, plus its HTTP front.
func startStoreServer(t *testing.T, dir string, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts = append([]Option{
		WithStore(st),
		WithWALFlushInterval(5 * time.Millisecond),
		WithShards(2),
	}, opts...)
	srv, err := NewServer(serviceSchema(t), core.PrivacySpec{Rho1: 0.05, Rho2: 0.50}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func submitBatch(t *testing.T, ts *httptest.Server, n int, seed int64) {
	t.Helper()
	client, err := NewClient(ts.URL, WithHTTPClient(ts.Client()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var recs []dataset.Record
	for i := 0; i < n; i++ {
		recs = append(recs, dataset.Record{rng.Intn(3), rng.Intn(2), rng.Intn(4)})
	}
	if err := client.SubmitBatch(recs, rng); err != nil {
		t.Fatal(err)
	}
}

// TestStoreBackedServerSurvivesCrash: submissions acknowledged over HTTP
// are durable once the background flusher has run — no FlushWAL call, no
// graceful shutdown. The abandoned server stands in for a killed one.
func TestStoreBackedServerSurvivesCrash(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	srv, ts := startStoreServer(t, dir)
	submitBatch(t, ts, 40, 70)

	// Wait out a few flusher ticks, then "crash": no Close, no flush.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st2, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		recovered, err := st2.Recover(srv.CounterScheme(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if recovered != nil && recovered.N() == 40 {
			break
		}
		if time.Now().After(deadline) {
			n := -1
			if recovered != nil {
				n = recovered.N()
			}
			t.Fatalf("flusher never made the records durable (recovered %d/40)", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStoreBackedServerRestartRestores: the graceful path — Close
// flushes the tail — and a successor server over the same directory
// starts with every record and mines from them.
func TestStoreBackedServerRestartRestores(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	srv, ts := startStoreServer(t, dir)
	submitBatch(t, ts, 200, 71)
	if !srv.StoreBacked() {
		t.Fatal("server does not report its store")
	}
	srv.Close()
	ts.Close()

	srv2, ts2 := startStoreServer(t, dir)
	if srv2.N() != 200 {
		t.Fatalf("restarted server has %d records, want 200", srv2.N())
	}
	client, err := NewClient(ts2.URL, WithHTTPClient(ts2.Client()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Mine(0.1, 0, 100); err != nil {
		t.Fatalf("mining over recovered state: %v", err)
	}
}

// TestStoreBackedCheckpointThreshold: crossing -checkpoint-every records
// makes the background flusher compact without any explicit call.
func TestStoreBackedCheckpointThreshold(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	_, ts := startStoreServer(t, dir, WithCheckpointEvery(10))
	submitBatch(t, ts, 50, 72)
	deadline := time.Now().Add(5 * time.Second)
	for {
		// Attach wrote checkpoint-1; a threshold compaction moves past it.
		ckpts, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		if len(ckpts) > 0 && filepath.Base(ckpts[len(ckpts)-1]) != "checkpoint-0000000000000001.ckpt" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no threshold checkpoint appeared (have %v)", ckpts)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStoreBackedServerGuards: a store-backed server reports its store,
// and the store controls (FlushWAL/CheckpointNow) are no-ops without
// one. (A store-backed server cannot be built as a coordinator, whose
// counter swaps would pull the counter object out from under the WAL
// chain; TestNewServerRejectsModePairs covers that.)
func TestStoreBackedServerGuards(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	srv, ts := startStoreServer(t, dir)
	submitBatch(t, ts, 3, 73)
	if !srv.StoreBacked() {
		t.Fatal("store-backed server claims no store")
	}

	plain, err := NewServer(serviceSchema(t), core.PrivacySpec{Rho1: 0.05, Rho2: 0.50})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if plain.StoreBacked() {
		t.Fatal("plain server claims a store")
	}
	if err := plain.FlushWAL(); err != nil {
		t.Fatalf("FlushWAL without store: %v", err)
	}
	if err := plain.CheckpointNow(); err != nil {
		t.Fatalf("CheckpointNow without store: %v", err)
	}
}

// pullDelta drives one GET /v1/replicate exactly like a federation
// puller would.
func pullDelta(t *testing.T, ts *httptest.Server, since, gen uint64) *mining.CounterDelta {
	t.Helper()
	url := ts.URL + "/v1/replicate"
	if since != 0 || gen != 0 {
		url = ts.URL + "/v1/replicate?since=" + strconv.FormatUint(since, 10) +
			"&gen=" + strconv.FormatUint(gen, 10)
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replicate returned %s", resp.Status)
	}
	var d mining.CounterDelta
	if err := gob.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	return &d
}

// TestFederationPullerResumesAfterRestart is the acceptance criterion
// for persisted replication identity: a puller chained onto a collector
// keeps pulling INCREMENTALLY after the collector restarts from its
// store — same epoch, same baseline — instead of a full re-pull.
func TestFederationPullerResumesAfterRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	srv, ts := startStoreServer(t, dir)
	submitBatch(t, ts, 20, 74)

	// The puller's first contact: a full delta establishing its chain.
	d1 := pullDelta(t, ts, 0, 0)
	if !d1.Full() || d1.Records != 20 {
		t.Fatalf("first pull full=%v records=%d, want full 20", d1.Full(), d1.Records)
	}
	// The checkpoint persists the replication identity INCLUDING the
	// puller's baseline; later submissions ride the WAL.
	if err := srv.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	submitBatch(t, ts, 5, 75)
	if err := srv.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	ts.Close()

	// Restart. The puller resumes with its pre-restart (since, gen).
	srv2, ts2 := startStoreServer(t, dir)
	d2 := pullDelta(t, ts2, d1.ToVersion, d1.Generation)
	if d2.Full() {
		t.Fatal("puller was forced into a full re-pull after restart")
	}
	if d2.FromVersion != d1.ToVersion {
		t.Fatalf("incremental delta chains from %d, want %d", d2.FromVersion, d1.ToVersion)
	}
	if d2.Records != 5 {
		t.Fatalf("incremental delta carries %d records, want 5", d2.Records)
	}
	if d2.Generation != d1.Generation {
		t.Fatalf("epoch changed across restart: %d -> %d", d1.Generation, d2.Generation)
	}

	// The chain reconstructs the restarted server's counter exactly.
	replica, err := mining.NewShardedCounter(srv2.CounterScheme(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.ApplyDelta(d1); err != nil {
		t.Fatal(err)
	}
	if err := replica.ApplyDelta(d2); err != nil {
		t.Fatal(err)
	}
	if replica.N() != srv2.N() {
		t.Fatalf("replica has %d records, server %d", replica.N(), srv2.N())
	}
}
