package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// seedSkewed ingests a population skewed toward {0,0,0} so mining at a
// moderate support threshold has a planted frequent triple to find.
func seedSkewed(t *testing.T, ts_url string, httpc *http.Client, n int, seed int64) *Client {
	t.Helper()
	client, err := NewClient(ts_url, WithHTTPClient(httpc))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var recs []dataset.Record
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.5 {
			recs = append(recs, dataset.Record{0, 0, 0})
		} else {
			recs = append(recs, dataset.Record{rng.Intn(3), rng.Intn(2), rng.Intn(4)})
		}
	}
	if err := client.SubmitBatch(recs, rng); err != nil {
		t.Fatal(err)
	}
	return client
}

func TestMineJobLifecycle(t *testing.T) {
	srv, ts := startServer(t)
	client := seedSkewed(t, ts.URL, ts.Client(), 3000, 21)

	jr, err := client.SubmitMineJob(MineParams{MinSupport: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if jr.ID == "" || (jr.State != JobQueued && jr.State != JobRunning && jr.State != JobDone) {
		t.Fatalf("submitted job %+v", jr)
	}
	if jr.Result != nil {
		t.Fatal("submission response carries a result")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done, err := client.AwaitMineJob(ctx, jr.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != JobDone || done.Result == nil || done.FinishedAt == nil {
		t.Fatalf("awaited job %+v", done)
	}
	if done.Result.Records != srv.N() {
		t.Fatalf("job mined %d records, server has %d", done.Result.Records, srv.N())
	}
	if done.SnapshotVersion != uint64(srv.N()) {
		t.Fatalf("snapshot version %d, want %d", done.SnapshotVersion, srv.N())
	}
	if done.Result.SnapshotVersion != done.SnapshotVersion {
		t.Fatalf("result version %d != job version %d", done.Result.SnapshotVersion, done.SnapshotVersion)
	}
	// Defaults were applied.
	if done.Params.Limit != defaultMineLimit {
		t.Fatalf("params %+v", done.Params)
	}

	// The list endpoint reports the job without its payload.
	list, err := client.MineJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != jr.ID || list[0].State != JobDone || list[0].Result != nil {
		t.Fatalf("job list %+v", list)
	}
}

func TestMineJobCacheSingleAprioriRun(t *testing.T) {
	srv, ts := startServer(t)
	client := seedSkewed(t, ts.URL, ts.Client(), 3000, 22)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	p := MineParams{MinSupport: 0.2, Limit: 50}
	first, err := client.MineAsync(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first mine reported cached")
	}
	second, err := client.MineAsync(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("identical re-mine of unchanged counter not served from cache")
	}
	if runs := srv.AprioriRuns(); runs != 1 {
		t.Fatalf("Apriori ran %d times, want 1", runs)
	}
	if second.SnapshotVersion != first.SnapshotVersion {
		t.Fatalf("cache hit changed version %d -> %d", first.SnapshotVersion, second.SnapshotVersion)
	}

	// Different minconf/limit reuse the cached frequent itemsets — rule
	// generation and truncation are per-request post-processing.
	withRules, err := client.MineAsync(ctx, MineParams{MinSupport: 0.2, MinConf: 0.3, Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !withRules.Cached || srv.AprioriRuns() != 1 {
		t.Fatalf("minconf/limit variation re-ran Apriori (runs=%d cached=%v)", srv.AprioriRuns(), withRules.Cached)
	}
	if len(withRules.Itemsets) > 10 {
		t.Fatalf("limit ignored: %d itemsets", len(withRules.Itemsets))
	}

	// A different minsup is a different computation.
	if _, err := client.MineAsync(ctx, MineParams{MinSupport: 0.3}); err != nil {
		t.Fatal(err)
	}
	if runs := srv.AprioriRuns(); runs != 2 {
		t.Fatalf("Apriori ran %d times after minsup change, want 2", runs)
	}

	// An intervening submission bumps the snapshot version and forces
	// recomputation for the original params.
	rng := rand.New(rand.NewSource(23))
	if err := client.Submit(dataset.Record{1, 1, 1}, rng); err != nil {
		t.Fatal(err)
	}
	third, err := client.MineAsync(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("mine after submission still served from cache")
	}
	if third.SnapshotVersion <= first.SnapshotVersion {
		t.Fatalf("version did not advance: %d -> %d", first.SnapshotVersion, third.SnapshotVersion)
	}
	if runs := srv.AprioriRuns(); runs != 3 {
		t.Fatalf("Apriori ran %d times after version bump, want 3", runs)
	}
}

func TestSyncMineSharesJobPoolAndCache(t *testing.T) {
	srv, ts := startServer(t)
	client := seedSkewed(t, ts.URL, ts.Client(), 2000, 24)

	first, err := client.Mine(0.2, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	second, err := client.Mine(0.2, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || !second.Cached {
		t.Fatalf("sync mine cache flags: first=%v second=%v", first.Cached, second.Cached)
	}
	if runs := srv.AprioriRuns(); runs != 1 {
		t.Fatalf("sync mines ran Apriori %d times, want 1", runs)
	}
	// Sync mines are jobs too: both retained and pollable.
	list, err := client.MineJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("retained %d jobs, want 2", len(list))
	}
}

func TestMineJobMaxLen(t *testing.T) {
	_, ts := startServer(t)
	client := seedSkewed(t, ts.URL, ts.Client(), 2000, 25)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	capped, err := client.MineAsync(ctx, MineParams{MinSupport: 0.2, MaxLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.Counts) != 1 {
		t.Fatalf("maxlen=1 produced counts %v", capped.Counts)
	}
	full, err := client.MineAsync(ctx, MineParams{MinSupport: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Counts) <= 1 {
		t.Fatalf("unbounded mine produced counts %v", full.Counts)
	}
	if full.Cached {
		t.Fatal("different maxlen hit the cache")
	}
}

func TestMineJobValidation(t *testing.T) {
	_, ts := startServer(t)
	post := func(body string) int {
		resp, err := ts.Client().Post(ts.URL+"/v1/mine-jobs", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"minsup": 1.5}`); code != http.StatusBadRequest {
		t.Fatalf("minsup>1 returned %d", code)
	}
	if code := post(`{"minsup": -0.1}`); code != http.StatusBadRequest {
		t.Fatalf("negative minsup returned %d", code)
	}
	if code := post(`{"minconf": 2}`); code != http.StatusBadRequest {
		t.Fatalf("minconf>1 returned %d", code)
	}
	if code := post(`{"limit": -1}`); code != http.StatusBadRequest {
		t.Fatalf("negative limit returned %d", code)
	}
	if code := post(`{"maxlen": -1}`); code != http.StatusBadRequest {
		t.Fatalf("negative maxlen returned %d", code)
	}
	if code := post(`not json`); code != http.StatusBadRequest {
		t.Fatalf("garbage returned %d", code)
	}
	// Empty body means defaults — accepted even on an empty collection
	// (the job itself then fails with "no submissions yet").
	if code := post(``); code != http.StatusAccepted {
		t.Fatalf("empty body returned %d", code)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/mine-jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job returned %d", resp.StatusCode)
	}
}

func TestMineJobEmptyCollectionFails(t *testing.T) {
	_, ts := startServer(t)
	client, err := NewClient(ts.URL, WithHTTPClient(ts.Client()))
	if err != nil {
		t.Fatal(err)
	}
	jr, err := client.SubmitMineJob(MineParams{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	failed, err := client.AwaitMineJob(ctx, jr.ID, time.Millisecond)
	if err == nil {
		t.Fatal("job on empty collection succeeded")
	}
	if failed == nil || failed.State != JobFailed || failed.Error == "" {
		t.Fatalf("failed job %+v", failed)
	}
}

func TestMineJobTTLEviction(t *testing.T) {
	srv, ts := startServer(t, WithJobTTL(time.Minute))
	client := seedSkewed(t, ts.URL, ts.Client(), 500, 26)

	// Drive the store clock manually so the test needs no sleeping.
	now := time.Now()
	srv.jobs.mu.Lock()
	srv.jobs.now = func() time.Time { return now }
	srv.jobs.mu.Unlock()

	jr, err := client.SubmitMineJob(MineParams{MinSupport: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := client.AwaitMineJob(ctx, jr.ID, time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// Within TTL: still pollable.
	if _, err := client.MineJob(jr.ID); err != nil {
		t.Fatal(err)
	}
	// Past TTL: evicted, indistinguishable from unknown.
	srv.jobs.mu.Lock()
	now = now.Add(2 * time.Minute)
	srv.jobs.mu.Unlock()
	if _, err := client.MineJob(jr.ID); err == nil {
		t.Fatal("TTL-expired job still pollable")
	}
	list, err := client.MineJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Fatalf("expired job still listed: %+v", list)
	}
}

func TestServerOptionsDefaults(t *testing.T) {
	srv, _ := startServer(t)
	if srv.MineWorkers() != defaultJobWorkers {
		t.Fatalf("default workers %d", srv.MineWorkers())
	}
	srv2, err := NewServer(serviceSchema(t), core.PrivacySpec{Rho1: 0.05, Rho2: 0.50}, WithMineWorkers(5), WithJobTTL(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if srv2.MineWorkers() != 5 || srv2.jobs.ttl != time.Second {
		t.Fatalf("options not applied: workers=%d ttl=%v", srv2.MineWorkers(), srv2.jobs.ttl)
	}
}

func TestStatsReportsJobPool(t *testing.T) {
	_, ts := startServer(t)
	client := seedSkewed(t, ts.URL, ts.Client(), 400, 27)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := client.MineAsync(ctx, MineParams{MinSupport: 0.2}); err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotVersion != 400 || stats.MineRuns != 1 || stats.MineWorkers != defaultJobWorkers {
		t.Fatalf("stats %+v", stats)
	}
}

func TestReplaceCounterInvalidatesCache(t *testing.T) {
	srv, ts := startServer(t)
	client := seedSkewed(t, ts.URL, ts.Client(), 600, 28)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := client.MineAsync(ctx, MineParams{MinSupport: 0.2}); err != nil {
		t.Fatal(err)
	}
	if err := srv.replaceCounter(counterCopy(t, srv), nil); err != nil {
		t.Fatal(err)
	}
	// Same version number (copied count), but the counter object was
	// replaced: the cache must have been dropped, so this re-runs.
	res, err := client.MineAsync(ctx, MineParams{MinSupport: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("cache survived a counter swap")
	}
	if runs := srv.AprioriRuns(); runs != 2 {
		t.Fatalf("Apriori ran %d times, want 2", runs)
	}
}

// TestSyncMineExplicitZeroParams pins the query endpoint's pre-job
// semantics for explicit zeros: minsup=0 is rejected (only an ABSENT
// minsup means the default), and limit=0 is honored as "no itemsets in
// the response" rather than coerced to the default. The JSON job API
// deliberately differs — there zero means default.
func TestSyncMineExplicitZeroParams(t *testing.T) {
	_, ts := startServer(t)
	seedSkewed(t, ts.URL, ts.Client(), 500, 29)

	resp, err := ts.Client().Get(ts.URL + "/v1/mine?minsup=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("explicit minsup=0 returned %d", resp.StatusCode)
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/mine?minsup=0.2&limit=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("limit=0 returned %d", resp.StatusCode)
	}
	var mr MineResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Itemsets) != 0 || len(mr.Counts) == 0 {
		t.Fatalf("limit=0 response: %d itemsets, counts %v", len(mr.Itemsets), mr.Counts)
	}
}
