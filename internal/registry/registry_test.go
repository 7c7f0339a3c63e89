package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/service"
	"repro/internal/telemetry"
)

func testSchemaSpec() *SchemaSpec {
	return &SchemaSpec{
		Name: "tenants",
		Attrs: []dataset.Attribute{
			{Name: "a", Categories: []string{"a0", "a1", "a2"}},
			{Name: "b", Categories: []string{"b0", "b1"}},
			{Name: "c", Categories: []string{"c0", "c1", "c2", "c3"}},
		},
	}
}

func testSpec() CollectionSpec {
	return CollectionSpec{Schema: testSchemaSpec(), Rho1: 0.05, Rho2: 0.50, Shards: 2}
}

// startRegistry builds a registry (memory-only unless opts.BaseDir is
// set) and an HTTP front over its handler.
func startRegistry(t *testing.T, o Options) (*Registry, *httptest.Server) {
	t.Helper()
	reg, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	ts := httptest.NewServer(reg.Handler())
	t.Cleanup(ts.Close)
	return reg, ts
}

// doJSON runs one request and returns status + body.
func doJSON(t *testing.T, ts *httptest.Server, method, path string, body []byte) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// putCollection PUTs a spec and fails the test on an unexpected status.
func putCollection(t *testing.T, ts *httptest.Server, name string, spec CollectionSpec, wantStatus int) []byte {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	status, resp := doJSON(t, ts, "PUT", "/v1/collections/"+name, body)
	if status != wantStatus {
		t.Fatalf("PUT %s: status %d, want %d (%s)", name, status, wantStatus, resp)
	}
	return resp
}

// collectionClient builds a service.Client against the collection-
// scoped base URL — the unmodified client working through the
// path-alias is itself part of what these tests pin down.
func collectionClient(t *testing.T, ts *httptest.Server, name string) *service.Client {
	t.Helper()
	c, err := service.NewClient(ts.URL+"/v1/collections/"+name, service.WithHTTPClient(ts.Client()))
	if err != nil {
		t.Fatalf("client for %s: %v", name, err)
	}
	return c
}

// seedRecords synthesizes deterministic records for the test schema.
func seedRecords(schema *dataset.Schema, n int, seed int64) []dataset.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]dataset.Record, n)
	for i := range recs {
		rec := make(dataset.Record, schema.M())
		for j, a := range schema.Attrs {
			rec[j] = rng.Intn(a.Cardinality())
		}
		recs[i] = rec
	}
	return recs
}

func ingestSeeded(t *testing.T, c *service.Client, n int, seed int64) {
	t.Helper()
	if err := c.SubmitBatch(seedRecords(c.Schema(), n, seed), rand.New(rand.NewSource(seed+1))); err != nil {
		t.Fatal(err)
	}
}

// rawQuery POSTs a fixed query body and returns the response bytes —
// raw, so isolation tests can demand BYTE identity, not just value
// identity.
func rawQuery(t *testing.T, ts *httptest.Server, prefix string) []byte {
	t.Helper()
	body := []byte(`{"filters":[{},{"a":"a1"},{"b":"b0","c":"c3"}]}`)
	status, resp := doJSON(t, ts, "POST", prefix+"/v1/query", body)
	if status != http.StatusOK {
		t.Fatalf("query %s: status %d (%s)", prefix, status, resp)
	}
	return resp
}

func TestCollectionLifecycleHTTP(t *testing.T) {
	_, ts := startRegistry(t, Options{MaxCollections: 3})

	// Create, then re-PUT the identical spec: idempotent.
	resp := putCollection(t, ts, "alpha", testSpec(), http.StatusCreated)
	var info CollectionInfo
	if err := json.Unmarshal(resp, &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "alpha" || info.Spec.Scheme != "gamma" {
		t.Fatalf("created info = %+v, want name alpha, normalized scheme gamma", info)
	}
	putCollection(t, ts, "alpha", testSpec(), http.StatusOK)

	// A different spec under a live name: conflict, never an overwrite.
	changed := testSpec()
	changed.Rho2 = 0.4
	putCollection(t, ts, "alpha", changed, http.StatusConflict)

	// Bad names and bad specs are 400s.
	putCollection(t, ts, "UPPER", testSpec(), http.StatusBadRequest)
	bad := testSpec()
	bad.Schema = nil
	putCollection(t, ts, "noschema", bad, http.StatusBadRequest)
	if status, _ := doJSON(t, ts, "PUT", "/v1/collections/raw", []byte("{nope")); status != http.StatusBadRequest {
		t.Fatalf("bad JSON spec: %d, want 400", status)
	}

	// Normalization makes differently spelled durations the same spec.
	win := testSpec()
	win.WindowBuckets = 3
	win.WindowBucket = "60s"
	putCollection(t, ts, "win", win, http.StatusCreated)
	win.WindowBucket = "1m"
	putCollection(t, ts, "win", win, http.StatusOK)

	// The cap refuses the collection over the limit.
	putCollection(t, ts, "third", testSpec(), http.StatusCreated)
	putCollection(t, ts, "fourth", testSpec(), http.StatusForbidden)

	// List and get.
	status, resp := doJSON(t, ts, "GET", "/v1/collections", nil)
	if status != http.StatusOK {
		t.Fatalf("list: %d", status)
	}
	var infos []CollectionInfo
	if err := json.Unmarshal(resp, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("list holds %d collections, want 3", len(infos))
	}
	if status, _ := doJSON(t, ts, "GET", "/v1/collections/ghost", nil); status != http.StatusNotFound {
		t.Fatalf("get unknown: %d, want 404", status)
	}

	// Delete frees the slot; deleting again is 404.
	if status, _ := doJSON(t, ts, "DELETE", "/v1/collections/third", nil); status != http.StatusNoContent {
		t.Fatalf("delete: %d, want 204", status)
	}
	if status, _ := doJSON(t, ts, "DELETE", "/v1/collections/third", nil); status != http.StatusNotFound {
		t.Fatalf("re-delete: %d, want 404", status)
	}
	putCollection(t, ts, "fourth", testSpec(), http.StatusCreated)

	// Data plane of an unknown collection is 404.
	if status, _ := doJSON(t, ts, "GET", "/v1/collections/ghost/v1/schema", nil); status != http.StatusNotFound {
		t.Fatalf("data plane of unknown collection: %d, want 404", status)
	}
	// No default collection was adopted: legacy routes say so.
	if status, _ := doJSON(t, ts, "GET", "/v1/schema", nil); status != http.StatusNotFound {
		t.Fatalf("legacy route without default: %d, want 404", status)
	}
}

// TestPutStatusIgnoresSpecText: a bad spec is a 400 even when its own
// text holds the words of a conflict or a cap ("limit", "already
// exists"), since the PUT status follows the error's identity.
func TestPutStatusIgnoresSpecText(t *testing.T) {
	_, ts := startRegistry(t, Options{})
	dup := testSpec()
	dup.Schema = &SchemaSpec{Name: "dup", Attrs: []dataset.Attribute{
		{Name: "limit", Categories: []string{"x", "y"}},
		{Name: "limit", Categories: []string{"x", "y"}},
	}}
	putCollection(t, ts, "dup", dup, http.StatusBadRequest)
	win := testSpec()
	win.WindowBuckets = 2
	win.WindowBucket = "nolimit"
	putCollection(t, ts, "win", win, http.StatusBadRequest)
	named := testSpec()
	named.WindowBuckets = 2
	named.WindowBucket = "already exists"
	putCollection(t, ts, "named", named, http.StatusBadRequest)
}

// TestAdoptedDefaultServesLegacyRoutes: an adopted server answers both
// the un-prefixed legacy routes and the path-scoped form, identically.
func TestAdoptedDefaultServesLegacyRoutes(t *testing.T) {
	reg, ts := startRegistry(t, Options{})
	schema, err := dataset.NewSchema(testSchemaSpec().Name, testSchemaSpec().Attrs)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := service.NewServer(schema, core.PrivacySpec{Rho1: 0.05, Rho2: 0.50}, service.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := reg.Adopt(DefaultCollection, srv); err != nil {
		t.Fatal(err)
	}

	legacy, err := service.NewClient(ts.URL, service.WithHTTPClient(ts.Client()))
	if err != nil {
		t.Fatal(err)
	}
	ingestSeeded(t, legacy, 120, 7)

	direct := rawQuery(t, ts, "")
	scoped := rawQuery(t, ts, "/v1/collections/"+DefaultCollection)
	if !bytes.Equal(direct, scoped) {
		t.Fatalf("legacy and scoped answers differ:\n%s\n%s", direct, scoped)
	}
	// The default collection is flag-configured: delete refuses, and so
	// does re-creating it over the adopted slot.
	if status, _ := doJSON(t, ts, "DELETE", "/v1/collections/"+DefaultCollection, nil); status != http.StatusForbidden {
		t.Fatalf("delete default: %d, want 403", status)
	}
	putCollection(t, ts, DefaultCollection, testSpec(), http.StatusConflict)
}

// TestCollectionIsolation is the tenant-isolation equivalence proof:
// a query against collection A must return BYTE-identical responses
// before creating B, after ingesting into B, and after deleting B.
func TestCollectionIsolation(t *testing.T) {
	_, ts := startRegistry(t, Options{})

	putCollection(t, ts, "a", testSpec(), http.StatusCreated)
	clientA := collectionClient(t, ts, "a")
	ingestSeeded(t, clientA, 200, 42)
	baseline := rawQuery(t, ts, "/v1/collections/a")

	putCollection(t, ts, "b", testSpec(), http.StatusCreated)
	afterCreate := rawQuery(t, ts, "/v1/collections/a")
	if !bytes.Equal(baseline, afterCreate) {
		t.Fatalf("creating B changed A's answer:\n%s\n%s", baseline, afterCreate)
	}

	clientB := collectionClient(t, ts, "b")
	ingestSeeded(t, clientB, 333, 99)
	afterIngest := rawQuery(t, ts, "/v1/collections/a")
	if !bytes.Equal(baseline, afterIngest) {
		t.Fatalf("ingesting into B changed A's answer:\n%s\n%s", baseline, afterIngest)
	}
	// And B actually received its records — isolation, not inertness.
	if est, err := clientB.Query(service.QueryFilter{}); err != nil || est.N != 333 {
		t.Fatalf("B query: est.N=%d err=%v, want 333", est.N, err)
	}

	if status, _ := doJSON(t, ts, "DELETE", "/v1/collections/b", nil); status != http.StatusNoContent {
		t.Fatal("delete b failed")
	}
	afterDelete := rawQuery(t, ts, "/v1/collections/a")
	if !bytes.Equal(baseline, afterDelete) {
		t.Fatalf("deleting B changed A's answer:\n%s\n%s", baseline, afterDelete)
	}
}

// TestWindowedCollectionViaRegistry: a windowed spec builds a windowed
// server whose window parameter works through the path-scoped routes,
// and whose full-ring windowed answer equals the unwindowed one.
func TestWindowedCollectionViaRegistry(t *testing.T) {
	reg, ts := startRegistry(t, Options{})
	spec := testSpec()
	spec.WindowBuckets = 4
	spec.WindowBucket = "1m"
	putCollection(t, ts, "sliding", spec, http.StatusCreated)

	col, err := reg.Get("sliding")
	if err != nil {
		t.Fatal(err)
	}
	if err := col.AwaitReady(); err != nil {
		t.Fatal(err)
	}
	srv, _ := col.Server()
	if !srv.Windowed() {
		t.Fatal("windowed spec built an unwindowed server")
	}
	if b, d := srv.WindowSpec(); b != 4 || d != time.Minute {
		t.Fatalf("WindowSpec = (%d, %v), want (4, 1m)", b, d)
	}

	client := collectionClient(t, ts, "sliding")
	ingestSeeded(t, client, 150, 5)
	filters := []service.QueryFilter{{}, {"a": "a2"}}
	plain, err := client.QueryAll(filters)
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := client.QueryWindow(filters, "4m")
	if err != nil {
		t.Fatal(err)
	}
	if plain.Records != windowed.Records || plain.Estimates[1].Count != windowed.Estimates[1].Count {
		t.Fatalf("full-ring window disagrees with unwindowed: %+v vs %+v", plain, windowed)
	}
	// A windowed collection cannot federate.
	fed := testSpec()
	fed.WindowBuckets = 2
	fed.WindowBucket = "1m"
	fed.Peers = []string{"http://127.0.0.1:1"}
	putCollection(t, ts, "fedwin", fed, http.StatusBadRequest)
}

// TestRegistryDurability: collections and their data survive a
// registry restart — the manifest rebuilds the fleet, each tenant
// store recovers its own WAL, and a deleted collection stays deleted.
func TestRegistryDurability(t *testing.T) {
	dir := t.TempDir()
	reg1, ts1 := startRegistry(t, Options{BaseDir: dir})

	putCollection(t, ts1, "keep", testSpec(), http.StatusCreated)
	putCollection(t, ts1, "drop", testSpec(), http.StatusCreated)
	keep := collectionClient(t, ts1, "keep")
	ingestSeeded(t, keep, 180, 21)
	drop := collectionClient(t, ts1, "drop")
	ingestSeeded(t, drop, 50, 22)

	// Force the WAL append so the restart has something to recover, and
	// capture the pre-restart answer.
	colKeep, err := reg1.Get("keep")
	if err != nil {
		t.Fatal(err)
	}
	srvKeep, err := colKeep.Server()
	if err != nil {
		t.Fatal(err)
	}
	if err := srvKeep.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	before := rawQuery(t, ts1, "/v1/collections/keep")
	if status, _ := doJSON(t, ts1, "DELETE", "/v1/collections/drop", nil); status != http.StatusNoContent {
		t.Fatal("delete drop failed")
	}
	ts1.Close()
	reg1.Close()

	reg2, ts2 := startRegistry(t, Options{BaseDir: dir})
	if err := reg2.AwaitReady(); err != nil {
		t.Fatal(err)
	}
	after := rawQuery(t, ts2, "/v1/collections/keep")
	if !bytes.Equal(before, after) {
		t.Fatalf("restart changed keep's answer:\n%s\n%s", before, after)
	}
	if _, err := reg2.Get("drop"); err == nil {
		t.Fatal("deleted collection resurrected by restart")
	}
}

// TestRegistryReadyzDuringRecovery pins the slow-recovery contract:
// while any collection is still recovering, /readyz answers 503 naming
// it, the collection's data plane answers 503, and its lifecycle GET
// reports "recovering" — then everything flips once the build lands.
func TestRegistryReadyzDuringRecovery(t *testing.T) {
	dir := t.TempDir()
	reg1, ts1 := startRegistry(t, Options{BaseDir: dir})
	putCollection(t, ts1, "slow", testSpec(), http.StatusCreated)
	ts1.Close()
	reg1.Close()

	gate := make(chan struct{})
	reg2, err := newBlocked(Options{BaseDir: dir}, func(name string) { <-gate })
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	ts2 := httptest.NewServer(reg2.Handler())
	defer ts2.Close()
	ops := httptest.NewServer(telemetry.OpsHandler(telemetry.NewRegistry(), reg2.Ready))
	defer ops.Close()

	resp, err := http.Get(ops.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during recovery: %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "slow: recovering") {
		t.Fatalf("readyz breakdown %q does not name the recovering collection", body)
	}
	if status, b := doJSON(t, ts2, "GET", "/v1/collections/slow/v1/schema", nil); status != http.StatusServiceUnavailable {
		t.Fatalf("data plane during recovery: %d (%s), want 503", status, b)
	}
	// The 503 invites one retry: service.Client honours Retry-After.
	resp, err = http.Get(ts2.URL + "/v1/collections/slow/v1/schema")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("Retry-After"); resp.StatusCode != http.StatusServiceUnavailable || got != "1" {
		t.Fatalf("data plane during recovery: %d with Retry-After %q, want 503 with 1", resp.StatusCode, got)
	}
	status, b := doJSON(t, ts2, "GET", "/v1/collections/slow", nil)
	if status != http.StatusOK {
		t.Fatalf("lifecycle GET during recovery: %d", status)
	}
	var info CollectionInfo
	if err := json.Unmarshal(b, &info); err != nil {
		t.Fatal(err)
	}
	if info.State != "recovering" {
		t.Fatalf("state = %q, want recovering", info.State)
	}

	close(gate)
	if err := reg2.AwaitReady(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ops.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after recovery: %d, want 200", resp.StatusCode)
	}
	if status, _ := doJSON(t, ts2, "GET", "/v1/collections/slow/v1/schema", nil); status != http.StatusOK {
		t.Fatalf("data plane after recovery: %d, want 200", status)
	}
}

// TestRegistryCreateThenUse pins create-then-use: PUT answers 201 only
// once the new collection serves, so the very next data-plane request
// succeeds even when the build is slow.
func TestRegistryCreateThenUse(t *testing.T) {
	reg, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	reg.buildDelay = func(string) { time.Sleep(50 * time.Millisecond) }
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()

	putCollection(t, ts, "fresh", testSpec(), http.StatusCreated)
	if status, b := doJSON(t, ts, "GET", "/v1/collections/fresh/v1/schema", nil); status != http.StatusOK {
		t.Fatalf("schema right after PUT: %d (%s), want 200", status, b)
	}
	// An identical re-PUT is idempotent and equally serving.
	putCollection(t, ts, "fresh", testSpec(), http.StatusOK)
}

// newBlocked is the test hook: a registry whose background builds
// first run delay (used to hold recovery open deterministically).
func newBlocked(o Options, delay func(name string)) (*Registry, error) {
	// The delay must be installed before New spawns manifest rebuilds,
	// so this re-implements New's manifest pass with the seam set.
	r, err := New(Options{MaxCollections: o.MaxCollections, Metrics: o.Metrics, AccessLog: o.AccessLog, SyncMode: o.SyncMode})
	if err != nil {
		return nil, err
	}
	r.buildDelay = delay
	r.baseDir = o.BaseDir
	specs, err := r.loadManifest()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, spec := range specs {
		col := &Collection{name: name, spec: spec, ready: make(chan struct{})}
		r.collections[name] = col
		r.everNamed[name] = true
		go r.build(col)
	}
	return r, nil
}

// TestRegistryTenantChurn drives N collections through concurrent
// create/ingest/query/delete cycles — the race-detector stress target
// CI runs in its tenant-matrix step. Request-level failures against a
// collection mid-delete are expected; data races and panics are not.
func TestRegistryTenantChurn(t *testing.T) {
	_, ts := startRegistry(t, Options{MaxCollections: 16, Metrics: telemetry.NewRegistry()})
	const tenants = 6
	rounds := 4
	if testing.Short() {
		rounds = 2
	}

	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("tenant-%d", i)
			spec := testSpec()
			// CI's stress matrix pins the scheme; unset means gamma.
			if s := os.Getenv("FRAPP_STRESS_SCHEME"); s != "" {
				spec.Scheme = s
			}
			if i%2 == 0 { // alternate windowed and plain tenants
				spec.WindowBuckets = 3
				spec.WindowBucket = "1m"
			}
			for round := 0; round < rounds; round++ {
				body, _ := json.Marshal(spec)
				status, resp := doJSON(t, ts, "PUT", "/v1/collections/"+name, body)
				if status != http.StatusCreated && status != http.StatusOK {
					t.Errorf("%s round %d: PUT %d (%s)", name, round, status, resp)
					return
				}
				client, err := service.NewClient(ts.URL+"/v1/collections/"+name,
					service.WithHTTPClient(ts.Client()))
				if err != nil {
					t.Errorf("%s round %d: client: %v", name, round, err)
					return
				}
				recs := seedRecords(client.Schema(), 40, int64(i*100+round))
				if err := client.SubmitBatch(recs, rand.New(rand.NewSource(int64(round)))); err != nil {
					t.Errorf("%s round %d: submit: %v", name, round, err)
					return
				}
				est, err := client.Query(service.QueryFilter{})
				if err != nil {
					t.Errorf("%s round %d: query: %v", name, round, err)
					return
				}
				if est.N != 40 {
					t.Errorf("%s round %d: N=%d, want 40 (cross-tenant contamination?)", name, round, est.N)
					return
				}
				if status, _ := doJSON(t, ts, "DELETE", "/v1/collections/"+name, nil); status != http.StatusNoContent {
					t.Errorf("%s round %d: DELETE %d", name, round, status)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestLifecycleTelemetry: collection lifecycle requests pass through
// the service's metrics/access-log middleware — one access line and one
// frapp_http_requests_total series under the route pattern, with no
// field or label carrying the collection name from the path, and no
// job, ingest or store series outside the collection's own labels.
func TestLifecycleTelemetry(t *testing.T) {
	metrics := telemetry.NewRegistry()
	var logBuf bytes.Buffer
	r, err := New(Options{Metrics: metrics, AccessLog: telemetry.NewAccessLogger(&logBuf, slog.LevelInfo)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	body, err := json.Marshal(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("PUT", "/v1/collections/acme", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("PUT: %d %s", rec.Code, rec.Body)
	}

	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if logBuf.Len() == 0 || len(lines) != 1 {
		t.Fatalf("access log holds %d lines, want 1:\n%s", len(lines), logBuf.String())
	}
	var line map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &line); err != nil {
		t.Fatal(err)
	}
	if line["route"] != "/v1/collections/{name}" || line["method"] != "PUT" || line["status"] != float64(201) {
		t.Errorf("access line = %v, want PUT /v1/collections/{name} 201", line)
	}
	for k, v := range line {
		if s, ok := v.(string); ok && strings.Contains(s, "acme") {
			t.Errorf("access log field %s=%q carries the path's collection name", k, s)
		}
	}

	var expo bytes.Buffer
	if err := metrics.WriteText(&expo); err != nil {
		t.Fatal(err)
	}
	parsed, err := telemetry.ParseExposition(expo.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := parsed.Value("frapp_http_requests_total",
		map[string]string{"route": "/v1/collections/{name}", "code": "2xx", "wire": "json"}); !ok || v != 1 {
		t.Errorf("lifecycle request series = %v,%v, want 1", v, ok)
	}
	metrics.EachSeries(func(name, _ string, labels []telemetry.Label) {
		collection := ""
		for _, l := range labels {
			if l.Key == "collection" {
				collection = l.Value
			} else if strings.Contains(l.Value, "acme") {
				t.Errorf("%s label %s=%q carries the path's collection name", name, l.Key, l.Value)
			}
		}
		if collection == "" && !strings.HasPrefix(name, "frapp_http_") {
			t.Errorf("series %s%v registered outside any collection", name, labels)
		}
	})
}
