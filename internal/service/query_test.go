package service

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// postQuery POSTs a raw body to /v1/query and returns status + decoded
// response (when 200).
func postQuery(t *testing.T, ts_url string, httpc *http.Client, body string) (int, *QueryResponse) {
	t.Helper()
	resp, err := httpc.Post(ts_url+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, &qr
}

func TestQueryEndpoint(t *testing.T) {
	srv, ts := startServer(t)
	// Deterministic ingestion straight into the counter: 60 records of
	// {0,0,0} and 40 of {1,1,1}.
	for i := 0; i < 100; i++ {
		rec := dataset.Record{0, 0, 0}
		if i >= 60 {
			rec = dataset.Record{1, 1, 1}
		}
		if err := srv.ctr().Add(rec); err != nil {
			t.Fatal(err)
		}
	}

	body := `{"filters": [{}, {"a":"a0"}, {"a":"a0","b":"b0"}, {"a":"a1","b":"b1","c":"c1"}]}`
	code, qr := postQuery(t, ts.URL, ts.Client(), body)
	if code != http.StatusOK {
		t.Fatalf("query returned %d", code)
	}
	if qr.Records != 100 {
		t.Fatalf("records %d, want 100", qr.Records)
	}
	if qr.SnapshotVersion != 100 {
		t.Fatalf("snapshot_version %d, want 100 (one bump per record)", qr.SnapshotVersion)
	}
	if len(qr.Estimates) != 4 {
		t.Fatalf("%d estimates for 4 filters", len(qr.Estimates))
	}
	// The empty filter is exact; the others were ingested UNPERTURBED
	// here, so the reconstruction still answers, just with noise-free
	// inputs: the estimator is a fixed affine map of the true match
	// count, and its interval must bracket its own point estimate.
	if e := qr.Estimates[0]; e.Count != 100 || e.Lo != 100 || e.Hi != 100 || e.N != 100 {
		t.Fatalf("empty filter estimate %+v", e)
	}
	for i, e := range qr.Estimates {
		if e.N != qr.Records {
			t.Fatalf("estimate %d: n %d != records %d", i, e.N, qr.Records)
		}
		if e.Lo > e.Count || e.Count > e.Hi {
			t.Fatalf("estimate %d: interval [%v, %v] misses point %v", i, e.Lo, e.Hi, e.Count)
		}
	}

	// Submissions bump the version; a later query reports it.
	if err := srv.ctr().Add(dataset.Record{2, 0, 3}); err != nil {
		t.Fatal(err)
	}
	code, qr = postQuery(t, ts.URL, ts.Client(), `{"filters": [{}]}`)
	if code != http.StatusOK || qr.SnapshotVersion != 101 || qr.Records != 101 {
		t.Fatalf("post-submit query: code %d, %+v", code, qr)
	}
	if qr.CounterGeneration != 0 {
		t.Fatalf("fresh server reports generation %d", qr.CounterGeneration)
	}
}

// TestQueryGenerationAcrossRestore: swapping in a restored copy of the
// counter restarts the version line, so version-based client caching
// would alias two different collections; the response's counter
// generation is what disambiguates, and it must bump on the swap in
// both /v1/query and /v1/stats.
func TestQueryGenerationAcrossRestore(t *testing.T) {
	srv, ts := startServer(t)
	for i := 0; i < 50; i++ {
		if err := srv.ctr().Add(dataset.Record{0, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	swapped := counterCopy(t, srv)
	_, before := postQuery(t, ts.URL, ts.Client(), `{"filters": [{"a":"a0"}]}`)

	if err := srv.replaceCounter(swapped, nil); err != nil {
		t.Fatal(err)
	}
	code, after := postQuery(t, ts.URL, ts.Client(), `{"filters": [{"a":"a0"}]}`)
	if code != http.StatusOK {
		t.Fatalf("post-swap query returned %d", code)
	}
	// Identical content, identical version (the copy's line restarts at
	// the record count) — only the generation tells the epochs apart.
	if after.SnapshotVersion != before.SnapshotVersion {
		t.Fatalf("swapped-in version %d, want %d", after.SnapshotVersion, before.SnapshotVersion)
	}
	if after.CounterGeneration != before.CounterGeneration+1 {
		t.Fatalf("generation %d after swap, was %d", after.CounterGeneration, before.CounterGeneration)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.CounterGeneration != after.CounterGeneration || sr.SnapshotVersion != after.SnapshotVersion {
		t.Fatalf("stats (gen %d, version %d) disagrees with query (gen %d, version %d)",
			sr.CounterGeneration, sr.SnapshotVersion, after.CounterGeneration, after.SnapshotVersion)
	}
}

func TestQueryEndpointRejections(t *testing.T) {
	srv, ts := startServer(t, WithQueryLimit(8))
	if got := srv.QueryLimit(); got != 8 {
		t.Fatalf("QueryLimit = %d", got)
	}

	// Empty collection: well-formed queries answer 409.
	if code, _ := postQuery(t, ts.URL, ts.Client(), `{"filters": [{}]}`); code != http.StatusConflict {
		t.Fatalf("empty collection returned %d, want 409", code)
	}
	if err := srv.ctr().Add(dataset.Record{0, 0, 0}); err != nil {
		t.Fatal(err)
	}

	huge := `{"filters": [` + strings.Repeat(`{},`, 8) + `{}]}` // 9 > limit 8
	cases := map[string]string{
		"malformed JSON":     `{"filters": [`,
		"non-object body":    `[1,2,3]`,
		"unknown field":      `{"filtres": [{}]}`,
		"empty body":         ``,
		"no filters":         `{}`,
		"empty filter list":  `{"filters": []}`,
		"unknown attribute":  `{"filters": [{"zzz":"a0"}]}`,
		"unknown category":   `{"filters": [{"a":"zzz"}]}`,
		"duplicate attr":     `{"filters": [{"a":"a0","a":"a1"}]}`,
		"non-string value":   `{"filters": [{"a":1}]}`,
		"nested value":       `{"filters": [{"a":{"x":"y"}}]}`,
		"filter not object":  `{"filters": ["a=a0"]}`,
		"batch beyond limit": huge,
	}
	for name, body := range cases {
		if code, _ := postQuery(t, ts.URL, ts.Client(), body); code != http.StatusBadRequest {
			t.Fatalf("%s returned %d, want 400", name, code)
		}
	}
	// Limit-sized batch is accepted.
	ok := `{"filters": [` + strings.Repeat(`{},`, 7) + `{}]}` // exactly 8
	if code, _ := postQuery(t, ts.URL, ts.Client(), ok); code != http.StatusOK {
		t.Fatalf("limit-sized batch rejected")
	}
}

// TestClientQueryHelpers round-trips Query/QueryAll through a live
// server and cross-checks against the statistical ground truth: with a
// large skewed ingest, the true share of the skew record must fall
// inside nearly every returned interval.
func TestClientQueryHelpers(t *testing.T) {
	_, ts := startServer(t)
	client := seedSkewed(t, ts.URL, ts.Client(), 4000, 17) // ~50% {0,0,0} + uniform rest
	qr, err := client.QueryAll([]QueryFilter{
		{},
		{"a": "a0"},
		{"a": "a0", "b": "b0", "c": "c0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if qr.Records != 4000 || len(qr.Estimates) != 3 {
		t.Fatalf("response %+v", qr)
	}
	if e := qr.Estimates[0]; e.Count != 4000 {
		t.Fatalf("empty filter count %v", e.Count)
	}
	// seedSkewed: P(a=0) = 0.5 + 0.5/3; the CI is a 95% statement, so
	// demand only that the truth is within 4 standard errors.
	truth := 4000 * (0.5 + 0.5/3)
	if e := qr.Estimates[1]; mathAbs(e.Count-truth) > 4*e.StdErr {
		t.Fatalf("a=a0 estimate %+v vs truth %v", e, truth)
	}
	single, err := client.Query(QueryFilter{"a": "a0"})
	if err != nil {
		t.Fatal(err)
	}
	if single.N != 4000 {
		t.Fatalf("single estimate %+v", single)
	}
	if _, err := client.Query(QueryFilter{"a": "nope"}); err == nil {
		t.Fatal("unknown category accepted")
	}
}

func mathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestQueryPathRetainsNoDatabase is the acceptance check that the
// server-side query path cannot scan records: no dataset.Database (and
// no slice of dataset.Record) is reachable from the Server type or from
// its live counter. The walk is over TYPES, so it proves the server
// cannot even hold a database, as opposed to happening not to.
func TestQueryPathRetainsNoDatabase(t *testing.T) {
	srv, ts := startServer(t)
	if err := srv.ctr().Add(dataset.Record{0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if code, _ := postQuery(t, ts.URL, ts.Client(), `{"filters": [{"a":"a0"}]}`); code != http.StatusOK {
		t.Fatalf("query returned %d", code)
	}

	forbidden := map[reflect.Type]bool{
		reflect.TypeOf(dataset.Database{}): true,
		reflect.TypeOf([]dataset.Record{}): true,
	}
	visited := map[reflect.Type]bool{}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		if visited[ty] {
			return
		}
		visited[ty] = true
		if forbidden[ty] {
			t.Fatalf("record storage type %v reachable at %s", ty, path)
		}
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
			walk(ty.Elem(), path+"/*")
		case reflect.Map:
			walk(ty.Key(), path+"/key")
			walk(ty.Elem(), path+"/val")
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		}
	}
	// atomic.Pointer[T] keeps T reachable through a [0]*T field, so the
	// counter is covered by the Server walk too; walking the live
	// counter's dynamic type as well makes that explicit.
	walk(reflect.TypeOf(srv).Elem(), "Server")
	walk(reflect.TypeOf(srv.ctr()).Elem(), "ShardedGammaCounter")
}

// TestQueryMatchesSweepConsistency: all estimates of one batch come
// from one sweep, so even interleaved ingestion cannot make two
// estimates of a response disagree on N. (Sequential here; the
// concurrent version lives in the stress test.)
func TestQueryBatchSingleSweep(t *testing.T) {
	srv, ts := startServer(t, WithShards(3))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		if err := srv.ctr().Add(dataset.Record{rng.Intn(3), rng.Intn(2), rng.Intn(4)}); err != nil {
			t.Fatal(err)
		}
	}
	code, qr := postQuery(t, ts.URL, ts.Client(), `{"filters": [{"a":"a0"},{"b":"b1"},{"c":"c3"},{}]}`)
	if code != http.StatusOK {
		t.Fatalf("query returned %d", code)
	}
	for i, e := range qr.Estimates {
		if e.N != qr.Records {
			t.Fatalf("estimate %d has n %d, response records %d", i, e.N, qr.Records)
		}
	}
}
