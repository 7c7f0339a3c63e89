package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/service"
)

// TestEveryDocumentedRegistryRefusal drives each refusal
// docs/multitenancy.md documents through a real registry, checking the
// status, the words of the reason, and that only a malformed (400)
// request is ever called invalid input.
func TestEveryDocumentedRegistryRefusal(t *testing.T) {
	// reg holds the flag-configured default, a plain and a windowed
	// collection, and is then full.
	reg, ts := startRegistry(t, Options{MaxCollections: 3})
	schema, err := dataset.NewSchema(testSchemaSpec().Name, testSchemaSpec().Attrs)
	if err != nil {
		t.Fatal(err)
	}
	def, err := service.NewServer(schema, core.PrivacySpec{Rho1: 0.05, Rho2: 0.50})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(def.Close)
	if _, err := reg.Adopt(DefaultCollection, def); err != nil {
		t.Fatal(err)
	}
	putCollection(t, ts, "alpha", testSpec(), http.StatusCreated)
	win := testSpec()
	win.WindowBuckets, win.WindowBucket = 2, "1m"
	putCollection(t, ts, "win", win, http.StatusCreated)

	// bare has no default collection and has spent its lifetime name
	// budget (four names per collection slot).
	_, bare := startRegistry(t, Options{MaxCollections: 1})
	for i := range 4 {
		name := fmt.Sprintf("n%d", i)
		putCollection(t, bare, name, testSpec(), http.StatusCreated)
		if status, b := doJSON(t, bare, http.MethodDelete, "/v1/collections/"+name, nil); status != http.StatusNoContent {
			t.Fatalf("DELETE %s: %d (%s)", name, status, b)
		}
	}

	closedReg, closed := startRegistry(t, Options{})
	closedReg.Close()

	spec, err := json.Marshal(testSpec())
	if err != nil {
		t.Fatal(err)
	}

	// slow holds a collection whose build has not finished.
	slowReg, slow := startRegistry(t, Options{})
	started, gate := make(chan struct{}), make(chan struct{})
	slowReg.buildDelay = func(string) { close(started); <-gate }
	var building sync.WaitGroup
	building.Add(1)
	go func() {
		defer building.Done()
		req, err := http.NewRequest(http.MethodPut, slow.URL+"/v1/collections/slow", bytes.NewReader(spec))
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := slow.Client().Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Errorf("PUT slow: %d, want 201", resp.StatusCode)
		}
	}()
	t.Cleanup(building.Wait)
	t.Cleanup(func() { close(gate) })
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the slow build never started")
	}
	other := testSpec()
	other.Rho2 = 0.4
	otherSpec, err := json.Marshal(other)
	if err != nil {
		t.Fatal(err)
	}
	const put, get, del, post = http.MethodPut, http.MethodGet, http.MethodDelete, http.MethodPost
	for _, tc := range []struct {
		name         string
		ts           *httptest.Server
		method, path string
		body         string
		status       int
		words        string
	}{
		{"bad name", ts, put, "/v1/collections/UPPER", string(spec), http.StatusBadRequest, "bad collection name"},
		{"bad spec JSON", ts, put, "/v1/collections/raw", "{nope", http.StatusBadRequest, "bad spec JSON"},
		{"spec over the body cap", ts, put, "/v1/collections/huge", `{"schema":{"name":"` + strings.Repeat("x", 2<<20) + `"}}`, http.StatusRequestEntityTooLarge, "request body too large"},
		{"spec without schema", ts, put, "/v1/collections/noschema", `{"rho1":0.05,"rho2":0.5}`, http.StatusBadRequest, "spec has no schema"},
		{"bad privacy contract", ts, put, "/v1/collections/rho", strings.Replace(string(spec), `"rho1":0.05`, `"rho1":0.9`, 1), http.StatusBadRequest, "registry: "},
		{"different spec under a live name", ts, put, "/v1/collections/alpha", string(otherSpec), http.StatusConflict, "already exists with a different spec"},
		{"collection cap", ts, put, "/v1/collections/fourth", string(spec), http.StatusForbidden, "collection limit 3 reached"},
		{"name budget", bare, put, "/v1/collections/n4", string(spec), http.StatusForbidden, "name budget 4 exhausted"},
		{"PUT over the default", ts, put, "/v1/collections/" + DefaultCollection, string(spec), http.StatusConflict, "flag-configured"},
		{"DELETE the default", ts, del, "/v1/collections/" + DefaultCollection, "", http.StatusForbidden, "cannot be deleted"},
		{"DELETE an unknown collection", ts, del, "/v1/collections/ghost", "", http.StatusNotFound, `no collection "ghost"`},
		{"GET an unknown collection", ts, get, "/v1/collections/ghost", "", http.StatusNotFound, `no collection "ghost"`},
		{"data plane of an unknown collection", ts, get, "/v1/collections/ghost/v1/schema", "", http.StatusNotFound, `no collection "ghost"`},
		{"legacy route without a default", bare, get, "/v1/schema", "", http.StatusNotFound, "no default collection"},
		{"PUT while shutting down", closed, put, "/v1/collections/late", string(spec), http.StatusServiceUnavailable, "registry is closed"},
		{"data plane while recovering", slow, get, "/v1/collections/slow/v1/schema", "", http.StatusServiceUnavailable, "still recovering"},
		{"window on a plain collection", ts, post, "/v1/collections/alpha/query", `{"filters":[{}],"window":"1m"}`, http.StatusBadRequest, "not windowed"},
		{"empty collection", ts, post, "/v1/collections/alpha/query", `{"filters":[{}]}`, http.StatusConflict, "no submissions yet"},
		{"replicate a windowed collection", ts, get, "/v1/collections/win/v1/replicate", "", http.StatusConflict, "sliding window"},
	} {
		status, body := doJSON(t, tc.ts, tc.method, tc.path, []byte(tc.body))
		if status != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, status, tc.status, body)
		}
		if status != http.StatusBadRequest && strings.Contains(string(body), "invalid input") {
			t.Errorf("%s: a %d calls the request invalid input: %s", tc.name, status, body)
		}
		var shape struct{ Error string }
		if err := json.Unmarshal(body, &shape); err != nil || !strings.Contains(shape.Error, tc.words) {
			t.Errorf("%s: reason %q (%v), want the error shape with %q", tc.name, body, err, tc.words)
		}
	}
}

// TestConcurrentDeleteAnswers404: overlapping DELETEs of one freshly
// PUT collection answer 204 once and 404 otherwise, never 500, however
// the losers interleave with the winner. When the handler looked the
// collection up before deleting it, a few rounds in 3000 had a loser
// that found it, then lost the delete, and answered 500.
func TestConcurrentDeleteAnswers404(t *testing.T) {
	_, ts := startRegistry(t, Options{})
	const deleters = 8
	rounds := 3000
	if testing.Short() {
		rounds = 300
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: deleters}}
	defer client.CloseIdleConnections()
	del := func() (int, error) {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/collections/doomed", nil)
		if err != nil {
			return 0, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, err
	}
	for round := 0; round < rounds; round++ {
		putCollection(t, ts, "doomed", testSpec(), http.StatusCreated)
		statuses := make([]int, deleters)
		errs := make([]error, deleters)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range statuses {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				statuses[i], errs[i] = del()
			}()
		}
		close(start)
		wg.Wait()
		deleted := 0
		for i, status := range statuses {
			switch {
			case errs[i] != nil:
				t.Fatalf("round %d: DELETE: %v", round, errs[i])
			case status == http.StatusNoContent:
				deleted++
			case status != http.StatusNotFound:
				t.Errorf("round %d: DELETE answered %d, want 204 or 404", round, status)
			}
		}
		if deleted != 1 {
			t.Fatalf("round %d: %d DELETEs answered 204, want exactly 1 (%v)", round, deleted, statuses)
		}
	}
}
