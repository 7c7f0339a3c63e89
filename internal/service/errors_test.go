package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/mining"
)

// refusalCase is one documented refusal: a request and the status and
// words its answer must carry.
type refusalCase struct {
	name         string
	ts           *httptest.Server
	method, path string
	header       map[string]string
	body         string
	status       int
	words        string // "" for the mux's own plain-text refusals
}

// checkRefusals sends each case and checks its status, the words of
// its reason, and that only a malformed (400) or oversized (413)
// request is ever called invalid input.
func checkRefusals(t *testing.T, cases []refusalCase) {
	t.Helper()
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, tc.ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range tc.header {
			req.Header.Set(k, v)
		}
		resp, err := tc.ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
		if tc.status != http.StatusBadRequest && tc.status != http.StatusRequestEntityTooLarge &&
			strings.Contains(string(body), "invalid input") {
			t.Errorf("%s: a %d calls the request invalid input: %s", tc.name, tc.status, body)
		}
		if tc.words == "" {
			continue
		}
		var shape struct{ Error string }
		if err := json.Unmarshal(body, &shape); err != nil || !strings.Contains(shape.Error, tc.words) {
			t.Errorf("%s: reason %q (%v), want the error shape with %q", tc.name, body, err, tc.words)
		}
	}
}

// TestEveryDocumentedRefusal drives each refusal docs/http-api.md
// documents through a real server.
func TestEveryDocumentedRefusal(t *testing.T) {
	plainSrv, plain := startServer(t, WithMaxBody(1024), WithQueryLimit(4))
	maskSrv, mask := startServer(t, WithScheme("mask"))
	cutpasteSrv, cutpaste := startServer(t, WithScheme("cutpaste"))
	_, windowed := startServer(t, WithWindow(2, time.Minute))
	_, coordinator := startServer(t, WithPeers([]string{"http://127.0.0.1:1"}))
	closedSrv, closed := startServer(t)
	closedSrv.Close()

	// A server whose one mining worker is stuck on a job and whose job
	// queue is full.
	busySrv, busy := startServer(t)
	running, release := make(chan struct{}, 1), make(chan struct{})
	busySrv.jobs.close()
	busySrv.jobs = newJobStore(1, 0, func(MineParams) (*MineResponse, uint64, bool, error) {
		select {
		case running <- struct{}{}:
		default:
		}
		<-release
		return nil, 0, false, errServerClosed
	})
	t.Cleanup(func() { close(release) })
	stuck := MineParams{MinSupport: 0.5, Limit: 1}
	if _, err := busySrv.jobs.submit(stuck); err != nil {
		t.Fatal(err)
	}
	<-running
	for i := 0; i < jobQueueCapacity; i++ {
		if _, err := busySrv.jobs.submit(stuck); err != nil {
			t.Fatal(err)
		}
	}
	if err := wireClient(t, busy).SubmitBatch(wireRecords(busySrv.schema, 4, 1), rand.New(rand.NewSource(2))); err != nil {
		t.Fatal(err)
	}

	fp := map[string]string{"Content-Type": BatchContentTypeBinary, FingerprintHeader: plainSrv.scheme.Fingerprint()}
	maskFP := map[string]string{"Content-Type": BatchContentTypeBinary, FingerprintHeader: maskSrv.scheme.Fingerprint()}
	cutpasteFP := map[string]string{"Content-Type": BatchContentTypeBinary, FingerprintHeader: cutpasteSrv.scheme.Fingerprint()}
	boolBatch := func(bad ...mining.Item) string {
		return string(appendBinaryBatch(nil, [][]mining.Item{{{Attr: 0, Value: 0}}, bad}))
	}
	noFP := map[string]string{"Content-Type": BatchContentTypeBinary}
	foreignFP := map[string]string{"Content-Type": BatchContentTypeBinary, FingerprintHeader: "other"}
	tooLarge := `{"a":"` + strings.Repeat("x", 2048) + `"}`
	record := `{"a":"a0","b":"b0","c":"c0"}`
	const post, get = http.MethodPost, http.MethodGet
	checkRefusals(t, []refusalCase{
		// Error shape and body cap.
		{"wrong method", plain, get, "/v1/submit", nil, "", http.StatusMethodNotAllowed, ""},
		{"unknown path", plain, get, "/v1/nope", nil, "", http.StatusNotFound, ""},
		{"submit over the body cap", plain, post, "/v1/submit", nil, tooLarge, http.StatusRequestEntityTooLarge, "request body too large"},
		{"batch over the body cap", plain, post, "/v1/submit-batch", nil, "[" + tooLarge + "]", http.StatusRequestEntityTooLarge, "request body too large"},
		{"binary batch over the body cap", plain, post, "/v1/submit-batch", fp, "FRB1" + strings.Repeat("\x01", 2048), http.StatusRequestEntityTooLarge, "request body too large"},
		{"query over the body cap", plain, post, "/v1/query", nil, `{"filters":[` + tooLarge + `]}`, http.StatusRequestEntityTooLarge, "request body too large"},
		{"mine job over the body cap", plain, post, "/v1/mine-jobs", nil, `{"window":"` + strings.Repeat("x", 2048) + `"}`, http.StatusRequestEntityTooLarge, "request body too large"},

		// Submissions.
		{"submit bad JSON", plain, post, "/v1/submit", nil, "{nope", http.StatusBadRequest, "bad JSON"},
		{"submit unknown category", plain, post, "/v1/submit", nil, `{"a":"zz","b":"b0","c":"c0"}`, http.StatusBadRequest, `unknown category "zz"`},
		{"submit missing attribute", plain, post, "/v1/submit", nil, `{"a":"a0","b":"b0"}`, http.StatusBadRequest, "record has 2 attributes"},
		{"batch with one bad record", plain, post, "/v1/submit-batch", nil, "[" + record + `,{"a":"zz","b":"b0","c":"c0"}]`, http.StatusBadRequest, "record 1"},
		{"boolean submission in gamma form", mask, post, "/v1/submit", nil, `{"a":"a0"}`, http.StatusBadRequest, "must carry a category list"},
		{"boolean duplicate attribute", mask, post, "/v1/submit", nil, `{"a":["a0"],"a":["a1"]}`, http.StatusBadRequest, "duplicate attribute"},
		{"binary batch without fingerprint", plain, post, "/v1/submit-batch", noFP, "FRB1\x00", http.StatusBadRequest, "without " + FingerprintHeader},
		{"binary batch with a foreign fingerprint", plain, post, "/v1/submit-batch", foreignFP, "FRB1\x00", http.StatusBadRequest, "does not match the server contract"},
		{"binary batch without magic", plain, post, "/v1/submit-batch", fp, "XXXX\x00", http.StatusBadRequest, "magic"},
		{"binary batch count past the body", plain, post, "/v1/submit-batch", fp, "FRB1\x05\x00", http.StatusBadRequest, "records in a"},
		{"binary batch with trailing bytes", plain, post, "/v1/submit-batch", fp, "FRB1\x00\x00", http.StatusBadRequest, "trailing bytes"},
		{"binary record out of range", plain, post, "/v1/submit-batch", fp, "FRB1\x01\x03\x00\x09\x01\x00\x02\x00", http.StatusBadRequest, "out of range"},
		// Boolean binary records, refused in the counter's words; the
		// valid record before the bad one is not counted either.
		{"binary boolean attribute out of range", mask, post, "/v1/submit-batch", maskFP, boolBatch(mining.Item{Attr: 3, Value: 0}), http.StatusBadRequest,
			"mining: invalid input: record 1: core: invalid perturbation setup: attribute 3 out of range"},
		{"binary boolean value out of range", mask, post, "/v1/submit-batch", maskFP, boolBatch(mining.Item{Attr: 1, Value: 2}), http.StatusBadRequest,
			"mining: invalid input: record 1: core: invalid perturbation setup: value 2 out of range for attribute 1"},
		{"binary boolean duplicate item", mask, post, "/v1/submit-batch", maskFP, boolBatch(mining.Item{Attr: 0, Value: 1}, mining.Item{Attr: 0, Value: 1}), http.StatusBadRequest,
			"mining: invalid input: record 1: duplicate item (attr 0, value 1) in perturbed record"},
		{"binary C&P attribute out of range", cutpaste, post, "/v1/submit-batch", cutpasteFP, boolBatch(mining.Item{Attr: 3, Value: 0}), http.StatusBadRequest,
			"mining: invalid input: record 1: core: invalid perturbation setup: attribute 3 out of range"},
		{"binary C&P value out of range", cutpaste, post, "/v1/submit-batch", cutpasteFP, boolBatch(mining.Item{Attr: 1, Value: 2}), http.StatusBadRequest,
			"mining: invalid input: record 1: core: invalid perturbation setup: value 2 out of range for attribute 1"},
		{"binary C&P duplicate item", cutpaste, post, "/v1/submit-batch", cutpasteFP, boolBatch(mining.Item{Attr: 0, Value: 1}, mining.Item{Attr: 0, Value: 1}), http.StatusBadRequest,
			"mining: invalid input: record 1: duplicate item (attr 0, value 1) in perturbed record"},
		{"coordinator submit", coordinator, post, "/v1/submit", nil, record, http.StatusForbidden, "does not accept submissions"},
		{"coordinator batch", coordinator, post, "/v1/submit-batch", nil, "[" + record + "]", http.StatusForbidden, "does not accept submissions"},

		// Mining.
		{"mine empty collection", plain, get, "/v1/mine", nil, "", http.StatusConflict, "no submissions yet"},
		{"mine bad minsup", plain, get, "/v1/mine?minsup=x", nil, "", http.StatusBadRequest, "bad minsup"},
		{"mine minsup out of range", plain, get, "/v1/mine?minsup=2", nil, "", http.StatusBadRequest, "not in (0,1]"},
		{"mine window on a plain collection", plain, get, "/v1/mine?window=1m", nil, "", http.StatusBadRequest, "not windowed"},
		{"mine with a full queue", busy, get, "/v1/mine", nil, "", http.StatusServiceUnavailable, "job queue full"},
		{"mine job bad JSON", plain, post, "/v1/mine-jobs", nil, "{nope", http.StatusBadRequest, "bad JSON"},
		{"mine job bad minconf", plain, post, "/v1/mine-jobs", nil, `{"minconf":2}`, http.StatusBadRequest, "minconf"},
		{"mine job window on a plain collection", plain, post, "/v1/mine-jobs", nil, `{"window":"1m"}`, http.StatusBadRequest, "not windowed"},
		{"mine job with a full queue", busy, post, "/v1/mine-jobs", nil, "", http.StatusServiceUnavailable, "job queue full"},
		{"mine job on a closed server", closed, post, "/v1/mine-jobs", nil, "", http.StatusServiceUnavailable, "shutting down"},
		{"unknown mine job", plain, get, "/v1/mine-jobs/mj-999", nil, "", http.StatusNotFound, "unknown job"},

		// Queries.
		{"query bad JSON", plain, post, "/v1/query", nil, "{nope", http.StatusBadRequest, "bad JSON"},
		{"query empty batch", plain, post, "/v1/query", nil, `{"filters":[]}`, http.StatusBadRequest, "empty filter batch"},
		{"query over the filter limit", plain, post, "/v1/query", nil, `{"filters":[{},{},{},{},{}]}`, http.StatusBadRequest, "exceeds limit 4"},
		{"query unknown attribute", plain, post, "/v1/query", nil, `{"filters":[{"zz":"a0"}]}`, http.StatusBadRequest, `unknown attribute "zz"`},
		{"query unknown category", plain, post, "/v1/query", nil, `{"filters":[{"a":"zz"}]}`, http.StatusBadRequest, `unknown category "zz"`},
		{"query duplicate attribute", plain, post, "/v1/query", nil, `{"filters":[{"a":"a0","a":"a1"}]}`, http.StatusBadRequest, "duplicate attribute"},
		{"query empty collection", plain, post, "/v1/query", nil, `{"filters":[{}]}`, http.StatusConflict, "no submissions yet"},
		{"query window on a plain collection", plain, post, "/v1/query", nil, `{"filters":[{}],"window":"1m"}`, http.StatusBadRequest, "not windowed"},
		{"query bad window", windowed, post, "/v1/query", nil, `{"filters":[{}],"window":"argh"}`, http.StatusBadRequest, "bad window"},
		{"query negative window", windowed, post, "/v1/query", nil, `{"filters":[{}],"window":"-5m"}`, http.StatusBadRequest, "must be positive"},
		{"query empty window", windowed, post, "/v1/query", nil, `{"filters":[{}],"window":"1m"}`, http.StatusConflict, "no records in the last 1m"},

		// Replication.
		{"replicate bad since", plain, get, "/v1/replicate?since=x", nil, "", http.StatusBadRequest, "bad since"},
		{"replicate bad gen", plain, get, "/v1/replicate?gen=-1", nil, "", http.StatusBadRequest, "bad gen"},
		{"replicate a windowed collection", windowed, get, "/v1/replicate", nil, "", http.StatusConflict, "sliding window"},
	})
	if maskSrv.N() != 0 || cutpasteSrv.N() != 0 {
		t.Errorf("refused submissions counted: MASK N=%d, C&P N=%d", maskSrv.N(), cutpasteSrv.N())
	}
}

// TestStatusOfKinds: an error without a kind is a server fault, a
// kind tags a foreign error without changing its words, and a body past
// its limit is 413 although its decoder's refusal is tagged invalid.
func TestStatusOfKinds(t *testing.T) {
	foreign := errors.New("job queue full")
	tagged := fmt.Errorf("%w%w", foreign, ErrNotFound)
	if got := statusOf(foreign); got != http.StatusInternalServerError {
		t.Errorf("untagged error: %d, want 500", got)
	}
	if got := statusOf(tagged); got != http.StatusNotFound || tagged.Error() != foreign.Error() {
		t.Errorf("tagged error %q: %d, want 404 and the words %q", tagged, got, foreign)
	}
	tooLarge := fmt.Errorf("%w: bad JSON: %w", errInvalid, &http.MaxBytesError{Limit: 8})
	if got := statusOf(tooLarge); got != http.StatusRequestEntityTooLarge {
		t.Errorf("body past its limit: %d, want 413", got)
	}
}
