package service

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mining"
)

// Binary wire form suite: JSON/binary equivalence per scheme, the
// fingerprint gate, request-size limits, over-HTTP batch atomicity,
// pooled-decode allocation bounds, and decoder fuzzing.

// wireSchema is serviceSchema for testing.TB callers (fuzz targets).
func wireSchema(tb testing.TB) *dataset.Schema {
	tb.Helper()
	s, err := dataset.NewSchema("svc", []dataset.Attribute{
		{Name: "a", Categories: []string{"a0", "a1", "a2"}},
		{Name: "b", Categories: []string{"b0", "b1"}},
		{Name: "c", Categories: []string{"c0", "c1", "c2", "c3"}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// wireRecords synthesizes deterministic unperturbed records.
func wireRecords(schema *dataset.Schema, n int, seed int64) []dataset.Record {
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

// wireProbes is a deterministic spread of count filters at arity 0..2.
func wireProbes(schema *dataset.Schema) []mining.Itemset {
	sets := []mining.Itemset{{}}
	for a, attr := range schema.Attrs {
		for v := 0; v < attr.Cardinality(); v++ {
			sets = append(sets, mining.Itemset{{Attr: a, Value: v}})
		}
	}
	sets = append(sets, mining.Itemset{{Attr: 0, Value: 1}, {Attr: 2, Value: 3}})
	return sets
}

func wireClient(t *testing.T, ts *httptest.Server) *Client {
	t.Helper()
	client, err := NewClient(ts.URL, WithHTTPClient(ts.Client()))
	if err != nil {
		t.Fatal(err)
	}
	return client
}

// TestBatchWireEquivalence: for every scheme, the same records prepared
// from identically seeded rngs in JSON and binary form must land two
// servers in bit-identical counter states — same count, same version,
// same perturbed supports. Also pins that the client's locally derived
// fingerprint matches the server contract, and that the binary body is
// actually smaller.
func TestBatchWireEquivalence(t *testing.T) {
	for _, scheme := range mining.SchemeNames() {
		t.Run(scheme, func(t *testing.T) {
			srvJSON, tsJSON := startServer(t, WithScheme(scheme), WithShards(3))
			srvBin, tsBin := startServer(t, WithScheme(scheme), WithShards(3))
			cJSON := wireClient(t, tsJSON)
			cBin := wireClient(t, tsBin)
			if got, want := cBin.Fingerprint(), srvBin.CounterScheme().Fingerprint(); got != want {
				t.Fatalf("client fingerprint %q, server contract %q", got, want)
			}
			recs := wireRecords(srvJSON.schema, 400, 301)
			var jsonBytes, binBytes int
			for lo := 0; lo < len(recs); lo += 50 {
				chunk := recs[lo : lo+50]
				// Identically seeded rngs draw identical perturbations, so
				// both servers ingest the same perturbed records.
				pJSON, err := cJSON.PrepareBatchWire(chunk, rand.New(rand.NewSource(int64(lo))), WireJSON)
				if err != nil {
					t.Fatal(err)
				}
				pBin, err := cBin.PrepareBatchWire(chunk, rand.New(rand.NewSource(int64(lo))), WireBinary)
				if err != nil {
					t.Fatal(err)
				}
				jsonBytes += pJSON.WireSize()
				binBytes += pBin.WireSize()
				if err := cJSON.SubmitPrepared(pJSON); err != nil {
					t.Fatal(err)
				}
				if err := cBin.SubmitPrepared(pBin); err != nil {
					t.Fatal(err)
				}
			}
			if srvJSON.N() != len(recs) || srvBin.N() != len(recs) {
				t.Fatalf("record counts: json server %d, binary server %d, want %d", srvJSON.N(), srvBin.N(), len(recs))
			}
			if srvJSON.SnapshotVersion() != srvBin.SnapshotVersion() {
				t.Fatalf("versions: json %d, binary %d", srvJSON.SnapshotVersion(), srvBin.SnapshotVersion())
			}
			probes := wireProbes(srvJSON.schema)
			supJSON, err := srvJSON.ctr().Supports(probes)
			if err != nil {
				t.Fatal(err)
			}
			supBin, err := srvBin.ctr().Supports(probes)
			if err != nil {
				t.Fatal(err)
			}
			estJSON, _, err := srvJSON.ctr().Estimates(probes)
			if err != nil {
				t.Fatal(err)
			}
			estBin, _, err := srvBin.ctr().Estimates(probes)
			if err != nil {
				t.Fatal(err)
			}
			for i := range probes {
				if supJSON[i] != supBin[i] {
					t.Errorf("probe %d: json support %g, binary support %g", i, supJSON[i], supBin[i])
				}
				if estJSON[i] != estBin[i] {
					t.Errorf("probe %d: json estimate %+v, binary estimate %+v", i, estJSON[i], estBin[i])
				}
			}
			if binBytes >= jsonBytes {
				t.Errorf("binary wire %d bytes not smaller than JSON %d bytes", binBytes, jsonBytes)
			}
		})
	}
}

// postBinary sends raw bytes as a binary batch with the given
// fingerprint header ("" = omit).
func postBinary(t *testing.T, ts *httptest.Server, fp string, body []byte) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/submit-batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", BatchContentTypeBinary)
	if fp != "" {
		req.Header.Set(FingerprintHeader, fp)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	drain(resp.Body)
	return resp.StatusCode
}

// TestBinaryBatchFingerprintGate: a binary submission without the
// fingerprint header, or with a foreign fingerprint, is a 400 — and
// nothing is counted.
func TestBinaryBatchFingerprintGate(t *testing.T) {
	srv, ts := startServer(t, WithShards(2))
	client := wireClient(t, ts)
	p, err := client.PrepareBatchWire(wireRecords(srv.schema, 10, 311), rand.New(rand.NewSource(311)), WireBinary)
	if err != nil {
		t.Fatal(err)
	}
	if code := postBinary(t, ts, "", p.Body()); code != http.StatusBadRequest {
		t.Errorf("missing fingerprint returned %d, want 400", code)
	}
	if code := postBinary(t, ts, "not-the-contract", p.Body()); code != http.StatusBadRequest {
		t.Errorf("foreign fingerprint returned %d, want 400", code)
	}
	if srv.N() != 0 {
		t.Fatalf("rejected submissions counted: N=%d", srv.N())
	}
	if code := postBinary(t, ts, p.Fingerprint(), p.Body()); code != http.StatusAccepted {
		t.Errorf("matching fingerprint returned %d, want 202", code)
	}
	if srv.N() != 10 {
		t.Fatalf("accepted batch counted %d records, want 10", srv.N())
	}
	// An empty batch is a no-op 202, same as the JSON form's [].
	if code := postBinary(t, ts, p.Fingerprint(), appendBinaryBatch(nil, nil)); code != http.StatusAccepted {
		t.Errorf("empty binary batch returned %d, want 202", code)
	}
	if srv.N() != 10 {
		t.Fatalf("empty batch changed the count to %d", srv.N())
	}
}

// TestMaxBodyLimits: every decoding POST endpoint answers 413 once the
// body exceeds the configured cap, and normal-size requests pass.
func TestMaxBodyLimits(t *testing.T) {
	srv, ts := startServer(t, WithMaxBody(512))
	// A valid JSON prefix long enough to trip the limit mid-decode on
	// every endpoint (an object whose first key never ends).
	big := `{"` + strings.Repeat("a", 2048)
	for _, ep := range []string{"/v1/submit", "/v1/submit-batch", "/v1/query", "/v1/mine-jobs"} {
		resp, err := ts.Client().Post(ts.URL+ep, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		drain(resp.Body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with %d-byte body returned %d, want 413", ep, len(big), resp.StatusCode)
		}
	}
	// Binary path: an oversized body trips the same limit.
	fp := srv.CounterScheme().Fingerprint()
	if code := postBinary(t, ts, fp, append([]byte(batchMagic), bytes.Repeat([]byte{1}, 2048)...)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized binary batch returned %d, want 413", code)
	}
	// A normal submission still fits.
	resp, err := ts.Client().Post(ts.URL+"/v1/submit", "application/json", strings.NewReader(`{"a":"a0","b":"b1","c":"c2"}`))
	if err != nil {
		t.Fatal(err)
	}
	drain(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("normal submit under the limit returned %d, want 202", resp.StatusCode)
	}
}

// TestBatchAtomicityOverHTTP is the end-to-end regression test for the
// partial-ingest bug: a batch whose middle record passes wire decode
// but fails counter validation must be a 400 with record count,
// snapshot version, and every support untouched — for both wire forms,
// for every scheme.
func TestBatchAtomicityOverHTTP(t *testing.T) {
	for _, scheme := range mining.SchemeNames() {
		t.Run(scheme, func(t *testing.T) {
			srv, ts := startServer(t, WithScheme(scheme), WithShards(3))
			client := wireClient(t, ts)
			recs := wireRecords(srv.schema, 60, 321)
			p, err := client.PrepareBatchWire(recs[:30], rand.New(rand.NewSource(321)), WireBinary)
			if err != nil {
				t.Fatal(err)
			}
			if err := client.SubmitPrepared(p); err != nil {
				t.Fatal(err)
			}
			probes := wireProbes(srv.schema)
			wantN, wantVer := srv.N(), srv.SnapshotVersion()
			wantSup, err := srv.ctr().Supports(probes)
			if err != nil {
				t.Fatal(err)
			}
			wantEst, _, err := srv.ctr().Estimates(probes)
			if err != nil {
				t.Fatal(err)
			}
			checkUnchanged := func(t *testing.T, what string) {
				t.Helper()
				if got := srv.N(); got != wantN {
					t.Errorf("%s: N=%d, want %d", what, got, wantN)
				}
				if got := srv.SnapshotVersion(); got != wantVer {
					t.Errorf("%s: version=%d, want %d", what, got, wantVer)
				}
				gotSup, err := srv.ctr().Supports(probes)
				if err != nil {
					t.Fatal(err)
				}
				gotEst, _, err := srv.ctr().Estimates(probes)
				if err != nil {
					t.Fatal(err)
				}
				for i := range probes {
					if gotSup[i] != wantSup[i] || gotEst[i] != wantEst[i] {
						t.Errorf("%s: probe %d support %g estimate %+v, want %g %+v", what, i, gotSup[i], gotEst[i], wantSup[i], wantEst[i])
					}
				}
			}
			// Binary: wire-decodable records, but record 15 carries a value
			// index no schema attribute has — decode accepts it, the
			// counter's validation pass must reject the whole batch.
			rng := rand.New(rand.NewSource(322))
			records := make([][]mining.Item, len(recs[30:]))
			for i, rec := range recs[30:] {
				items, err := client.perturbItems(rec, rng)
				if err != nil {
					t.Fatal(err)
				}
				records[i] = items
			}
			records[15] = []mining.Item{{Attr: 0, Value: 9999}, {Attr: 1, Value: 0}, {Attr: 2, Value: 0}}
			if code := postBinary(t, ts, client.Fingerprint(), appendBinaryBatch(nil, records)); code != http.StatusBadRequest {
				t.Fatalf("binary batch with invalid record returned %d, want 400", code)
			}
			checkUnchanged(t, "binary mid-batch rejection")
			// JSON: same shape — valid records around one the decoder
			// rejects (unknown category).
			var batch []json.RawMessage
			rng = rand.New(rand.NewSource(323))
			for _, rec := range recs[30:] {
				wire, err := client.perturbWire(rec, rng)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := json.Marshal(wire)
				if err != nil {
					t.Fatal(err)
				}
				batch = append(batch, raw)
			}
			if scheme == mining.SchemeGamma {
				batch[15] = json.RawMessage(`{"a":"nope","b":"b0","c":"c0"}`)
			} else {
				batch[15] = json.RawMessage(`{"a":["nope"]}`)
			}
			body, err := json.Marshal(batch)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := ts.Client().Post(ts.URL+"/v1/submit-batch", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			drain(resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("JSON batch with invalid record returned %d, want 400", resp.StatusCode)
			}
			checkUnchanged(t, "JSON mid-batch rejection")
		})
	}
}

// TestBinaryDecodeAllocs: the pooled decode path must allocate O(1)
// per batch in steady state, independent of the 256 records decoded.
func TestBinaryDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector bookkeeping allocates; alloc counts are meaningless under -race")
	}
	schema := wireSchema(t)
	recs := wireRecords(schema, 256, 331)
	records := make([][]mining.Item, len(recs))
	for i, rec := range recs {
		items := make([]mining.Item, len(rec))
		for j, v := range rec {
			items[j] = mining.Item{Attr: j, Value: v}
		}
		records[i] = items
	}
	body := appendBinaryBatch(nil, records)
	rd := bytes.NewReader(body)
	// Warm the pooled scratch to its steady-state capacity.
	for i := 0; i < 4; i++ {
		sc := batchPool.Get().(*batchScratch)
		rd.Reset(body)
		if _, err := sc.decode(rd); err != nil {
			t.Fatal(err)
		}
		sc.release()
	}
	allocs := testing.AllocsPerRun(100, func() {
		sc := batchPool.Get().(*batchScratch)
		rd.Reset(body)
		if _, err := sc.decode(rd); err != nil {
			t.Fatal(err)
		}
		sc.release()
	})
	if allocs > 2 {
		t.Errorf("pooled decode of %d records: %.1f allocs/batch, want <= 2", len(records), allocs)
	}
}

// FuzzSubmitBatchBinary: arbitrary bytes through the binary submit
// path must answer 202, 400, or 413 — never panic, never another
// status.
func FuzzSubmitBatchBinary(f *testing.F) {
	schema := wireSchema(f)
	srv, err := NewServer(schema, core.PrivacySpec{Rho1: 0.05, Rho2: 0.50}, WithShards(2), WithMaxBody(1<<16))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	handler := srv.Handler()
	fp := srv.CounterScheme().Fingerprint()
	valid := appendBinaryBatch(nil, [][]mining.Item{
		{{Attr: 0, Value: 1}, {Attr: 1, Value: 0}, {Attr: 2, Value: 3}},
		{{Attr: 0, Value: 2}, {Attr: 1, Value: 1}, {Attr: 2, Value: 0}},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte(batchMagic))
	f.Add([]byte("FRB1\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Add([]byte("not a batch"))
	f.Add(appendBinaryBatch(nil, nil))
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/submit-batch", bytes.NewReader(body))
		req.Header.Set("Content-Type", BatchContentTypeBinary)
		req.Header.Set(FingerprintHeader, fp)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("binary batch of %d bytes returned %d", len(body), rec.Code)
		}
	})
}
