package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/telemetry"
)

// sentinel is a marker that must NEVER appear in telemetry output. The
// privacy test builds a schema whose every attribute and category name
// carries it, drives the full API, and then greps the metrics
// exposition and the access log for it.
const sentinel = "XSECRETX"

func sentinelSchema(tb testing.TB) *dataset.Schema {
	tb.Helper()
	s, err := dataset.NewSchema(sentinel+"schema", []dataset.Attribute{
		{Name: sentinel + "attrA", Categories: []string{sentinel + "a0", sentinel + "a1", sentinel + "a2"}},
		{Name: sentinel + "attrB", Categories: []string{sentinel + "b0", sentinel + "b1"}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// telemetryDo runs one request through the handler and returns the
// recorder — header map included so callers can also assert negatives.
func telemetryDo(t *testing.T, h http.Handler, method, target, contentType string, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestTelemetryNeverLeaksValues drives sentinel-named attributes and
// categories through every endpoint — valid and invalid requests, JSON
// and binary wire forms, mining jobs, queries — then asserts the
// sentinel is unreachable through the metrics exposition, the declared
// label vocabulary, and the access log. This is the FRAPP privacy
// contract applied to the ops plane: the miner-side telemetry may
// describe operations, never data.
func TestTelemetryNeverLeaksValues(t *testing.T) {
	reg := telemetry.NewRegistry()
	var logBuf bytes.Buffer
	logger := telemetry.NewAccessLogger(&logBuf, slog.LevelDebug)
	schema := sentinelSchema(t)
	srv, err := NewServer(schema, core.PrivacySpec{Rho1: 0.05, Rho2: 0.50},
		WithShards(2), WithTelemetry(reg), WithAccessLog(logger),
		WithCollectionLabel("tenant-a"))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	attrA, attrB := schema.Attrs[0].Name, schema.Attrs[1].Name
	rec := func(a, b int) []byte {
		j, _ := json.Marshal(map[string]string{
			attrA: schema.Attrs[0].Categories[a],
			attrB: schema.Attrs[1].Categories[b],
		})
		return j
	}
	// Valid traffic across every wire form and endpoint.
	telemetryDo(t, h, "GET", "/v1/schema", "", nil, nil)
	telemetryDo(t, h, "POST", "/v1/submit", "application/json", rec(1, 0), nil)
	batch := []byte("[" + string(rec(0, 1)) + "," + string(rec(2, 0)) + "]")
	telemetryDo(t, h, "POST", "/v1/submit-batch", "application/json", batch, nil)
	bin := appendBinaryBatch(nil, [][]mining.Item{
		{{Attr: 0, Value: 1}, {Attr: 1, Value: 1}},
		{{Attr: 0, Value: 2}, {Attr: 1, Value: 0}},
	})
	telemetryDo(t, h, "POST", "/v1/submit-batch", BatchContentTypeBinary, bin,
		map[string]string{FingerprintHeader: srv.CounterScheme().Fingerprint()})
	query, _ := json.Marshal(map[string]any{
		"filters": []map[string]string{{attrA: schema.Attrs[0].Categories[0]}},
	})
	telemetryDo(t, h, "POST", "/v1/query", "application/json", query, nil)
	telemetryDo(t, h, "GET", "/v1/mine?minsup=0.01", "", nil, nil)
	if w := telemetryDo(t, h, "POST", "/v1/mine-jobs", "application/json", []byte(`{"minsup":0.01}`), nil); w.Code != http.StatusAccepted {
		t.Fatalf("mine-jobs: %d %s", w.Code, w.Body)
	}
	telemetryDo(t, h, "GET", "/v1/mine-jobs", "", nil, nil)
	telemetryDo(t, h, "GET", "/v1/stats", "", nil, nil)
	// Error paths: unknown category, unknown attribute, bad JSON, a job
	// id carrying the sentinel in the URL path, and a failing mine.
	telemetryDo(t, h, "POST", "/v1/submit", "application/json",
		[]byte(`{"`+attrA+`":"`+sentinel+`bogus","`+attrB+`":"`+schema.Attrs[1].Categories[0]+`"}`), nil)
	telemetryDo(t, h, "POST", "/v1/submit", "application/json",
		[]byte(`{"`+sentinel+`nope":"x"}`), nil)
	telemetryDo(t, h, "POST", "/v1/submit", "application/json", []byte(`{broken`), nil)
	telemetryDo(t, h, "GET", "/v1/mine-jobs/"+sentinel+"-id", "", nil, nil)
	telemetryDo(t, h, "GET", "/v1/mine?minsup=99", "", nil, nil)

	// Let asynchronous job completion land before reading instruments.
	deadline := time.Now().Add(2 * time.Second)
	for srv.AprioriRuns() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	var expo bytes.Buffer
	if err := reg.WriteText(&expo); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(expo.String(), sentinel) {
		t.Errorf("metrics exposition leaks record vocabulary:\n%s", expo.String())
	}
	if _, err := telemetry.ParseExposition(expo.Bytes()); err != nil {
		t.Errorf("exposition unparseable: %v", err)
	}

	// Name-based vocabulary check: every label key must be in the known
	// set, and every label value must match that key's closed vocabulary.
	// A future metric whose labels step outside this list fails here
	// until it is reviewed and added.
	valuePattern := map[string]*regexp.Regexp{
		"route":      regexp.MustCompile(`^/v1/[a-z-]+(/\{id\})?$`),
		"code":       regexp.MustCompile(`^([1-5]xx|other)$`),
		"wire":       regexp.MustCompile(`^(json|binary|none)$`),
		"shard":      regexp.MustCompile(`^[0-9]+$`),
		"state":      regexp.MustCompile(`^(queued|running|done|failed)$`),
		"collection": regexp.MustCompile(`^[a-z0-9][a-z0-9_-]{0,63}$`),
	}
	sawCollection := false
	reg.EachSeries(func(name, typ string, labels []telemetry.Label) {
		for _, l := range labels {
			pat, ok := valuePattern[l.Key]
			if !ok {
				t.Errorf("metric %s: label key %q is not in the reviewed vocabulary", name, l.Key)
				continue
			}
			if !pat.MatchString(l.Value) {
				t.Errorf("metric %s: label %s=%q outside the closed vocabulary %v", name, l.Key, l.Value, pat)
			}
			if l.Key == "collection" {
				sawCollection = true
				if l.Value != "tenant-a" {
					t.Errorf("metric %s: collection=%q, want the registered name %q", name, l.Value, "tenant-a")
				}
			}
		}
	})
	if !sawCollection {
		t.Error("no metric series carries the collection label despite WithCollectionLabel")
	}

	logs := logBuf.String()
	if strings.Contains(logs, sentinel) {
		t.Errorf("access log leaks record vocabulary:\n%s", logs)
	}
	// Every access line must be valid JSON with only the fixed field set
	// — the log schema counterpart of the label-vocabulary check.
	allowedFields := map[string]bool{
		"ts": true, "level": true, "req": true, "method": true, "route": true,
		"collection": true, "status": true, "bytes": true, "dur": true, "msg": true,
	}
	lines := strings.Split(strings.TrimSpace(logs), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("no access log lines emitted")
	}
	for _, line := range lines {
		var fields map[string]any
		if err := json.Unmarshal([]byte(line), &fields); err != nil {
			t.Fatalf("unparseable access line %q: %v", line, err)
		}
		for k := range fields {
			if !allowedFields[k] {
				t.Errorf("access line carries unreviewed field %q: %s", k, line)
			}
		}
	}
}

// TestTelemetryMiddlewareRecords: the RED middleware must count
// requests under (route pattern, status class, wire form), time them,
// and the stats endpoint must report uptime.
func TestTelemetryMiddlewareRecords(t *testing.T) {
	reg := telemetry.NewRegistry()
	schema := wireSchema(t)
	srv, err := NewServer(schema, core.PrivacySpec{Rho1: 0.05, Rho2: 0.50},
		WithShards(2), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	telemetryDo(t, h, "GET", "/v1/stats", "", nil, nil)
	telemetryDo(t, h, "POST", "/v1/submit", "application/json",
		[]byte(`{"a":"a1","b":"b0","c":"c2"}`), nil)
	telemetryDo(t, h, "POST", "/v1/submit", "application/json", []byte(`{broken`), nil)
	w := telemetryDo(t, h, "GET", "/v1/stats", "", nil, nil)

	var stats StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.UptimeSeconds <= 0 {
		t.Errorf("uptime_seconds = %v, want > 0", stats.UptimeSeconds)
	}
	if stats.StartTime.IsZero() || time.Since(stats.StartTime) < 0 {
		t.Errorf("start_time = %v, want a past instant", stats.StartTime)
	}

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	expo, err := telemetry.ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("exposition unparseable: %v\n%s", err, buf.String())
	}
	for _, want := range []struct {
		labels map[string]string
		min    float64
	}{
		{map[string]string{"route": "/v1/stats", "code": "2xx", "wire": "none"}, 2},
		{map[string]string{"route": "/v1/submit", "code": "2xx", "wire": "json"}, 1},
		{map[string]string{"route": "/v1/submit", "code": "4xx", "wire": "json"}, 1},
	} {
		v, ok := expo.Value("frapp_http_requests_total", want.labels)
		if !ok || v < want.min {
			t.Errorf("frapp_http_requests_total%v = %v,%v want >= %v", want.labels, v, ok, want.min)
		}
	}
	if v, ok := expo.Value("frapp_http_request_duration_seconds_count",
		map[string]string{"route": "/v1/submit"}); !ok || v < 2 {
		t.Errorf("submit duration count = %v,%v want >= 2", v, ok)
	}
	var ingested float64
	for _, s := range expo.Samples {
		if s.Name == "frapp_ingest_records_total" {
			ingested += s.Value
		}
	}
	if ingested < 1 {
		t.Errorf("ingest records summed over shards = %v, want >= 1", ingested)
	}
	if v, ok := expo.Value("frapp_uptime_seconds", nil); !ok || v <= 0 {
		t.Errorf("uptime gauge = %v,%v want > 0", v, ok)
	}
	if missing := expo.CheckFamilies(reg.Families()); len(missing) > 0 {
		t.Errorf("scrape missing declared families: %v", missing)
	}

	// Nobody has pulled, so nothing is journaled; a replication pull
	// mints a token and the next record is journaled.
	journal := func() (entries, tokens float64) {
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		expo, err := telemetry.ParseExposition(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		entries, _ = expo.Value("frapp_replication_journal_entries", nil)
		tokens, _ = expo.Value("frapp_replication_tokens_retained", nil)
		return entries, tokens
	}
	if e, tk := journal(); e != 0 || tk != 0 {
		t.Errorf("journal gauges before any pull: %v entries, %v tokens, want 0, 0", e, tk)
	}
	if w := telemetryDo(t, h, "GET", "/v1/replicate?since=0", "", nil, nil); w.Code != http.StatusOK {
		t.Fatalf("replicate: %d %s", w.Code, w.Body)
	}
	telemetryDo(t, h, "POST", "/v1/submit", "application/json",
		[]byte(`{"a":"a0","b":"b1","c":"c0"}`), nil)
	if e, tk := journal(); e != 1 || tk != 1 {
		t.Errorf("journal gauges after a pull and a submit: %v entries, %v tokens, want 1, 1", e, tk)
	}
}

// TestHandlerBuiltOnce: the registry asks a server for its handler on
// every routed request, so Handler must return the one handler its
// first call built — and register the route histograms then, not when
// the server is constructed.
func TestHandlerBuiltOnce(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, err := NewServer(wireSchema(t), core.PrivacySpec{Rho1: 0.05, Rho2: 0.50},
		WithShards(2), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, f := range reg.Families() {
		if f == "frapp_http_request_duration_seconds" {
			t.Fatal("route histograms registered before the first Handler call")
		}
	}
	if h := srv.Handler(); h != srv.Handler() {
		t.Fatal("two Handler calls returned different handlers")
	}
}

// nullWriter is a reusable ResponseWriter for alloc measurements: the
// header map is allocated once and response bytes are discarded.
type nullWriter struct {
	hdr http.Header
}

func (n *nullWriter) Header() http.Header         { return n.hdr }
func (n *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (n *nullWriter) WriteHeader(int)             {}

// TestTelemetryIngestAllocs: enabling telemetry (middleware + ingest
// observer) must add at most one allocation per binary batch over the
// uninstrumented path — the observer and the middleware are designed to
// be allocation-free, so the whole ops plane can stay on by default.
func TestTelemetryIngestAllocs(t *testing.T) {
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

	measure := func(opts ...Option) float64 {
		srv, err := NewServer(schema, core.PrivacySpec{Rho1: 0.05, Rho2: 0.50},
			append([]Option{WithShards(4)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		h := srv.Handler()
		fp := srv.CounterScheme().Fingerprint()
		rd := bytes.NewReader(body)
		req := httptest.NewRequest("POST", "/v1/submit-batch", io.NopCloser(rd))
		req.Header.Set("Content-Type", BatchContentTypeBinary)
		req.Header.Set(FingerprintHeader, fp)
		w := &nullWriter{hdr: make(http.Header)}
		run := func() {
			rd.Reset(body)
			req.Body = io.NopCloser(rd)
			h.ServeHTTP(w, req)
		}
		// Warm the pools (batch scratch, status writers) to steady state.
		for i := 0; i < 4; i++ {
			run()
		}
		return testing.AllocsPerRun(100, run)
	}

	base := measure()
	instrumented := measure(WithTelemetry(telemetry.NewRegistry()))
	t.Logf("allocs/batch: base=%.1f instrumented=%.1f", base, instrumented)
	if instrumented > base+1 {
		t.Errorf("telemetry adds %.1f allocs/batch (base %.1f, instrumented %.1f), want <= 1",
			instrumented-base, base, instrumented)
	}
}
