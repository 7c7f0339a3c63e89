package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/federation"
	"repro/internal/mining"
)

// Client is the user-side library: it fetches the published schema and
// privacy contract, validates the advertised perturbation scheme against
// that contract, rebuilds the scheme locally, and perturbs every record
// on the client before anything is transmitted — the FRAPP trust model
// in which users "trust no one except themselves". The client does not
// take the server's word for the scheme parameters: it derives the
// whole scheme from the published (schema, γ) through the server's own
// derivation (mining.SchemeForContract) and refuses to submit unless
// the advertised parameters are exactly the derived ones.
type Client struct {
	base   string
	http   *http.Client
	schema *dataset.Schema
	scheme string
	gamma  float64
	// perturber is set for the gamma scheme; mask/cutpaste for the
	// boolean schemes (exactly one of the three is non-nil).
	perturber core.Perturber
	mask      *core.MaskScheme
	cutpaste  *core.CutPasteScheme
	// fingerprint is the scheme compatibility fingerprint computed
	// LOCALLY from the verified contract — sent with binary batches so
	// the server can prove both sides count under the same parameters.
	fingerprint string
}

// ClientOption configures a Client.
type ClientOption func(*clientConfig)

type clientConfig struct {
	httpClient    *http.Client
	randomization float64
}

// WithHTTPClient substitutes the transport (tests use the httptest
// server's client).
func WithHTTPClient(h *http.Client) ClientOption {
	return func(c *clientConfig) { c.httpClient = h }
}

// WithClientRandomization enables RAN-GD perturbation with amplitude
// fraction·γx, giving the client privacy beyond the published contract.
func WithClientRandomization(fraction float64) ClientOption {
	return func(c *clientConfig) { c.randomization = fraction }
}

// NewClient contacts the server, verifies the contract, and prepares the
// local perturber.
func NewClient(baseURL string, opts ...ClientOption) (*Client, error) {
	cfg := clientConfig{httpClient: http.DefaultClient}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.randomization < 0 || cfg.randomization > 1 {
		return nil, fmt.Errorf("%w: randomization fraction %v", ErrService, cfg.randomization)
	}
	c := &Client{base: baseURL, http: cfg.httpClient}
	var sr SchemaResponse
	if err := c.call(http.MethodGet, "/v1/schema", nil, nil, http.StatusOK, "schema fetch", &sr); err != nil {
		return nil, err
	}
	attrs := make([]dataset.Attribute, len(sr.Attributes))
	for i, a := range sr.Attributes {
		attrs[i] = dataset.Attribute{Name: a.Name, Categories: a.Categories}
	}
	schema, err := dataset.NewSchema(sr.Name, attrs)
	if err != nil {
		return nil, err
	}
	// Rebuild the contract locally — the client does not take the
	// server's word for the perturbation parameters.
	spec := core.PrivacySpec{Rho1: sr.Privacy.Rho1, Rho2: sr.Privacy.Rho2}
	gamma, err := spec.Gamma()
	if err != nil {
		return nil, err
	}
	c.schema, c.gamma = schema, gamma
	// Responses from pre-scheme servers carry no scheme block; that is
	// the gamma default.
	advertised := sr.Scheme
	if advertised.Name == "" {
		advertised.Name = mining.SchemeGamma
	}
	c.scheme = advertised.Name
	if cfg.randomization > 0 && c.scheme != mining.SchemeGamma {
		return nil, fmt.Errorf("%w: client-side randomization is a gamma-scheme extension, server runs %q", ErrService, c.scheme)
	}
	// Derive the scheme from (schema, γ) exactly as the server does; an
	// advertisement with any other parameters is refused.
	scheme, err := mining.SchemeForContract(c.scheme, schema, gamma)
	if err != nil {
		return nil, fmt.Errorf("%w: server runs an unsupported contract: %w", ErrService, err)
	}
	if derived := schemeJSON(scheme); advertised != derived {
		return nil, fmt.Errorf("%w: advertised scheme %+v differs from %+v, derived from the published gamma=%g",
			ErrService, advertised, derived, gamma)
	}
	c.fingerprint = scheme.Fingerprint()
	switch sc := scheme.(type) {
	case *mining.GammaScheme:
		matrix := sc.Matrix()
		if cfg.randomization > 0 {
			c.perturber, err = core.NewRandomizedGammaPerturber(schema, matrix, cfg.randomization*matrix.Diag)
		} else {
			c.perturber, err = core.NewGammaPerturber(schema, matrix)
		}
		if err != nil {
			return nil, err
		}
	case *mining.MaskCounterScheme:
		c.mask = sc.Mask()
	case *mining.CutPasteCounterScheme:
		c.cutpaste = sc.CutPaste()
	}
	return c, nil
}

// Scheme returns the negotiated perturbation scheme.
func (c *Client) Scheme() string { return c.scheme }

// Fingerprint returns the scheme compatibility fingerprint the client
// derived from the verified contract.
func (c *Client) Fingerprint() string { return c.fingerprint }

// Schema returns the schema fetched from the server.
func (c *Client) Schema() *dataset.Schema { return c.schema }

// Gamma returns the amplification bound of the published contract.
func (c *Client) Gamma() float64 { return c.gamma }

// perturbItems perturbs one record under the negotiated scheme and
// returns it as an (attr, value) index list — what the binary wire form
// carries, and what wireRecord renders as JSON.
func (c *Client) perturbItems(rec dataset.Record, rng *rand.Rand) ([]mining.Item, error) {
	switch {
	case c.perturber != nil:
		perturbed, err := c.perturber.Perturb(rec, rng)
		if err != nil {
			return nil, err
		}
		items := make([]mining.Item, len(perturbed))
		for j, v := range perturbed {
			items[j] = mining.Item{Attr: j, Value: v}
		}
		return items, nil
	case c.mask != nil:
		row, err := c.mask.PerturbRecord(rec, rng)
		if err != nil {
			return nil, err
		}
		return c.rowItems(c.mask.Mapping, row), nil
	default:
		row, err := c.cutpaste.PerturbRecord(rec, rng)
		if err != nil {
			return nil, err
		}
		return c.rowItems(c.cutpaste.Mapping, row), nil
	}
}

// rowItems unpacks a perturbed boolean row into (attr, value) items, one
// per set bit, in one allocation.
func (c *Client) rowItems(m *core.BoolMapping, row uint64) []mining.Item {
	items := make([]mining.Item, 0, bits.OnesCount64(row))
	for j, a := range c.schema.Attrs {
		for v := 0; v < a.Cardinality(); v++ {
			if row&(1<<uint(m.Offsets[j]+v)) != 0 {
				items = append(items, mining.Item{Attr: j, Value: v})
			}
		}
	}
	return items
}

// wireRecord renders a perturbed item list in the scheme's JSON wire
// form: RecordJSON for gamma (one item per attribute), BoolRecordJSON
// for the boolean schemes (attributes with no asserted category are
// omitted; categories keep the items' ascending order).
func (c *Client) wireRecord(items []mining.Item) any {
	if c.perturber != nil {
		out := make(RecordJSON, len(items))
		for _, it := range items {
			a := c.schema.Attrs[it.Attr]
			out[a.Name] = a.Categories[it.Value]
		}
		return out
	}
	out := make(BoolRecordJSON)
	for _, it := range items {
		a := c.schema.Attrs[it.Attr]
		out[a.Name] = append(out[a.Name], a.Categories[it.Value])
	}
	return out
}

// Submit perturbs rec locally and sends only the distorted record.
func (c *Client) Submit(rec dataset.Record, rng *rand.Rand) error {
	items, err := c.perturbItems(rec, rng)
	if err != nil {
		return err
	}
	body, err := json.Marshal(c.wireRecord(items))
	if err != nil {
		return err
	}
	return c.call(http.MethodPost, "/v1/submit", body, jsonContent, http.StatusAccepted, "submit", nil)
}

// SubmitBatch perturbs and submits many records in one request.
func (c *Client) SubmitBatch(recs []dataset.Record, rng *rand.Rand) error {
	p, err := c.PrepareBatch(recs, rng)
	if err != nil {
		return err
	}
	return c.SubmitPrepared(p)
}

// PreparedBatch is a batch of locally perturbed records already encoded
// into its wire body. Preparation (perturbation + JSON encoding) is the
// CPU-heavy client-side half of a batched submission; splitting it from
// the transmission lets callers do it off the latency path — the load
// harness (internal/loadgen) prepares its whole synthetic population
// up front so that open-loop submit latencies measure the server, not
// the generator.
type PreparedBatch struct {
	body []byte
	n    int
	// contentType and fingerprint carry the wire negotiation: the body's
	// media type and, for binary bodies, the scheme fingerprint header.
	contentType string
	fingerprint string
}

// Len returns the number of records in the prepared batch.
func (p *PreparedBatch) Len() int { return p.n }

// WireSize returns the encoded body size in bytes.
func (p *PreparedBatch) WireSize() int { return len(p.body) }

// Body returns the encoded wire body. Callers must treat it as
// read-only — the same bytes back every prepared transmission.
func (p *PreparedBatch) Body() []byte { return p.body }

// ContentType returns the media type the body must be posted under.
func (p *PreparedBatch) ContentType() string { return p.contentType }

// Fingerprint returns the scheme fingerprint a binary submission
// carries in the FingerprintHeader ("" for JSON bodies).
func (p *PreparedBatch) Fingerprint() string { return p.fingerprint }

// Wire names for PrepareBatchWire and the load harness's -wire flag.
const (
	WireJSON   = "json"
	WireBinary = "binary"
)

// PrepareBatch perturbs recs under the negotiated scheme and encodes
// the result as one reusable JSON submit-batch body. The perturbation
// is drawn now, from rng — submitting the same prepared batch twice
// sends the same perturbed records twice.
func (c *Client) PrepareBatch(recs []dataset.Record, rng *rand.Rand) (*PreparedBatch, error) {
	return c.PrepareBatchWire(recs, rng, WireJSON)
}

// PrepareBatchWire is PrepareBatch with an explicit wire form: "json"
// (or "") for the self-describing category-name encoding, "binary" for
// the compact index encoding the server's pooled fast path decodes.
func (c *Client) PrepareBatchWire(recs []dataset.Record, rng *rand.Rand, wire string) (*PreparedBatch, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrService)
	}
	if wire != WireJSON && wire != "" && wire != WireBinary {
		return nil, fmt.Errorf("%w: unknown wire form %q (want %q or %q)", ErrService, wire, WireJSON, WireBinary)
	}
	records := make([][]mining.Item, len(recs))
	for i, rec := range recs {
		items, err := c.perturbItems(rec, rng)
		if err != nil {
			return nil, err
		}
		records[i] = items
	}
	if wire == WireBinary {
		return &PreparedBatch{
			body:        appendBinaryBatch(nil, records),
			n:           len(recs),
			contentType: BatchContentTypeBinary,
			fingerprint: c.fingerprint,
		}, nil
	}
	batch := make([]any, len(records))
	for i, items := range records {
		batch[i] = c.wireRecord(items)
	}
	body, err := json.Marshal(batch)
	if err != nil {
		return nil, err
	}
	return &PreparedBatch{body: body, n: len(recs), contentType: BatchContentTypeJSON}, nil
}

// SubmitPrepared transmits a prepared batch.
func (c *Client) SubmitPrepared(p *PreparedBatch) error {
	header := http.Header{"Content-Type": {p.contentType}}
	if p.fingerprint != "" {
		header.Set(FingerprintHeader, p.fingerprint)
	}
	return c.call(http.MethodPost, "/v1/submit-batch", p.body, header, http.StatusAccepted, "batch submit", nil)
}

// Mine queries the server's reconstructed mining model synchronously
// (the server runs the request through its job pool and awaits it).
func (c *Client) Mine(minsup, minconf float64, limit int) (*MineResponse, error) {
	path := fmt.Sprintf("/v1/mine?minsup=%g&minconf=%g&limit=%d", minsup, minconf, limit)
	var mr MineResponse
	if err := c.call(http.MethodGet, path, nil, nil, http.StatusOK, "mine", &mr); err != nil {
		return nil, err
	}
	return &mr, nil
}

// ErrBusy marks server backpressure: the request was well-formed but
// the server refused to take on the work right now (a full mine-job
// queue answering 503). Callers generating load distinguish this from
// hard failures — backpressure under overload is the server working as
// designed, not an error in either party. Only SubmitMineJob returns
// it; a 503 on any other call is a failure.
var ErrBusy = errors.New("service: server busy")

// SubmitMineJob enqueues an asynchronous mining job and returns its
// initial (queued) state. Poll with MineJob or block with AwaitMineJob.
// A full job queue returns an error wrapping ErrBusy.
func (c *Client) SubmitMineJob(p MineParams) (*JobResponse, error) {
	body, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	var jr JobResponse
	err = c.call(http.MethodPost, "/v1/mine-jobs", body, jsonContent, http.StatusAccepted, "mine-job submit", &jr)
	if se := (*statusError)(nil); errors.As(err, &se) && se.code == http.StatusServiceUnavailable {
		return nil, fmt.Errorf("%w: %w", ErrBusy, err)
	}
	if err != nil {
		return nil, err
	}
	return &jr, nil
}

// MineJob polls one job by id; done jobs include the full result.
func (c *Client) MineJob(id string) (*JobResponse, error) {
	var jr JobResponse
	if err := c.call(http.MethodGet, "/v1/mine-jobs/"+url.PathEscape(id), nil, nil, http.StatusOK, "mine-job "+id, &jr); err != nil {
		return nil, err
	}
	return &jr, nil
}

// MineJobs lists all retained jobs (without result payloads).
func (c *Client) MineJobs() ([]JobResponse, error) {
	var jrs []JobResponse
	if err := c.call(http.MethodGet, "/v1/mine-jobs", nil, nil, http.StatusOK, "mine-job list", &jrs); err != nil {
		return nil, err
	}
	return jrs, nil
}

// AwaitMineJob polls a job until it reaches a terminal state. A done
// job is returned with its result; a failed job returns the server's
// error. The poll interval defaults to 50ms when non-positive.
func (c *Client) AwaitMineJob(ctx context.Context, id string, poll time.Duration) (*JobResponse, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		jr, err := c.MineJob(id)
		if err != nil {
			return nil, err
		}
		switch jr.State {
		case JobDone:
			return jr, nil
		case JobFailed:
			return jr, fmt.Errorf("%w: job %s failed: %s", ErrService, id, jr.Error)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// MineAsync is the submit-then-await convenience: it enqueues a job and
// polls it to completion, returning the mining result.
func (c *Client) MineAsync(ctx context.Context, p MineParams) (*MineResponse, error) {
	jr, err := c.SubmitMineJob(p)
	if err != nil {
		return nil, err
	}
	done, err := c.AwaitMineJob(ctx, jr.ID, 0)
	if err != nil {
		return nil, err
	}
	return done.Result, nil
}

// QueryAll answers a batch of filter-count queries with reconstructed
// estimates and 95% confidence intervals. Each filter is a conjunction
// of attribute=category conditions; the empty filter matches every
// record. Estimates come in filter order, all based on the same record
// count, and the response carries the snapshot version it is exact for.
func (c *Client) QueryAll(filters []QueryFilter) (*QueryResponse, error) {
	return c.QueryWindow(filters, "")
}

// QueryWindow is QueryAll restricted to the records of the last window
// of wall-clock time (a Go duration string, e.g. "24h"), rounded up to
// whole ring buckets. Only windowed collections accept a non-empty
// window; the empty string queries the full collection.
func (c *Client) QueryWindow(filters []QueryFilter, window string) (*QueryResponse, error) {
	// Marshaled directly rather than through QueryRequest: the raw
	// message indirection there exists for the server's duplicate-key
	// detection, which string-keyed maps cannot trip.
	body, err := json.Marshal(struct {
		Filters []QueryFilter `json:"filters"`
		Window  string        `json:"window,omitempty"`
	}{Filters: filters, Window: window})
	if err != nil {
		return nil, err
	}
	var qr QueryResponse
	if err := c.call(http.MethodPost, "/v1/query", body, jsonContent, http.StatusOK, "query", &qr); err != nil {
		return nil, err
	}
	if len(qr.Estimates) != len(filters) {
		return nil, fmt.Errorf("%w: query returned %d estimates for %d filters", ErrService, len(qr.Estimates), len(filters))
	}
	return &qr, nil
}

// Query is the single-filter convenience over QueryAll.
func (c *Client) Query(filter QueryFilter) (QueryEstimate, error) {
	qr, err := c.QueryAll([]QueryFilter{filter})
	if err != nil {
		return QueryEstimate{}, err
	}
	return qr.Estimates[0], nil
}

// FederationStats queries the federation health block of /v1/stats —
// per-peer sync state, lag, and the global version vector. Errors when
// the server is not a federation coordinator.
func (c *Client) FederationStats() (*federation.Stats, error) {
	sr, err := c.Stats()
	if err != nil {
		return nil, err
	}
	if sr.Federation == nil {
		return nil, fmt.Errorf("%w: server is not a federation coordinator", ErrService)
	}
	return sr.Federation, nil
}

// Stats queries the collection state.
func (c *Client) Stats() (*StatsResponse, error) {
	var sr StatsResponse
	if err := c.call(http.MethodGet, "/v1/stats", nil, nil, http.StatusOK, "stats", &sr); err != nil {
		return nil, err
	}
	return &sr, nil
}

// call is the client's one request path: it sends one request to
// c.base+path, checks the answer's status against want, and decodes a
// JSON answer into out (nil: none). Any other status is an error
// wrapping ErrService that names what was asked, the status and the
// server's reason: the "error" field of a JSON error body, or else the
// body's text, read up to maxReasonBytes.
func (c *Client) call(method, path string, body []byte, header http.Header, want int, what string, out any) error {
	resp, err := send(c.http, method, c.base+path, body, header)
	if err != nil {
		return fmt.Errorf("service: %s: %w", what, err)
	}
	defer drain(resp.Body)
	if resp.StatusCode != want {
		err := fmt.Errorf("%w: %s returned %s", ErrService, what, resp.Status)
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, maxReasonBytes))
		var e struct{ Error string }
		if json.Unmarshal(raw, &e) != nil || e.Error == "" {
			e.Error = strings.TrimSpace(string(raw))
		}
		if e.Error != "" {
			err = fmt.Errorf("%w: %s", err, e.Error)
		}
		return &statusError{code: resp.StatusCode, err: err}
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("%w: bad %s response: %v", ErrService, what, err)
		}
	}
	return nil
}

// maxReasonBytes caps how much of an error answer call reads.
const maxReasonBytes = 4 << 10

// statusError is call's error for an answer other than the wanted one.
type statusError struct {
	code int
	err  error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// jsonContent is the header of every JSON request body.
var jsonContent = http.Header{"Content-Type": {"application/json"}}

// maxRetryAfter caps the wait a 503's Retry-After may impose.
const maxRetryAfter = 5 * time.Second

// send issues one request (body nil for none), retrying exactly once
// when the server answers 503 with a Retry-After in seconds — a
// collection still recovering at boot — after the advertised wait,
// capped at maxRetryAfter. Any other answer, including a 503 without
// the header (backpressure such as a full job queue), is returned as is.
func send(hc *http.Client, method, url string, body []byte, header http.Header) (*http.Response, error) {
	for retried := false; ; retried = true {
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		for k, v := range header {
			req.Header[k] = v
		}
		resp, err := hc.Do(req)
		if err != nil || retried || resp.StatusCode != http.StatusServiceUnavailable {
			return resp, err
		}
		secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || secs < 0 {
			return resp, nil
		}
		drain(resp.Body)
		time.Sleep(min(time.Duration(secs)*time.Second, maxRetryAfter))
	}
}

func drain(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, body)
	_ = body.Close()
}
