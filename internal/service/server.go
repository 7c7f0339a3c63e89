// Package service provides a miner-side collection server and a
// client-side submission library for FRAPP deployments, realizing the
// paper's trust model over HTTP: each client perturbs its own record
// locally (the server publishes the schema and the privacy parameters)
// and submits only the distorted record; the server accumulates
// submissions and answers mining queries with reconstructed supports.
//
// Wire format: records travel as JSON objects mapping attribute names to
// category names, so submissions are human-readable and schema-checked.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/federation"
	"repro/internal/mining"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// errNoSubmissions refuses a read of a collection that holds no
// records, on the query and both mining paths.
var errNoSubmissions = fmt.Errorf("%w: no submissions yet", errConflict)

// Server is the miner-side endpoint. It never sees unperturbed data: it
// ingests whatever (already-perturbed) records clients submit into an
// incrementally materialized, lock-striped counter and answers mining
// queries through the published matrix without ever rescanning
// submissions. Concurrent submit handlers land on different counter
// shards, so ingestion scales with cores instead of serializing on one
// mutex.
//
// Mining is asynchronous: requests become jobs executed by a bounded
// worker pool over snapshot-versioned results, so heavy miner traffic is
// throttled to -mine-workers concurrent Apriori runs and repeated mines
// of an unchanged collection are served from cache (see jobs.go). The
// synchronous /v1/mine endpoint is a thin submit-and-await wrapper over
// the same pool.
type Server struct {
	schema *dataset.Schema
	spec   core.PrivacySpec
	gamma  float64
	// scheme is the negotiated perturbation contract this server counts
	// under — gamma (default), mask, or cutpaste. Every layer below
	// (counter, query estimates, mining cache keys, persistence,
	// federation fingerprints) flows from this one value, and it is
	// advertised on /v1/schema and /v1/stats so clients can validate it.
	scheme mining.CounterScheme
	// matrix is the gamma-diagonal matrix; set only when scheme is
	// gamma (the boolean schemes publish their own parameters).
	matrix core.UniformMatrix
	// counter is swapped wholesale by a coordinator's publish hook
	// (replaceCounter) while submit and mining handlers read it
	// concurrently, hence the atomic pointer.
	// The counter travels together with its cache generation so a
	// mining worker always sees a consistent (counter, generation) pair
	// — read separately, a worker could pair the NEW counter with the
	// OLD generation (or vice versa) around a swap and serve or
	// store a cache entry from the wrong counter's version line.
	counter atomic.Pointer[counterRef]
	jobs    *jobStore
	// queryLimit caps the filters of one /v1/query batch (see query.go).
	queryLimit int
	// maxBody caps the request body of every JSON/binary POST endpoint
	// via http.MaxBytesReader; oversized submissions answer 413.
	maxBody int64
	// fed, set by WithPeers, marks this server as a federation
	// coordinator (see replicate.go): its counter is the merged global
	// view published by the sync loop, and direct submissions are refused.
	fed *federation.Coordinator
	// store, when set, is the durable persistence backend (see store.go):
	// the counter was recovered from it at construction, a background
	// flusher appends deltas to its WAL, and checkpointEvery records
	// trigger compaction. storeMu serializes all store I/O (the flusher
	// loop and explicit FlushWAL/CheckpointNow calls).
	store           *store.FileStore
	storeMu         sync.Mutex
	checkpointEvery int
	persistStop     chan struct{}
	persistDone     chan struct{}
	closeOnce       sync.Once
	// window is the bucket ring of a sliding-window collection
	// (WithWindow), nil on any other server. It is also the server's
	// counter — never swapped, since a windowed collection cannot be
	// federated — and serves the `window` query/mine parameters.
	window *mining.WindowedCounter
	// start is when NewServer ran — the anchor for /v1/stats uptime and
	// the uptime gauge.
	start time.Time
	// met, when set (WithTelemetry), holds the operational instruments
	// and the middleware that records them; see telemetry.go.
	met *serverMetrics
	// handler is the HTTP API, built by the first Handler call: the
	// registry asks for it on every routed request.
	handlerOnce sync.Once
	handler     http.Handler
}

// counterRef pairs a counter with the cache generation it belongs to
// and — on a federation coordinator — the per-peer version vector the
// counter reflects. The three travel as one atomic unit so a response
// can never stamp a counter with another counter's provenance.
type counterRef struct {
	counter mining.LiveCounter
	gen     uint64
	vector  map[string]uint64
}

// Option configures a Server.
type Option func(*serverConfig)

type serverConfig struct {
	scheme          string
	shards          int
	mineWorkers     int
	jobTTL          time.Duration
	queryLimit      int
	maxBody         int64
	store           *store.FileStore
	checkpointEvery int
	walFlush        time.Duration
	metrics         *telemetry.Registry
	accessLog       *slog.Logger
	collection      string
	windowBuckets   int
	windowBucket    time.Duration
	peers           []string
	fedOpts         []federation.Option
}

// WithScheme selects the perturbation scheme the server counts under:
// "gamma" (the default and the paper's recommended scheme — the
// gamma-diagonal matrix minimizes the reconstruction condition number
// under the privacy bound), "mask", or "cutpaste". The scheme's
// parameters are derived from the published (schema, γ) contract, so
// clients can re-derive and verify them locally.
func WithScheme(name string) Option {
	return func(c *serverConfig) { c.scheme = name }
}

// WithShards sets the ingestion shard count. Values <= 0 (and the
// default) mean runtime.GOMAXPROCS(0) — one stripe per core.
func WithShards(n int) Option {
	return func(c *serverConfig) { c.shards = n }
}

// WithWindow makes the server's collection a sliding window: records
// expire after buckets × bucket of wall-clock time, maintained as a
// ring of time-bucketed sub-counters (see mining.WindowedCounter), and
// /v1/query and mining jobs accept a `window` duration parameter
// restricting the answer to the newest whole buckets. A windowed
// collection is in-memory only — it cannot combine with WithStore or
// WithPeers, because bucket expiry is wall-clock-defined and cannot be
// replayed or replicated.
func WithWindow(buckets int, bucket time.Duration) Option {
	return func(c *serverConfig) {
		c.windowBuckets = buckets
		c.windowBucket = bucket
	}
}

// defaultMaxBody is the default request-body cap: generous for real
// batches (a 10k-record binary batch over a wide schema is well under
// 1 MiB) while bounding what one request can make the server buffer.
const defaultMaxBody = 8 << 20

// WithMaxBody caps the request body size in bytes for every POST
// endpoint that decodes one (/v1/submit, /v1/submit-batch, /v1/query,
// /v1/mine-jobs). Oversized requests answer 413. Values <= 0 (and the
// default) mean 8 MiB.
func WithMaxBody(n int64) Option {
	return func(c *serverConfig) { c.maxBody = n }
}

// WithMineWorkers bounds the number of concurrently executing mining
// jobs. Values <= 0 (and the default) mean 2: mining is the most
// expensive operation in the system, and the worker pool is what keeps
// a burst of miners from starving ingestion of cores.
func WithMineWorkers(n int) Option {
	return func(c *serverConfig) { c.mineWorkers = n }
}

// WithJobTTL sets how long finished mining jobs remain pollable before
// eviction. Values <= 0 (and the default) mean 15 minutes.
func WithJobTTL(d time.Duration) Option {
	return func(c *serverConfig) { c.jobTTL = d }
}

// NewServer configures a server for one schema and privacy contract and
// starts its mining worker pool. It is the one place that checks the
// serving modes combine: WithStore, WithWindow and WithPeers exclude
// each other. Call Close when done with the server.
func NewServer(schema *dataset.Schema, spec core.PrivacySpec, opts ...Option) (*Server, error) {
	if schema == nil {
		return nil, fmt.Errorf("%w: nil schema", ErrService)
	}
	var cfg serverConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	gamma, err := spec.Gamma()
	if err != nil {
		return nil, err
	}
	scheme, err := mining.SchemeForContract(cfg.scheme, schema, gamma)
	if err != nil {
		return nil, err
	}
	var met *serverMetrics
	if cfg.metrics != nil {
		met = newServerMetrics(cfg.metrics, cfg.accessLog, cfg.collection)
	}
	windowed := cfg.windowBuckets != 0 || cfg.windowBucket != 0
	federated := len(cfg.peers) > 0
	switch {
	case windowed && cfg.store != nil:
		return nil, fmt.Errorf("%w: a windowed collection cannot be store-backed (bucket expiry is wall-clock-defined and cannot be replayed)", ErrService)
	case windowed && federated:
		return nil, fmt.Errorf("%w: a windowed collection cannot be federated (deltas cannot express bucket expiry)", ErrService)
	case federated && cfg.store != nil:
		return nil, fmt.Errorf("%w: a federation coordinator cannot be store-backed (its counter is rebuilt from its peers, which own the durable state)", ErrService)
	}
	// A store-backed server starts from its durable state — newest
	// checkpoint plus replayed WAL tail — instead of empty, and the
	// recovered counter carries its pre-crash replication identity so
	// federation pullers resume incrementally. A windowed server instead
	// builds the in-memory bucket ring.
	var (
		counter mining.LiveCounter
		window  *mining.WindowedCounter
	)
	if windowed {
		if window, err = mining.NewWindowedCounter(scheme, cfg.shards, cfg.windowBuckets, cfg.windowBucket); err != nil {
			return nil, err
		}
		counter = window
	} else if cfg.store != nil {
		// The observer must be installed before Recover so the recovery
		// outcome itself is observed.
		if met != nil {
			cfg.store.SetObserver(&met.storeObs)
		}
		recovered, err := cfg.store.Recover(scheme, cfg.shards)
		if err != nil {
			return nil, fmt.Errorf("recovering durable state: %w", err)
		}
		if recovered != nil {
			counter = recovered
		}
	}
	if counter == nil {
		counter, err = mining.NewShardedCounter(scheme, cfg.shards)
		if err != nil {
			return nil, err
		}
	}
	if cfg.store != nil {
		if err := cfg.store.Attach(counter.(*mining.ShardedCounter)); err != nil {
			return nil, fmt.Errorf("attaching durable store: %w", err)
		}
	}
	if cfg.queryLimit <= 0 {
		cfg.queryLimit = defaultQueryLimit
	}
	if cfg.maxBody <= 0 {
		cfg.maxBody = defaultMaxBody
	}
	s := &Server{schema: schema, spec: spec, gamma: gamma, scheme: scheme, queryLimit: cfg.queryLimit, maxBody: cfg.maxBody, window: window, start: time.Now(), met: met}
	if g, ok := scheme.(*mining.GammaScheme); ok {
		s.matrix = g.Matrix()
	}
	if federated {
		if s.fed, err = federation.NewCoordinator(scheme, cfg.peers, s.replaceCounter, cfg.fedOpts...); err != nil {
			return nil, err
		}
	}
	met.observeCounter(counter)
	s.counter.Store(&counterRef{counter: counter})
	s.jobs = newJobStore(cfg.mineWorkers, cfg.jobTTL, s.executeMine)
	if met != nil {
		s.jobs.setMetrics(&met.jobs)
		met.wireServer(s)
	}
	if cfg.store != nil {
		s.store = cfg.store
		s.checkpointEvery = cfg.checkpointEvery
		if s.checkpointEvery <= 0 {
			s.checkpointEvery = defaultCheckpointEvery
		}
		if cfg.walFlush <= 0 {
			cfg.walFlush = defaultWALFlushInterval
		}
		s.persistStop = make(chan struct{})
		s.persistDone = make(chan struct{})
		go s.persistLoop(cfg.walFlush)
	}
	return s, nil
}

// Close stops the mining worker pool, failing any still-queued jobs. On
// a coordinator it first stops the federation sync loop, so the counter
// stops moving. On a store-backed server it also stops the flusher,
// appends the pending WAL tail (best-effort — call FlushWAL or
// CheckpointNow first for error visibility), and closes the store.
// Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.fed != nil {
			s.fed.Close()
		}
		if s.store != nil {
			close(s.persistStop)
			<-s.persistDone
			s.storeMu.Lock()
			_ = s.store.Append()
			_ = s.store.Close()
			s.storeMu.Unlock()
		}
		s.jobs.close()
	})
}

// ctr returns the live counter.
func (s *Server) ctr() mining.LiveCounter { return s.counter.Load().counter }

// Scheme returns the name of the server's perturbation scheme.
func (s *Server) Scheme() string { return s.scheme.Name() }

// CounterScheme returns the server's full scheme contract — the one a
// WithPeers server's coordinator is built over, so its compatibility
// fingerprint can never drift from the server's own.
func (s *Server) CounterScheme() mining.CounterScheme { return s.scheme }

// Windowed reports whether this server's collection is a sliding
// window (WithWindow).
func (s *Server) Windowed() bool { return s.window != nil }

// WindowSpec returns the sliding-window ring geometry — (0, 0) on an
// unwindowed server.
func (s *Server) WindowSpec() (buckets int, bucket time.Duration) {
	if s.window == nil {
		return 0, 0
	}
	return s.window.WindowSpec()
}

// N returns the number of submissions received so far.
func (s *Server) N() int { return s.ctr().N() }

// Shards returns the ingestion shard count.
func (s *Server) Shards() int { return s.ctr().Shards() }

// SnapshotVersion returns the counter's current snapshot version.
func (s *Server) SnapshotVersion() uint64 { return s.ctr().Version() }

// CounterGeneration counts counter swaps: 0 at start, bumped by every
// merged counter a coordinator publishes. A swap replaces the counter
// object and RESTARTS its version line (at the new counter's own
// version), so two equal
// snapshot versions only imply equal counter content within one
// generation — which is why the generation travels in /v1/stats and
// /v1/query responses alongside the version.
func (s *Server) CounterGeneration() uint64 { return s.counter.Load().gen }

// MineWorkers returns the size of the mining worker pool.
func (s *Server) MineWorkers() int { return s.jobs.workers }

// AprioriRuns returns how many times a mining job actually executed
// Apriori (i.e. cache misses) — the observable the cache-correctness
// tests assert on.
func (s *Server) AprioriRuns() int64 { return s.jobs.runs.Load() }

// Handler returns the HTTP API, the same handler on every call. With
// telemetry enabled every route is wrapped in the RED-metrics/access-log
// middleware when the first call builds it, so the route label is
// always the registered pattern — never the raw URL.
func (s *Server) Handler() http.Handler {
	s.handlerOnce.Do(func() { s.handler = s.buildHandler() })
	return s.handler
}

func (s *Server) buildHandler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		if s.met != nil {
			h = s.met.wrap(pattern, h)
		}
		mux.HandleFunc(pattern, h)
	}
	handle("GET /v1/schema", s.handleSchema)
	handle("POST /v1/submit", s.handleSubmit)
	handle("POST /v1/submit-batch", s.handleSubmitBatch)
	handle("GET /v1/stats", s.handleStats)
	handle("GET /v1/mine", s.handleMine)
	handle("POST /v1/query", s.handleQuery)
	handle("POST /v1/mine-jobs", s.handleSubmitJob)
	handle("GET /v1/mine-jobs", s.handleListJobs)
	handle("GET /v1/mine-jobs/{id}", s.handleGetJob)
	handle("GET /v1/replicate", s.handleReplicate)
	return mux
}

// SchemaResponse is the published contract clients need to perturb
// locally: the full schema, the privacy parameters, and the active
// perturbation scheme with its derived parameters. Clients re-derive
// the scheme from (schema, γ) and verify the advertised parameters
// satisfy the privacy contract before submitting anything.
type SchemaResponse struct {
	Name       string          `json:"name"`
	Attributes []AttributeJSON `json:"attributes"`
	Privacy    PrivacyJSON     `json:"privacy"`
	Scheme     SchemeJSON      `json:"scheme"`
}

// SchemeJSON advertises the active perturbation scheme. An absent or
// empty name (responses from pre-scheme servers) means gamma.
type SchemeJSON struct {
	Name string `json:"name"`
	// MaskP is MASK's bit-retention probability (scheme "mask" only).
	MaskP float64 `json:"mask_p,omitempty"`
	// CutK and CutRho are the cut-and-paste operator parameters (scheme
	// "cutpaste" only).
	CutK   int     `json:"cut_k,omitempty"`
	CutRho float64 `json:"cut_rho,omitempty"`
}

// AttributeJSON is one attribute of the published schema.
type AttributeJSON struct {
	Name       string   `json:"name"`
	Categories []string `json:"categories"`
}

// PrivacyJSON carries the privacy contract.
type PrivacyJSON struct {
	Rho1  float64 `json:"rho1"`
	Rho2  float64 `json:"rho2"`
	Gamma float64 `json:"gamma"`
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	resp := SchemaResponse{
		Name:    s.schema.Name,
		Privacy: PrivacyJSON{Rho1: s.spec.Rho1, Rho2: s.spec.Rho2, Gamma: s.gamma},
		Scheme:  schemeJSON(s.scheme),
	}
	for _, a := range s.schema.Attrs {
		resp.Attributes = append(resp.Attributes, AttributeJSON{Name: a.Name, Categories: a.Categories})
	}
	writeJSON(w, http.StatusOK, resp)
}

// schemeJSON renders a scheme contract for the wire — the one renderer
// the server advertises with and the client checks advertisements
// against.
func schemeJSON(scheme mining.CounterScheme) SchemeJSON {
	out := SchemeJSON{Name: scheme.Name()}
	switch sc := scheme.(type) {
	case *mining.MaskCounterScheme:
		out.MaskP = sc.Mask().P
	case *mining.CutPasteCounterScheme:
		out.CutK = sc.CutPaste().K
		out.CutRho = sc.CutPaste().Rho
	}
	return out
}

// RecordJSON is the wire form of one gamma-perturbed record: attribute
// name → category. The gamma scheme perturbs within the categorical
// domain, so every submission is a complete record.
type RecordJSON map[string]string

// BoolRecordJSON is the wire form of one boolean-perturbed record (MASK
// and cut-and-paste): attribute name → list of asserted categories. A
// perturbed boolean record may assert zero, one, or several categories
// per attribute, and attributes may be absent entirely.
type BoolRecordJSON map[string][]string

// decodeRecord validates and converts a wire record.
func (s *Server) decodeRecord(rj RecordJSON) (dataset.Record, error) {
	if len(rj) != s.schema.M() {
		return nil, fmt.Errorf("%w: record has %d attributes, schema has %d", errInvalid, len(rj), s.schema.M())
	}
	rec := make(dataset.Record, s.schema.M())
	for j, a := range s.schema.Attrs {
		cat, ok := rj[a.Name]
		if !ok {
			return nil, fmt.Errorf("%w: missing attribute %q", errInvalid, a.Name)
		}
		v := a.CategoryIndex(cat)
		if v < 0 {
			return nil, fmt.Errorf("%w: unknown category %q for attribute %q", errInvalid, cat, a.Name)
		}
		rec[j] = v
	}
	return rec, nil
}

// walkAttrObject parses a JSON object keyed by attribute names token by
// token — encoding/json would silently keep only the last of two
// duplicate keys, and both decoders built on this (query filters and
// boolean submissions) must reject that collapse, not rewrite the
// request. visit is called once per entry with the resolved attribute
// index and the decoder positioned at the entry's value.
func (s *Server) walkAttrObject(raw json.RawMessage, kind string, visit func(attr int, name string, dec *json.Decoder) error) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	tok, err := dec.Token()
	if err != nil {
		return fmt.Errorf("%w: bad %s JSON: %v", errInvalid, kind, err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return fmt.Errorf("%w: %s must be an object keyed by attribute names", errInvalid, kind)
	}
	seen := make(map[int]bool)
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("%w: bad %s JSON: %v", errInvalid, kind, err)
		}
		name := keyTok.(string) // object keys are always strings
		j := s.attrIndex(name)
		if j < 0 {
			return fmt.Errorf("%w: unknown attribute %q", errInvalid, name)
		}
		if seen[j] {
			return fmt.Errorf("%w: duplicate attribute %q in %s", errInvalid, name, kind)
		}
		seen[j] = true
		if err := visit(j, name, dec); err != nil {
			return err
		}
	}
	if _, err := dec.Token(); err != nil { // consume the closing '}'
		return fmt.Errorf("%w: bad %s JSON: %v", errInvalid, kind, err)
	}
	return nil
}

// decodeBoolSubmission parses one boolean-scheme wire record through
// the duplicate-rejecting attribute walk: on the WRITE path a silently
// dropped category list corrupts the counts permanently, so a
// duplicate attribute is a 400, never a truncated ingest.
func (s *Server) decodeBoolSubmission(raw json.RawMessage) ([]mining.Item, error) {
	var items []mining.Item
	err := s.walkAttrObject(raw, "submission", func(j int, name string, dec *json.Decoder) error {
		var cats []string
		if err := dec.Decode(&cats); err != nil {
			return fmt.Errorf("%w: attribute %q must carry a category list: %v", errInvalid, name, err)
		}
		seenVal := make(map[int]bool, len(cats))
		for _, cat := range cats {
			v := s.schema.Attrs[j].CategoryIndex(cat)
			if v < 0 {
				return fmt.Errorf("%w: unknown category %q for attribute %q", errInvalid, cat, name)
			}
			if seenVal[v] {
				return fmt.Errorf("%w: duplicate category %q for attribute %q", errInvalid, cat, name)
			}
			seenVal[v] = true
			items = append(items, mining.Item{Attr: j, Value: v})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return items, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.fed != nil {
		WriteError(w, errFederated)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	var raw json.RawMessage
	if err := json.NewDecoder(r.Body).Decode(&raw); err != nil {
		WriteError(w, fmt.Errorf("%w: bad JSON: %w", errInvalid, err))
		return
	}
	items, err := s.decodeSubmissionItems(raw)
	if err == nil {
		err = s.ctr().Ingest(items)
	}
	if err != nil {
		// The counter refuses only records outside the schema.
		WriteError(w, fmt.Errorf("%w%w", err, ErrInvalid))
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]int{"records": s.N()})
}

// handleSubmitBatch ingests a batch of perturbed records atomically —
// all records or none, whichever wire form. Both paths decode the
// whole batch into item lists and hand them to the counter's
// IngestBatch, which validates every record before touching any shard:
// the atomicity guarantee is the counter's, not handler bookkeeping,
// so a record the decoder accepts but the counter rejects can no
// longer leave earlier records of the batch applied.
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	if s.fed != nil {
		WriteError(w, errFederated)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	if mediaType(r.Header.Get("Content-Type")) == BatchContentTypeBinary {
		s.handleSubmitBatchBinary(w, r)
		return
	}
	var batch []json.RawMessage
	if err := json.NewDecoder(r.Body).Decode(&batch); err != nil {
		WriteError(w, fmt.Errorf("%w: bad JSON: %w", errInvalid, err))
		return
	}
	records := make([][]mining.Item, len(batch))
	for i, raw := range batch {
		items, err := s.decodeSubmissionItems(raw)
		if err != nil {
			WriteError(w, fmt.Errorf("record %d: %w", i, err))
			return
		}
		records[i] = items
	}
	if err := s.ctr().IngestBatch(records); err != nil {
		WriteError(w, fmt.Errorf("%w%w", err, ErrInvalid))
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]int{"records": s.N()})
}

// handleSubmitBatchBinary is the binary fast path: fingerprint check,
// pooled zero-copy decode, one IngestBatch. The fingerprint header is
// mandatory here (unlike JSON, whose category names are self-checking
// against the schema): binary records are bare indexes, and indexes
// perturbed under a different contract would count silently wrong.
func (s *Server) handleSubmitBatchBinary(w http.ResponseWriter, r *http.Request) {
	fp := r.Header.Get(FingerprintHeader)
	if fp == "" {
		WriteError(w, fmt.Errorf("%w: binary batch without %s header", errInvalid, FingerprintHeader))
		return
	}
	if want := s.scheme.Fingerprint(); fp != want {
		WriteError(w, fmt.Errorf("%w: scheme fingerprint %q does not match the server contract %q", errInvalid, fp, want))
		return
	}
	scratch := batchPool.Get().(*batchScratch)
	defer scratch.release()
	records, err := scratch.decode(r.Body)
	if err == nil {
		err = s.ctr().IngestBatch(records)
	}
	if err != nil {
		WriteError(w, fmt.Errorf("%w%w", err, ErrInvalid))
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]int{"records": s.N()})
}

// decodeSubmissionItems converts one JSON wire submission into the
// item list Ingest and IngestBatch consume — the one JSON submission
// decoder of both submit routes: gamma submissions (complete records)
// become one item per attribute, boolean submissions decode through
// the duplicate-rejecting attribute walk.
func (s *Server) decodeSubmissionItems(raw json.RawMessage) ([]mining.Item, error) {
	if s.scheme.Name() == mining.SchemeGamma {
		var rj RecordJSON
		if err := json.Unmarshal(raw, &rj); err != nil {
			return nil, fmt.Errorf("%w: bad JSON: %v", errInvalid, err)
		}
		rec, err := s.decodeRecord(rj)
		if err != nil {
			return nil, err
		}
		items := make([]mining.Item, len(rec))
		for j, v := range rec {
			items[j] = mining.Item{Attr: j, Value: v}
		}
		return items, nil
	}
	return s.decodeBoolSubmission(raw)
}

// StatsResponse summarizes the collection state.
type StatsResponse struct {
	Records int     `json:"records"`
	Gamma   float64 `json:"gamma"`
	// Scheme is the active perturbation scheme (empty responses from
	// pre-scheme servers mean gamma); ConditionNumber is that scheme's
	// full-record reconstruction condition number — the paper's accuracy
	// figure of merit, directly comparable across schemes.
	Scheme          string  `json:"scheme"`
	ConditionNumber float64 `json:"condition_number"`
	DomainSize      int     `json:"domain_size"`
	Shards          int     `json:"shards"`
	// SnapshotVersion is the counter's current content version — mining
	// and query results stamped with the same version AND the same
	// counter generation are exact for this state.
	SnapshotVersion uint64 `json:"snapshot_version"`
	// CounterGeneration counts counter swaps; a swap restarts the
	// version line, so version comparisons are only meaningful within
	// one generation.
	CounterGeneration uint64 `json:"counter_generation"`
	// MineWorkers and MineRuns describe the mining pool: pool size and
	// the number of Apriori executions so far (cache hits excluded).
	MineWorkers int   `json:"mine_workers"`
	MineRuns    int64 `json:"mine_runs"`
	// UptimeSeconds is how long this server instance has been up;
	// StartTime is when it was constructed (RFC 3339). Together they let
	// a poller distinguish a restart (start time moved) from a counter
	// reset.
	UptimeSeconds float64   `json:"uptime_seconds"`
	StartTime     time.Time `json:"start_time"`
	// Federation, present only on a federation coordinator, carries the
	// per-peer health table and the version vector of the published
	// global counter (see replicate.go).
	Federation *federation.Stats `json:"federation,omitempty"`
}

// conditionNumber reports the active scheme's full-record (length-M)
// reconstruction condition number, the quantity the paper compares
// schemes by: the gamma-diagonal matrix's closed-form condition number,
// MASK's (2p−1)^(−M), or the 1-norm condition of C&P's order-(M+1)
// partial-support matrix.
func (s *Server) conditionNumber() float64 {
	switch sc := s.scheme.(type) {
	case *mining.MaskCounterScheme:
		return sc.Mask().Cond(s.schema.M())
	case *mining.CutPasteCounterScheme:
		c, err := sc.CutPaste().Cond(s.schema.M())
		if err != nil {
			return math.Inf(1)
		}
		return c
	default:
		return s.matrix.Cond()
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// One load yields a consistent (counter, generation) pair even if a
	// counter swap lands mid-request. The version is read BEFORE the
	// record count; a sharded counter's version is its record total,
	// which only grows, so the records >= snapshot_version relation of
	// the query path holds here too under concurrent ingestion.
	ref := s.counter.Load()
	version := ref.counter.Version()
	resp := StatsResponse{
		Records:           ref.counter.N(),
		Gamma:             s.gamma,
		Scheme:            s.scheme.Name(),
		ConditionNumber:   s.conditionNumber(),
		DomainSize:        s.schema.DomainSize(),
		Shards:            ref.counter.Shards(),
		SnapshotVersion:   version,
		CounterGeneration: ref.gen,
		MineWorkers:       s.MineWorkers(),
		MineRuns:          s.AprioriRuns(),
		UptimeSeconds:     time.Since(s.start).Seconds(),
		StartTime:         s.start.UTC(),
	}
	if s.fed != nil {
		resp.Federation = s.fed.Stats()
	}
	writeJSON(w, http.StatusOK, resp)
}

// MineResponse is the reconstructed mining model.
type MineResponse struct {
	Records    int     `json:"records"`
	MinSupport float64 `json:"min_support"`
	// SnapshotVersion is the counter version this model is exact for;
	// Cached reports that the frequent itemsets came from the
	// version-keyed result cache rather than a fresh Apriori run.
	SnapshotVersion uint64 `json:"snapshot_version"`
	Cached          bool   `json:"cached,omitempty"`
	// Window echoes the request's window restriction on a windowed
	// collection: the model was mined from only the records of the last
	// Window, rounded up to whole ring buckets. Absent on full mines.
	Window string `json:"window,omitempty"`
	// VersionVector, present only on a federation coordinator, maps peer
	// URL → replication position: exactly which per-site states the
	// merged counter this model was mined from reflects.
	VersionVector map[string]uint64 `json:"version_vector,omitempty"`
	Counts        []int             `json:"counts_by_length"`
	Itemsets      []ItemsetJSON     `json:"itemsets"`
	Rules         []RuleJSON        `json:"rules,omitempty"`
}

// ItemsetJSON is one frequent itemset on the wire.
type ItemsetJSON struct {
	Items   map[string]string `json:"items"`
	Support float64           `json:"support"`
}

// RuleJSON is one association rule on the wire.
type RuleJSON struct {
	Antecedent map[string]string `json:"antecedent"`
	Consequent map[string]string `json:"consequent"`
	Support    float64           `json:"support"`
	Confidence float64           `json:"confidence"`
}

// mineParamsFromQuery parses the synchronous endpoint's query string.
func mineParamsFromQuery(r *http.Request) (MineParams, error) {
	var p MineParams
	var err error
	if p.MinSupport, err = queryFloat(r, "minsup", defaultMinSupport); err != nil {
		return p, err
	}
	if p.MinConf, err = queryFloat(r, "minconf", 0); err != nil {
		return p, err
	}
	if p.Limit, err = queryInt(r, "limit", defaultMineLimit); err != nil {
		return p, err
	}
	if p.MaxLen, err = queryInt(r, "maxlen", 0); err != nil {
		return p, err
	}
	p.Window = r.URL.Query().Get("window")
	// Defaults were applied for ABSENT parameters only (above), so an
	// explicit minsup=0 is rejected and an explicit limit=0 still means
	// "no itemsets in the response" — the endpoint's pre-job semantics.
	return p, p.validate()
}

// handleMine is the synchronous mining endpoint, kept as a thin wrapper
// that submits a job and awaits it: synchronous miners share the bounded
// worker pool (and the result cache) with asynchronous ones, so a burst
// of /v1/mine traffic can no longer monopolize the machine.
func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	p, err := mineParamsFromQuery(r)
	if err == nil {
		_, err = s.windowOf(p.Window, mineRemedy)
	}
	if err == nil && s.N() == 0 {
		err = errNoSubmissions
	}
	var j *job
	if err == nil {
		j, err = s.jobs.submit(p)
	}
	if err != nil {
		WriteError(w, err)
		return
	}
	if err := j.await(r.Context()); err != nil {
		// Client went away; the job still completes and stays pollable.
		WriteError(w, fmt.Errorf("%w: canceled while awaiting job %s", errUnavailable, j.id))
		return
	}
	if resp := s.jobs.snapshot(j, true); resp.State != JobDone {
		WriteError(w, j.err)
	} else {
		writeJSON(w, http.StatusOK, resp.Result)
	}
}

// handleSubmitJob enqueues an asynchronous mining job. The body is an
// optional JSON MineParams object; an empty body means defaults.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	var p MineParams
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(&p); err != nil && !errors.Is(err, io.EOF) {
		WriteError(w, fmt.Errorf("%w: bad JSON: %w", errInvalid, err))
		return
	}
	// In the JSON API an absent field decodes to zero, so zero values
	// mean defaults here (documented in docs/http-api.md).
	p.applyDefaults()
	err := p.validate()
	if err == nil {
		_, err = s.windowOf(p.Window, mineRemedy)
	}
	var j *job
	if err == nil {
		j, err = s.jobs.submit(p)
	}
	if err != nil {
		WriteError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.jobs.snapshot(j, false))
}

// handleGetJob reports one job, including its result when done. Unknown
// and TTL-evicted ids both return 404 — an evicted job is
// indistinguishable from one that never existed.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		WriteError(w, fmt.Errorf("%w: unknown job %q", errNotFound, r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, s.jobs.snapshot(j, true))
}

// handleListJobs reports all retained jobs in submission order, without
// result payloads (poll the individual job for those).
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobs.list()
	out := make([]JobResponse, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, s.jobs.snapshot(j, false))
	}
	writeJSON(w, http.StatusOK, out)
}

// executeMine runs one mining request on a worker: serve from the
// snapshot-versioned cache when the counter hasn't changed since an
// identical computation, otherwise snapshot, run Apriori, and cache the
// result under the snapshot's version. Returns the rendered response,
// the version it is exact for, and whether it was a cache hit.
func (s *Server) executeMine(p MineParams) (*MineResponse, uint64, bool, error) {
	// One atomic load yields a consistent (counter, generation) pair;
	// replaceCounter clears the cache and bumps the generation BEFORE
	// publishing the new pair, so a worker still holding the old pair
	// can only touch old-generation cache keys — its results linearize
	// before the swap and can never poison the new counter's version
	// line (which restarts and would otherwise collide with the old
	// counter's cached versions).
	ref := s.counter.Load()
	// The parsed duration (not the request spelling) keys the cache, so
	// "60m" and "1h" share one entry; a windowed counter bumps its
	// version on every ring rotation, so equal (generation, version)
	// implies the same bucket union for every window and the cache
	// discipline below carries over unchanged.
	window, err := s.windowOf(p.Window, mineRemedy)
	if err != nil {
		return nil, 0, false, err
	}
	key := mineKey{gen: ref.gen, version: ref.counter.Version(), minsup: p.MinSupport, maxlen: p.MaxLen, window: window}
	entry := s.jobs.cacheGet(key)
	cached := entry != nil
	if cached {
		if s.met != nil {
			s.met.jobs.cacheHits.Inc()
		}
	} else {
		// Mine a frozen snapshot so every Apriori pass sees one consistent
		// record count even while submissions keep arriving.
		snapshot, version := s.snapshot(ref.counter, window)
		n := snapshot.N()
		if n == 0 {
			return nil, version, false, errEmpty(p.Window)
		}
		res, err := mining.AprioriWithOptions(snapshot, p.MinSupport, mining.Options{CandidateRelaxation: 1, MaxLen: p.MaxLen})
		if err != nil {
			return nil, version, false, err
		}
		s.jobs.runs.Add(1)
		if s.met != nil {
			s.met.jobs.cacheMiss.Inc()
		}
		// Adopt the canonical entry: if another worker raced us to the
		// same key (both snapshots valid for this version, possibly with a
		// few more folded-in records each), the first store wins and every
		// job reporting this (generation, version, params) returns its
		// result.
		key.version = version
		entry = s.jobs.cachePut(key, &cacheEntry{records: n, result: res})
	}
	resp, err := s.renderMine(entry.result, entry.records, p)
	if err != nil {
		return nil, key.version, false, err
	}
	resp.SnapshotVersion = key.version
	resp.Cached = cached
	resp.VersionVector = ref.vector
	return resp, key.version, cached, nil
}

// snapshot is the mining path's one read: a frozen, minable fold of the
// collection — on a windowed server, of its newest ceil(window/bucket)
// ring buckets (window 0 = the full ring) — with the version it is
// exact for.
func (s *Server) snapshot(counter mining.LiveCounter, window time.Duration) (mining.SupportCounter, uint64) {
	if s.window != nil {
		return s.window.SnapshotWindowVersioned(window)
	}
	return counter.SnapshotVersioned()
}

// renderMine converts a (possibly cached, therefore read-only) mining
// result into the wire response: itemset truncation and rule generation
// are per-request post-processing, so one cached Apriori run serves any
// combination of minconf and limit.
func (s *Server) renderMine(res *mining.Result, records int, p MineParams) (*MineResponse, error) {
	resp := &MineResponse{
		Records:    records,
		MinSupport: p.MinSupport,
		Window:     p.Window,
		Counts:     res.Counts(),
	}
	emitted := 0
	for _, level := range res.ByLength {
		for _, fi := range level {
			if emitted >= p.Limit {
				break
			}
			resp.Itemsets = append(resp.Itemsets, ItemsetJSON{
				Items:   s.itemsToJSON(fi.Items),
				Support: fi.Support,
			})
			emitted++
		}
	}
	if p.MinConf > 0 {
		rules, err := mining.GenerateRules(res, p.MinConf)
		if err != nil {
			return nil, err
		}
		for i, rule := range rules {
			if i >= p.Limit {
				break
			}
			resp.Rules = append(resp.Rules, RuleJSON{
				Antecedent: s.itemsToJSON(rule.Antecedent),
				Consequent: s.itemsToJSON(rule.Consequent),
				Support:    rule.Support,
				Confidence: rule.Confidence,
			})
		}
	}
	return resp, nil
}

func (s *Server) itemsToJSON(set mining.Itemset) map[string]string {
	out := make(map[string]string, len(set))
	for _, it := range set {
		a := s.schema.Attrs[it.Attr]
		out[a.Name] = a.Categories[it.Value]
	}
	return out
}

func queryFloat(r *http.Request, key string, def float64) (float64, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: bad %s=%q", errInvalid, key, raw)
	}
	return v, nil
}

func queryInt(r *http.Request, key string, def int) (int, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("%w: bad %s=%q", errInvalid, key, raw)
	}
	return v, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
