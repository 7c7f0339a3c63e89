package service

import (
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mining"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Operational telemetry for the server: RED metrics and one structured
// access-log line per HTTP request, plus instrumentation hooks for the
// ingest counter, the mining job pool, and the durable store. All of it
// is opt-in via WithTelemetry / WithAccessLog and costs nothing when
// absent.
//
// Privacy contract: every metric name, label key, and label value below
// comes from operator vocabulary — route patterns, status classes, wire
// forms, shard indices. Nothing derived from record or category
// contents is ever registered or logged; TestTelemetryNeverLeaksValues
// drives sentinel categories through the API and asserts exactly that.

// WithTelemetry registers the server's operational metrics in reg and
// enables the HTTP middleware that records them. The same registry can
// (and normally should) also be handed to federation.WithMetrics and
// served via telemetry.OpsHandler on a separate ops listener.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *serverConfig) { c.metrics = reg }
}

// WithAccessLog emits one structured line per HTTP request to l at info
// level (telemetry.NewAccessLogger builds the JSON form). Only
// effective together with WithTelemetry (the access line is written by
// the metrics middleware).
func WithAccessLog(l *slog.Logger) Option {
	return func(c *serverConfig) { c.accessLog = l }
}

// WithCollectionLabel stamps every metric family this server registers
// (and its access-log lines) with a `collection` label — used by the
// multi-tenant registry so one shared telemetry registry separates
// tenants. The label vocabulary stays closed and bounded: values are
// registry-validated collection names (lowercase slug, max 64 chars),
// and the registry caps how many collections may exist, so the label
// can never explode cardinality or carry record contents. Servers built
// without this option register unlabeled series, byte-compatible with
// pre-registry expositions.
func WithCollectionLabel(name string) Option {
	return func(c *serverConfig) { c.collection = name }
}

// reqKey is one (route, status class, wire form) combination — a struct
// key so the hot-path map lookup below allocates nothing.
type reqKey struct {
	route string
	code  string
	wire  string
}

// httpMetrics is the HTTP middleware's state (see wrap): the RED
// instruments and the access log.
type httpMetrics struct {
	reg *telemetry.Registry
	log *slog.Logger
	// collection, when non-empty, is prefixed as a `collection` label
	// onto every series this server registers (see WithCollectionLabel).
	collection string

	inflight *telemetry.Gauge
	reqMu    sync.RWMutex
	requests map[reqKey]*telemetry.Counter
}

func (m *httpMetrics) init(reg *telemetry.Registry, accessLog *slog.Logger, collection string) {
	m.reg, m.log, m.collection = reg, accessLog, collection
	m.requests = make(map[reqKey]*telemetry.Counter)
	m.inflight = reg.Gauge("frapp_http_requests_inflight",
		"HTTP requests currently being handled.", m.lbl()...)
}

// Instrument returns the server's HTTP middleware for routes served
// outside any Server — the registry's collection lifecycle routes. A
// wrapped route gets the frapp_http_* series and, with accessLog set,
// one access line per request, both under its route pattern and
// without a collection label.
func Instrument(reg *telemetry.Registry, accessLog *slog.Logger) func(pattern string, h http.HandlerFunc) http.HandlerFunc {
	m := &httpMetrics{}
	m.init(reg, accessLog, "")
	return m.wrap
}

// serverMetrics bundles every instrument the server updates inline.
// Scrape-time callbacks (queue depth, uptime, checkpoint age) are
// registered in wire* methods against the subsystems' own state.
type serverMetrics struct {
	httpMetrics
	jobs     jobMetrics
	ingest   ingestObserver
	storeObs storeObserver
}

func newServerMetrics(reg *telemetry.Registry, accessLog *slog.Logger, collection string) *serverMetrics {
	m := &serverMetrics{}
	m.init(reg, accessLog, collection)
	m.jobs.register(reg, m.lbl())
	m.ingest.register(reg, m.lbl())
	m.storeObs.register(reg, m.lbl())
	return m
}

// lbl prepends the collection label (when set) to extra. Registration
// sites only — never on the per-request hot path.
func (m *httpMetrics) lbl(extra ...telemetry.Label) []telemetry.Label {
	if m.collection == "" {
		return extra
	}
	out := make([]telemetry.Label, 0, len(extra)+1)
	out = append(out, telemetry.L("collection", m.collection))
	return append(out, extra...)
}

// requestCounter lazily materializes the counter for one label
// combination. The read path is a lock-free-ish RLock + struct-keyed
// map hit; only the first request of a new combination takes the write
// lock and the registry lock.
func (m *httpMetrics) requestCounter(route, code, wire string) *telemetry.Counter {
	k := reqKey{route: route, code: code, wire: wire}
	m.reqMu.RLock()
	c := m.requests[k]
	m.reqMu.RUnlock()
	if c != nil {
		return c
	}
	m.reqMu.Lock()
	defer m.reqMu.Unlock()
	if c := m.requests[k]; c != nil {
		return c
	}
	c = m.reg.Counter("frapp_http_requests_total",
		"HTTP requests by route pattern, status class, and wire form.",
		m.lbl(telemetry.L("route", route), telemetry.L("code", code), telemetry.L("wire", wire))...)
	m.requests[k] = c
	return c
}

// statusWriter captures the status code and response size. Pooled so
// the middleware adds no per-request allocations.
type statusWriter struct {
	http.ResponseWriter
	status      int
	bytes       int64
	wroteHeader bool
}

var swPool = sync.Pool{New: func() any { return &statusWriter{} }}

func (sw *statusWriter) WriteHeader(code int) {
	if !sw.wroteHeader {
		sw.status = code
		sw.wroteHeader = true
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if !sw.wroteHeader {
		sw.status = http.StatusOK
		sw.wroteHeader = true
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// statusClass buckets a status code into its class — fixed vocabulary,
// no per-code label explosion.
func statusClass(code int) string {
	switch code / 100 {
	case 1:
		return "1xx"
	case 2:
		return "2xx"
	case 3:
		return "3xx"
	case 4:
		return "4xx"
	case 5:
		return "5xx"
	default:
		return "other"
	}
}

// wireForm classifies the request's wire form from the Content-Type
// header without parsing it (mime.ParseMediaType allocates): "binary"
// for the binary batch form, "json" for any other body, "none" for
// body-less requests.
func wireForm(r *http.Request) string {
	ct := r.Header.Get("Content-Type")
	switch {
	case ct == "":
		return "none"
	case strings.HasPrefix(ct, BatchContentTypeBinary):
		return "binary"
	default:
		return "json"
	}
}

// wrap returns pattern's handler instrumented with RED metrics and the
// access log. The route label is the registered mux pattern (method
// stripped) — a closed operator vocabulary, never the raw request URL,
// so un-matched paths can't mint series and path segments carrying
// values (job ids) never become labels.
func (m *httpMetrics) wrap(pattern string, next http.HandlerFunc) http.HandlerFunc {
	route := pattern
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		route = pattern[i+1:]
	}
	dur := m.reg.Histogram("frapp_http_request_duration_seconds",
		"HTTP request latency by route pattern.", m.lbl(telemetry.L("route", route))...)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.inflight.Add(1)
		sw := swPool.Get().(*statusWriter)
		sw.ResponseWriter, sw.status, sw.bytes, sw.wroteHeader = w, http.StatusOK, 0, false
		next(sw, r)
		elapsed := time.Since(start)
		m.inflight.Add(-1)
		status, bytes := sw.status, sw.bytes
		sw.ResponseWriter = nil
		swPool.Put(sw)
		dur.Record(elapsed)
		m.requestCounter(route, statusClass(status), wireForm(r)).Inc()
		if m.log != nil && m.log.Enabled(r.Context(), slog.LevelInfo) {
			// The request ID is generated server-side; client-supplied
			// correlation headers are deliberately not echoed into the log
			// (they are uncontrolled input on a privacy-sensitive channel).
			var attrs [7]slog.Attr // on the stack: LogAttrs copies them
			line := append(attrs[:0],
				slog.String("req", telemetry.NextRequestID().String()),
				slog.String("method", r.Method),
				slog.String("route", route))
			if m.collection != "" {
				// The collection name is operator vocabulary (registry-
				// validated slug), same closed set as the metric label.
				line = append(line, slog.String("collection", m.collection))
			}
			line = append(line,
				slog.Int("status", status),
				slog.Int64("bytes", bytes),
				slog.Float64("dur", elapsed.Seconds()))
			m.log.LogAttrs(r.Context(), slog.LevelInfo, "access", line...)
		}
	}
}

// wireServer registers the scrape-time callbacks that sample server
// state: uptime, job queue depth, and the mining pool's run counter.
// Called once from NewServer after the job store exists.
func (m *serverMetrics) wireServer(s *Server) {
	m.reg.GaugeFunc("frapp_uptime_seconds",
		"Seconds since the server was constructed.",
		func() float64 { return time.Since(s.start).Seconds() }, m.lbl()...)
	start := m.reg.Gauge("frapp_start_time_seconds",
		"Unix time the server was constructed, in seconds.", m.lbl()...)
	start.Set(float64(s.start.UnixNano()) / 1e9)
	m.reg.GaugeFunc("frapp_jobs_queue_depth",
		"Mining jobs waiting in the queue.",
		func() float64 { return float64(len(s.jobs.queue)) }, m.lbl()...)
	m.reg.CounterFunc("frapp_mine_runs_total",
		"Apriori executions (mining cache misses).",
		func() float64 { return float64(s.jobs.runs.Load()) }, m.lbl()...)
	m.reg.GaugeFunc("frapp_records",
		"Perturbed records in the live counter.",
		func() float64 { return float64(s.N()) }, m.lbl()...)
	m.reg.GaugeFunc("frapp_replication_journal_entries",
		"Change-journal entries the live counter retains for WAL appends and replication pulls.",
		func() float64 { e, _ := s.replicationJournal(); return float64(e) }, m.lbl()...)
	m.reg.GaugeFunc("frapp_replication_tokens_retained",
		"Replication tokens the live counter retains; a pull from any other token is served full.",
		func() float64 { _, t := s.replicationJournal(); return float64(t) }, m.lbl()...)
}

// replicationJournal samples the live counter's change journal; a
// windowed counter keeps none.
func (s *Server) replicationJournal() (entries, tokens int) {
	if c, ok := s.ctr().(*mining.ShardedCounter); ok {
		return c.ReplicationJournal()
	}
	return 0, 0
}

// observeCounter installs the ingest observer on any counter exposing
// the observer hook (sharded and windowed counters alike). Only the
// server's initial counter is observed: only a coordinator swaps its
// counter (replaceCounter, its publish hook), and a coordinator refuses
// submissions.
func (m *serverMetrics) observeCounter(c mining.LiveCounter) {
	if m == nil {
		return
	}
	type observable interface {
		Shards() int
		SetIngestObserver(mining.IngestObserver)
	}
	if sc, ok := c.(observable); ok {
		m.ingest.sizeShards(m.reg, sc.Shards())
		sc.SetIngestObserver(&m.ingest)
	}
}

// jobMetrics instruments the mining job pool. Updated under the job
// store's mutex (state transitions) or from executeMine (cache
// outcome).
type jobMetrics struct {
	rejected   *telemetry.Counter
	done       *telemetry.Counter
	failed     *telemetry.Counter
	queuedDur  *telemetry.Histogram
	runningDur *telemetry.Histogram
	cacheHits  *telemetry.Counter
	cacheMiss  *telemetry.Counter
}

func (jm *jobMetrics) register(reg *telemetry.Registry, base []telemetry.Label) {
	with := func(extra ...telemetry.Label) []telemetry.Label {
		return append(append([]telemetry.Label{}, base...), extra...)
	}
	jm.rejected = reg.Counter("frapp_jobs_rejected_total",
		"Mining jobs refused because the queue was full.", base...)
	jm.done = reg.Counter("frapp_jobs_completed_total",
		"Mining jobs reaching a terminal state, by outcome.", with(telemetry.L("state", JobDone))...)
	jm.failed = reg.Counter("frapp_jobs_completed_total",
		"Mining jobs reaching a terminal state, by outcome.", with(telemetry.L("state", JobFailed))...)
	jm.queuedDur = reg.Histogram("frapp_job_state_seconds",
		"Time mining jobs spend per lifecycle state.", with(telemetry.L("state", JobQueued))...)
	jm.runningDur = reg.Histogram("frapp_job_state_seconds",
		"Time mining jobs spend per lifecycle state.", with(telemetry.L("state", JobRunning))...)
	jm.cacheHits = reg.Counter("frapp_mine_cache_hits_total",
		"Mining requests served from the snapshot-versioned result cache.", base...)
	jm.cacheMiss = reg.Counter("frapp_mine_cache_misses_total",
		"Mining requests that ran Apriori.", base...)
}

// ingestObserver implements mining.IngestObserver: per-shard record
// counts, shard-batch sizes, and lock-acquisition wait. Must stay
// allocation-free — it sits on the binary ingest fast path under the
// alloc guard test.
type ingestObserver struct {
	shardRecords []*telemetry.Counter // indexed by shard
	batches      *telemetry.Counter
	batchSize    *telemetry.Histogram
	lockWait     *telemetry.Histogram
	// base labels (the collection label, when set) applied to every
	// series, including the lazily-sized per-shard counters.
	base []telemetry.Label
}

func (o *ingestObserver) register(reg *telemetry.Registry, base []telemetry.Label) {
	o.base = base
	o.batches = reg.Counter("frapp_ingest_batches_total",
		"Shard-level ingest applications (a submitted batch counts once per shard it touches).", base...)
	o.batchSize = reg.HistogramValues("frapp_ingest_batch_records",
		"Records per shard-level ingest application.", base...)
	o.lockWait = reg.Histogram("frapp_ingest_lock_wait_seconds",
		"Time ingest waited to acquire a shard lock, measured at the mutex.", base...)
}

// sizeShards builds the per-shard counter slice. Not safe concurrently
// with ObserveIngest; NewServer calls it before the server takes
// traffic.
func (o *ingestObserver) sizeShards(reg *telemetry.Registry, shards int) {
	counters := make([]*telemetry.Counter, shards)
	for i := 0; i < shards; i++ {
		labels := append(append([]telemetry.Label{}, o.base...), telemetry.L("shard", strconv.Itoa(i)))
		counters[i] = reg.Counter("frapp_ingest_records_total",
			"Perturbed records ingested, by counter shard.", labels...)
	}
	o.shardRecords = counters
}

// ObserveIngest is called once per shard slice of every ingested batch
// (and once per single-record submit, with records=1 and zero wait).
func (o *ingestObserver) ObserveIngest(shard, records int, lockWait time.Duration) {
	if shard >= 0 && shard < len(o.shardRecords) {
		o.shardRecords[shard].Add(uint64(records))
	}
	o.batches.Inc()
	o.batchSize.RecordValue(int64(records))
	if lockWait > 0 {
		o.lockWait.Record(lockWait)
	}
}

// storeObserver implements store.Observer: WAL append/fsync latency,
// segment size, checkpoint duration and age, and the recovery outcome.
// All callbacks run on the server's flusher goroutine (or startup), so
// plain instrument updates suffice.
type storeObserver struct {
	appendDur     *telemetry.Histogram
	fsyncDur      *telemetry.Histogram
	appends       *telemetry.Counter
	appendErrs    *telemetry.Counter
	appendBytes   *telemetry.Counter
	appendRecords *telemetry.Counter
	segmentBytes  *telemetry.Gauge
	ckptDur       *telemetry.Histogram
	ckpts         *telemetry.Counter
	ckptErrs      *telemetry.Counter
	ckptBytes     *telemetry.Gauge
	recRecords    *telemetry.Gauge
	recOutcome    *telemetry.Gauge
	lastCkpt      atomic.Int64 // UnixNano of the last successful checkpoint
}

var _ store.Observer = (*storeObserver)(nil)

func (o *storeObserver) register(reg *telemetry.Registry, base []telemetry.Label) {
	o.appendDur = reg.Histogram("frapp_wal_append_seconds",
		"Latency of one WAL append (delta extraction through fsync).", base...)
	o.fsyncDur = reg.Histogram("frapp_wal_fsync_seconds",
		"Latency of the fsync inside a WAL append.", base...)
	o.appends = reg.Counter("frapp_wal_appends_total",
		"WAL appends that wrote at least one frame.", base...)
	o.appendErrs = reg.Counter("frapp_wal_append_errors_total",
		"WAL appends that failed (retried by the flusher).", base...)
	o.appendBytes = reg.Counter("frapp_wal_appended_bytes_total",
		"Bytes appended to the WAL.", base...)
	o.appendRecords = reg.Counter("frapp_wal_appended_records_total",
		"Record deltas appended to the WAL.", base...)
	o.segmentBytes = reg.Gauge("frapp_wal_segment_bytes",
		"Size of the live WAL segment; drops to near zero after a checkpoint rotates it.", base...)
	o.ckptDur = reg.Histogram("frapp_checkpoint_seconds",
		"Latency of one checkpoint compaction.", base...)
	o.ckpts = reg.Counter("frapp_checkpoints_total",
		"Successful checkpoint compactions.", base...)
	o.ckptErrs = reg.Counter("frapp_checkpoint_errors_total",
		"Failed checkpoint compactions.", base...)
	o.ckptBytes = reg.Gauge("frapp_checkpoint_state_bytes",
		"Serialized state size of the newest checkpoint.", base...)
	o.recRecords = reg.Gauge("frapp_recovery_records",
		"Records recovered from durable state at startup.", base...)
	o.recOutcome = reg.Gauge("frapp_recovery_ok",
		"1 when startup recovery succeeded (including a cold start), 0 when it failed.", base...)
	reg.GaugeFunc("frapp_checkpoint_age_seconds",
		"Seconds since the last successful checkpoint; 0 until the first one.",
		func() float64 {
			t := o.lastCkpt.Load()
			if t == 0 {
				return 0
			}
			return time.Since(time.Unix(0, t)).Seconds()
		}, base...)
}

func (o *storeObserver) ObserveAppend(bytes, records int, fsync, total time.Duration, err error) {
	if err != nil {
		o.appendErrs.Inc()
		return
	}
	if bytes == 0 && records == 0 {
		return // no-op flush tick: nothing pending
	}
	o.appends.Inc()
	o.appendBytes.Add(uint64(bytes))
	o.appendRecords.Add(uint64(records))
	o.appendDur.Record(total)
	o.fsyncDur.Record(fsync)
}

func (o *storeObserver) ObserveCheckpoint(stateBytes int, total time.Duration, err error) {
	if err != nil {
		o.ckptErrs.Inc()
		return
	}
	o.ckpts.Inc()
	o.ckptDur.Record(total)
	o.ckptBytes.Set(float64(stateBytes))
	o.lastCkpt.Store(time.Now().UnixNano())
}

func (o *storeObserver) ObserveWALSize(bytes int64) {
	o.segmentBytes.Set(float64(bytes))
}

func (o *storeObserver) ObserveRecovery(records int, hadState bool, err error) {
	if err != nil {
		o.recOutcome.Set(0)
		return
	}
	o.recOutcome.Set(1)
	o.recRecords.Set(float64(records))
}
