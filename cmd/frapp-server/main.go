// Command frapp-server runs the miner-side FRAPP collection service:
// clients fetch /v1/schema, perturb locally, POST /v1/submit, anyone
// can query /v1/mine for the reconstructed model, and POST /v1/query
// answers interactive filter-count estimates with confidence intervals
// straight from the live counter.
//
// Usage:
//
//	frapp-server [-addr :8080] [-schema census|health]
//	             [-scheme gamma|mask|cutpaste]
//	             [-rho1 0.05] [-rho2 0.50] [-state statedir]
//	             [-checkpoint-every 10000] [-wal-sync always|off]
//	             [-wal-flush 200ms]
//	             [-shards 0] [-mine-workers 2] [-job-ttl 15m]
//	             [-query-limit 1024] [-max-body 8388608]
//	             [-window-buckets 0] [-window-bucket 0]
//	             [-max-collections 32]
//	             [-peers http://site-a:8080,http://site-b:8080]
//	             [-sync-interval 5s]
//	             [-ops-addr 127.0.0.1:9090] [-access-log] [-log-level info]
//
// The server is multi-tenant: the flag-configured collection above is
// the DEFAULT collection, served on the classic un-prefixed routes,
// and further named collections — each with its own schema, privacy
// contract, scheme, counter, mining pool, and (with -state) its own
// WAL+checkpoint directory under statedir/tenants/<name>/ — are
// managed at runtime via PUT/GET/DELETE /v1/collections/{name} and
// reached under /v1/collections/{name}/v1/... (see
// docs/multitenancy.md). -max-collections caps how many are live at
// once. Named collections are recorded in statedir/collections.json
// and rebuilt (WAL recovery included) at next start; /readyz stays 503
// with a per-collection breakdown until every one of them finishes.
//
// -window-buckets/-window-bucket make the DEFAULT collection a sliding
// window: a ring of -window-buckets sub-counters each spanning
// -window-bucket of wall-clock time. Records expire as their bucket
// rotates out (retention = buckets x bucket), and /v1/query plus
// mining jobs accept a `window` parameter answering over only the last
// window of time at unchanged cost. Windowed collections are
// in-memory only: they refuse -state and -peers.
//
// -ops-addr (default off) binds a SEPARATE operational listener serving
// GET /metrics (Prometheus text exposition), GET /healthz, GET /readyz
// (503 until recovery and the initial federation sync finish), and the
// standard net/http/pprof endpoints. It exposes only aggregate
// operational data, but bind it to localhost in production anyway — see
// docs/observability.md for the metric catalog. -access-log emits one
// structured JSON line per API request to stderr at info level, so
// -log-level warn or error silences it.
//
// -scheme selects the perturbation scheme the whole stack runs under:
// gamma (default — the paper's optimal gamma-diagonal matrix), mask, or
// cutpaste. The scheme's parameters are derived from the published
// (schema, γ) contract, advertised on GET /v1/schema and /v1/stats, and
// validated by clients at NewClient time; every subsystem (ingestion,
// /v1/query estimation, mining jobs, -state persistence, federation
// deltas) follows the negotiated scheme, and cross-scheme state or
// replication payloads are rejected, never merged.
//
// -shards stripes the ingestion counter so concurrent submissions never
// contend on one lock; 0 (the default) means one shard per core.
// -mine-workers bounds how many mining jobs (async /v1/mine-jobs and
// sync /v1/mine alike) execute concurrently, and -job-ttl controls how
// long finished jobs stay pollable; unchanged collections are served
// from the snapshot-versioned result cache without re-running Apriori.
// -query-limit caps the filters of one /v1/query batch, and -max-body
// caps the request body of every decoding POST endpoint (413 beyond).
//
// POST /v1/submit-batch additionally accepts a compact binary wire
// form (Content-Type application/x-frapp-batch with the scheme
// fingerprint in X-Frapp-Fingerprint) that ingests an order of
// magnitude faster than JSON; batches apply atomically in either form.
// See docs/http-api.md.
//
// With -state, the accumulated (perturbed) counts are durable
// CONTINUOUSLY, not just at shutdown: -state names a directory holding
// compacted checkpoints plus a write-ahead log of counter deltas. A
// background flusher appends batched deltas every -wal-flush (fsynced
// per -wal-sync), a fresh checkpoint is compacted every
// -checkpoint-every records, and after a crash — kill -9 included — the
// server restores the newest checkpoint and replays the WAL tail, so at
// most one flush interval of submissions is at risk instead of
// everything since startup. A regular file given as -state (single-file
// state from very old releases) is refused with the upgrade path in the
// error. The state contains only perturbed marginal counts — no raw record ever reaches
// the server in the FRAPP trust model. See docs/persistence.md.
//
// With -peers, the server runs as a federation COORDINATOR: it pulls
// versioned counter deltas from the listed collector sites every
// -sync-interval (jittered, with exponential backoff on failures) and
// answers /v1/query, /v1/mine, and /v1/stats from the merged global
// counter, stamped with the per-peer version vector. A coordinator
// refuses direct submissions — records enter at collector sites — and
// refuses -state: its counter is rebuilt from the peers, which own the
// durable state.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/federation"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		schemaName   = flag.String("schema", "census", "published schema: census or health")
		scheme       = flag.String("scheme", "gamma", "perturbation scheme: gamma, mask, or cutpaste")
		rho1         = flag.Float64("rho1", 0.05, "privacy prior bound rho1")
		rho2         = flag.Float64("rho2", 0.50, "privacy posterior bound rho2")
		state        = flag.String("state", "", "state directory for crash durability (optional; must be a directory, single-file state is refused)")
		ckptEvery    = flag.Int("checkpoint-every", 0, "records between compacted checkpoints (0 = default 10000)")
		walSync      = flag.String("wal-sync", "always", "WAL fsync policy: always or off")
		walFlush     = flag.Duration("wal-flush", 0, "WAL flush interval (0 = default 200ms)")
		shards       = flag.Int("shards", 0, "ingestion shards (0 = one per core)")
		workers      = flag.Int("mine-workers", 0, "concurrent mining jobs (0 = default 2)")
		jobTTL       = flag.Duration("job-ttl", 0, "retention of finished mining jobs (0 = default 15m)")
		queryLimit   = flag.Int("query-limit", 0, "max filters per /v1/query batch (0 = default 1024)")
		maxBody      = flag.Int64("max-body", 0, "max request body bytes on POST endpoints, 413 beyond (0 = default 8MiB)")
		winBuckets   = flag.Int("window-buckets", 0, "sliding-window ring buckets for the default collection (0 = unwindowed)")
		winBucket    = flag.Duration("window-bucket", 0, "sliding-window bucket duration (with -window-buckets)")
		maxCols      = flag.Int("max-collections", 0, "max live collections including the default (0 = default 32)")
		peers        = flag.String("peers", "", "comma-separated collector base URLs; run as federation coordinator")
		syncInterval = flag.Duration("sync-interval", 0, "federation pull interval (0 = default 5s)")
		opsAddr      = flag.String("ops-addr", "", "ops listener address for /metrics, /healthz, /readyz, and pprof (empty = off; bind localhost in production)")
		accessLog    = flag.Bool("access-log", false, "emit one structured JSON line per request to stderr")
		logLevel     = flag.String("log-level", "info", "minimum structured log level: debug, info, warn, or error")
	)
	flag.Parse()
	cfg := serverConfig{
		addr: *addr, schema: *schemaName, scheme: *scheme, rho1: *rho1, rho2: *rho2,
		state: *state, checkpointEvery: *ckptEvery, walSync: *walSync, walFlush: *walFlush,
		shards: *shards, mineWorkers: *workers, jobTTL: *jobTTL,
		queryLimit: *queryLimit, maxBody: *maxBody, peers: *peers, syncInterval: *syncInterval,
		windowBuckets: *winBuckets, windowBucket: *winBucket, maxCollections: *maxCols,
		opsAddr: *opsAddr, accessLog: *accessLog, logLevel: *logLevel,
	}
	// The signal context lives in main so run stays testable: tests
	// drive the same graceful-shutdown path by canceling the context.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "frapp-server:", err)
		os.Exit(1)
	}
}

// serverConfig carries the flag set into run.
type serverConfig struct {
	addr            string
	schema          string
	scheme          string
	rho1, rho2      float64
	state           string
	checkpointEvery int
	walSync         string
	walFlush        time.Duration
	shards          int
	mineWorkers     int
	jobTTL          time.Duration
	queryLimit      int
	maxBody         int64
	peers           string
	syncInterval    time.Duration
	windowBuckets   int
	windowBucket    time.Duration
	maxCollections  int
	opsAddr         string
	accessLog       bool
	logLevel        string
}

// run serves until ctx is canceled (SIGINT/SIGTERM in production), then
// shuts down gracefully. With -state, durability is continuous — the
// store's WAL flusher runs for the whole serving window — and a
// graceful shutdown additionally compacts a final checkpoint; crashes
// at any other point recover from the store at next start.
func run(ctx context.Context, cfg serverConfig) error {
	var sc *dataset.Schema
	switch cfg.schema {
	case "census":
		sc = dataset.CensusSchema()
	case "health":
		sc = dataset.HealthSchema()
	default:
		return fmt.Errorf("unknown schema %q", cfg.schema)
	}
	windowed := cfg.windowBuckets != 0 || cfg.windowBucket != 0
	if windowed && (cfg.windowBuckets == 0 || cfg.windowBucket == 0) {
		return errors.New("-window-buckets and -window-bucket must be set together")
	}
	syncMode := store.SyncAlways
	switch cfg.walSync {
	case "", "always":
	case "off":
		syncMode = store.SyncOff
	default:
		return fmt.Errorf("bad -wal-sync %q (want always or off)", cfg.walSync)
	}
	spec := core.PrivacySpec{Rho1: cfg.rho1, Rho2: cfg.rho2}

	// Telemetry is always collected (the instruments are allocation-free
	// on the hot path); -ops-addr controls whether anything serves it.
	// The ops listener is bound BEFORE recovery so /readyz answers 503
	// during a long WAL replay instead of refusing connections. colReg
	// is published once the collection registry exists, so readiness
	// also reflects every named collection's background rebuild.
	reg := telemetry.NewRegistry()
	var recovered, warm atomic.Bool
	var colReg atomic.Pointer[registry.Registry]
	if cfg.opsAddr != "" {
		ready := func() error {
			if !recovered.Load() {
				return errors.New("state recovery in progress")
			}
			if !warm.Load() {
				return errors.New("initial federation sync not finished")
			}
			if r := colReg.Load(); r != nil {
				return r.Ready()
			}
			return nil
		}
		ops, err := telemetry.ServeOps(cfg.opsAddr, telemetry.OpsHandler(reg, ready))
		if err != nil {
			return err
		}
		defer ops.Close()
		log.Printf("frapp-server: ops endpoints (metrics, healthz, readyz, pprof) on %s", ops.Addr)
	}
	opts := []service.Option{
		service.WithScheme(cfg.scheme),
		service.WithShards(cfg.shards),
		service.WithMineWorkers(cfg.mineWorkers),
		service.WithJobTTL(cfg.jobTTL),
		service.WithQueryLimit(cfg.queryLimit),
		service.WithMaxBody(cfg.maxBody),
		service.WithTelemetry(reg),
	}
	var accessLogger *slog.Logger
	if cfg.accessLog {
		lvl, err := telemetry.ParseLevel(cfg.logLevel)
		if err != nil {
			return err
		}
		accessLogger = telemetry.NewAccessLogger(os.Stderr, lvl)
		opts = append(opts, service.WithAccessLog(accessLogger))
	}
	if windowed {
		opts = append(opts, service.WithWindow(cfg.windowBuckets, cfg.windowBucket))
	}
	if cfg.peers != "" {
		// NewServer builds the coordinator over the server's OWN scheme
		// contract, so a peer running a different scheme is rejected,
		// never merged.
		opts = append(opts, service.WithPeers(strings.Split(cfg.peers, ","),
			federation.WithSyncInterval(cfg.syncInterval),
			federation.WithMetrics(reg)))
	}

	var (
		srv *service.Server
		err error
	)
	if cfg.state != "" {
		st, err := store.Open(cfg.state, store.WithSyncMode(syncMode))
		if err != nil {
			return err
		}
		opts = append(opts,
			service.WithStore(st),
			service.WithCheckpointEvery(cfg.checkpointEvery),
			service.WithWALFlushInterval(cfg.walFlush))
		srv, err = service.NewServer(sc, spec, opts...)
		if err != nil {
			st.Close()
			return err
		}
	} else if srv, err = service.NewServer(sc, spec, opts...); err != nil {
		return err
	}
	defer srv.Close()
	recovered.Store(true)

	// The collection registry hosts further named collections beside the
	// flag-configured default. With -state, their specs live in
	// statedir/collections.json and their stores under statedir/tenants/
	// — any that were recorded start rebuilding (WAL recovery included)
	// in the background now; /readyz covers them via colReg above.
	tenants, err := registry.New(registry.Options{
		BaseDir:        cfg.state,
		MaxCollections: cfg.maxCollections,
		Metrics:        reg,
		AccessLog:      accessLogger,
		SyncMode:       syncMode,
	})
	if err != nil {
		return err
	}
	defer tenants.Close()
	if _, err := tenants.Adopt(registry.DefaultCollection, srv); err != nil {
		return err
	}
	colReg.Store(tenants)

	if coord := srv.Coordinator(); coord == nil {
		warm.Store(true)
	} else {
		// Warm first view; per-peer failures are logged, not fatal — the
		// background loop keeps retrying with backoff. /readyz flips to
		// ready once the warm pass completes (degraded peers show up in
		// the federation health metrics, not as permanent unreadiness).
		if err := coord.SyncAll(ctx); err != nil {
			log.Printf("frapp-server: initial federation sync: %v", err)
		}
		warm.Store(true)
		coord.Start()
		log.Printf("frapp-server: federation coordinator over %d peers, sync interval %s",
			len(coord.Peers()), coord.SyncInterval())
	}

	log.Printf("frapp-server: schema=%s scheme=%s records=%d shards=%d mine-workers=%d collections=%d listening on %s",
		sc.Name, srv.Scheme(), srv.N(), srv.Shards(), srv.MineWorkers(), len(tenants.Names()), cfg.addr)

	httpSrv := &http.Server{Addr: cfg.addr, Handler: tenants.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		// Listen failed before any graceful shutdown: report;
		// deliberately no persist (see the run doc comment). The deferred
		// srv.Close stops the sync loop.
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	case <-ctx.Done():
		log.Printf("frapp-server: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("frapp-server: shutdown: %v", err)
		}
	}
	// Named collections close (with a final checkpoint each) inside the
	// deferred tenants.Close; checkpoint the adopted default explicitly.
	if cfg.state != "" {
		// The WAL already holds everything flushed; the final checkpoint
		// compacts the shutdown state so the next boot replays nothing.
		if err := srv.CheckpointNow(); err != nil {
			return fmt.Errorf("persisting state: %w", err)
		}
		log.Printf("frapp-server: state checkpointed to %s (%d records)", cfg.state, srv.N())
	}
	return nil
}
