package main

import (
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// collector sends prepared batches to one collection, cycling through its
// pool, and counts what the server acknowledged.
type collector struct {
	h       http.Handler
	path    string // submit-batch path
	batches []batch
	next    atomic.Int64 // pool cursor
	acked   atomic.Int64 // records acknowledged, warm-up and set-up included
	// perBatch counts acknowledgements per pool batch, from which the
	// exact truth of the acknowledged records is rebuilt.
	perBatch []atomic.Int64
	wire     atomic.Int64 // wire bytes acknowledged in the timed phase
	phaseRec atomic.Int64 // records acknowledged in the timed phase
}

func newCollector(h http.Handler, path string, batches []batch) *collector {
	return &collector{h: h, path: path, batches: batches, perBatch: make([]atomic.Int64, len(batches))}
}

// send submits the next pool batch; it returns the batch index.
func (c *collector) send(w *respWriter, phase bool) (int, error) {
	i := int(c.next.Add(1)-1) % len(c.batches)
	b := c.batches[i].prep
	if err := submit(c.h, w, c.path, b); err != nil {
		return i, err
	}
	c.acked.Add(int64(b.Len()))
	c.perBatch[i].Add(1)
	if phase {
		c.phaseRec.Add(int64(b.Len()))
		c.wire.Add(int64(b.WireSize()))
	}
	return i, nil
}

// checkRecords compares /v1/stats with the records acknowledged — a
// dropped or double-counted batch fails the run.
func (c *collector) checkRecords(r *run, base string) {
	st, err := stats(c.h, base)
	if err != nil {
		r.check("stats_records", false, err.Error())
		return
	}
	want := c.acked.Load()
	r.check("stats_records", int64(st.Records) == want, fmt.Sprintf("stats reports %d records, %d acknowledged", st.Records, want))
}

// timeQueries has two closed-loop analysts each issue the filter batch n
// times, and records the latencies as the workload's query_p50_ms samples
// (a failed query counts as a failed op). Two clients, like the phase's
// two busy goroutines, keep the median from depending on which of the
// host's cores one client happened to run on. It returns a good response.
func timeQueries(r *run, h http.Handler, path string, filters []service.QueryFilter, n int) *service.QueryResponse {
	var (
		log  opLog
		wg   sync.WaitGroup
		last [2]*service.QueryResponse
	)
	for c := range last {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				t0 := time.Now()
				qr, err := queryOnce(h, path, filters)
				log.add(time.Since(t0), false, 0, err)
				if err == nil {
					last[c] = qr
				}
			}
		}()
	}
	wg.Wait()
	r.query = log.lat
	r.aux(&log)
	if last[0] != nil {
		return last[0]
	}
	return last[1]
}

// checkMineVsQuery runs a mining job on a quiescent collection and asks
// /v1/query for the supports of every itemset it found: both answer from
// the same snapshot version and must agree to 1e-9. It returns the mine.
func checkMineVsQuery(r *run, h http.Handler, base string) *service.MineResponse {
	res, err := mineJob(h, base)
	if err != nil {
		r.check("final_mine", false, err.Error())
		return nil
	}
	filters := make([]service.QueryFilter, len(res.Itemsets))
	for i, it := range res.Itemsets {
		filters[i] = it.Items
	}
	if len(filters) == 0 {
		r.check("final_mine", false, fmt.Sprintf("%d frequent itemsets", len(filters)))
		return nil
	}
	// The itemsets are asked in the analyst's 32-filter batches, so every
	// query the handler serves has the same shape.
	ok, detail := true, ""
	for lo := 0; lo < len(filters) && ok; lo += 32 {
		hi := min(lo+32, len(filters))
		qr, err := queryOnce(h, base+"/v1/query", filters[lo:hi])
		if err != nil {
			r.check("mine_vs_query", false, err.Error())
			return nil
		}
		if qr.SnapshotVersion != res.SnapshotVersion || qr.Records != res.Records {
			ok, detail = false, fmt.Sprintf("mine at version %d (%d records), query at %d (%d)", res.SnapshotVersion, res.Records, qr.SnapshotVersion, qr.Records)
		}
		for i, it := range res.Itemsets[lo:hi] {
			if est := qr.Estimates[i].Count / float64(qr.Records); ok && math.Abs(est-it.Support) > 1e-9 {
				ok, detail = false, fmt.Sprintf("itemset %v: mined support %v, query estimate %v", it.Items, it.Support, est)
			}
		}
	}
	r.check("mine_vs_query", ok, detail)
	return res
}

// ---- ingest-json ----

// ingestJSON: two closed-loop collectors post 256-record JSON
// submit-batch bodies through the legacy un-prefixed routes, which the
// registry serves from the adopted default collection (in memory, gamma)
// — frapp-server without -state.
type ingestJSON struct {
	reg     *telemetry.Registry
	srv     *service.Server
	tenants *registry.Registry
	h       http.Handler
	pool    *dataset.Database
	col     *collector
	filters []service.QueryFilter
	sh      *shadow
}

const (
	jsonPool    = 1 << 16
	jsonBatch   = 256
	jsonClients = 2
	// shadowFlushEvery is how many traced batches pass between shadow
	// delta extractions on workloads without a WAL of their own.
	shadowFlushEvery = 16
)

func setupIngestJSON(r *run) (env, error) {
	e := &ingestJSON{reg: telemetry.NewRegistry(), filters: queryFilters(r.seed)}
	var err error
	e.srv, err = service.NewServer(dataset.CensusSchema(), privacy, service.WithScheme("gamma"), service.WithTelemetry(e.reg))
	if err != nil {
		return nil, err
	}
	if e.tenants, e.h, err = adopt(e.reg, e.srv); err != nil {
		e.srv.Close()
		return nil, err
	}
	if e.pool, err = population(r, jsonPool, r.seed); err != nil {
		e.close()
		return nil, err
	}
	client, err := newClient(e.h, "")
	if err != nil {
		e.close()
		return nil, err
	}
	batches, err := prepare(r, client, e.pool, jsonBatch, service.WireJSON, r.seed)
	if err != nil {
		e.close()
		return nil, err
	}
	e.col = newCollector(e.h, "/v1/submit-batch", batches)
	if r.traced() {
		if e.sh, err = newShadow(r.tr, e.srv.CounterScheme(), filepath.Join(r.dir, "shadow")); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// adopt mounts srv as the registry's default collection, the way
// frapp-server serves its flag-configured collection.
func adopt(reg *telemetry.Registry, srv *service.Server) (*registry.Registry, http.Handler, error) {
	tenants, err := registry.New(registry.Options{Metrics: reg})
	if err != nil {
		return nil, nil, err
	}
	if _, err := tenants.Adopt(registry.DefaultCollection, srv); err != nil {
		tenants.Close()
		return nil, nil, err
	}
	return tenants, tenants.Handler(), nil
}

func (e *ingestJSON) metrics() *telemetry.Registry { return e.reg }

func (e *ingestJSON) warm(r *run) error {
	var w respWriter
	for i := 0; i < len(e.col.batches)/4; i++ {
		if _, err := e.col.send(&w, false); err != nil {
			return err
		}
	}
	return nil
}

// jsonQueryEvery is how many submits a collector sends per 32-filter
// query: the query_p50_ms samples are spread over the whole phase, so
// they see the same host as the submits instead of one short burst.
const jsonQueryEvery = 64

func (e *ingestJSON) phase(r *run, deadline time.Time) {
	writers := make([]respWriter, jsonClients)
	var (
		flushes atomic.Int64
		queries opLog
	)
	loop(jsonClients, deadline, r.traced(), &r.ops, func(c int, seq int64, traced bool) (float64, func(), error) {
		var i int
		err := r.opTracer(traced).time("service.submit_batch", seq, jsonBatch, func() error {
			var err error
			i, err = e.col.send(&writers[c], true)
			return err
		})
		return jsonBatch, func() {
			if err == nil && traced {
				if err := e.sh.apply(seq, e.col.batches[i].items); err == nil && flushes.Add(1)%shadowFlushEvery == 0 {
					_ = e.sh.flush()
				}
			}
			if seq%jsonQueryEvery == jsonQueryEvery-1 {
				t0 := time.Now()
				_, err := queryOnce(e.h, "/v1/query", e.filters)
				queries.add(time.Since(t0), false, 0, err)
			}
		}, err
	})
	r.records = e.col.phaseRec.Load()
	r.query = queries.lat
	r.aux(&queries)
}

func (e *ingestJSON) check(r *run) {
	e.col.checkRecords(r, "")
	checkMineVsQuery(r, e.h, "")
}

func (e *ingestJSON) layers(r *run) error {
	sc := dataset.CensusSchema()
	fs, err := itemsets(sc, e.filters)
	if err != nil {
		return err
	}
	if err := e.sh.finish(fs); err != nil {
		return err
	}
	if err := routeSample(r, e.h, "", e.srv.Handler(), routeSamples); err != nil {
		return err
	}
	if err := createReplay(r, e.tenants, e.h, "gamma"); err != nil {
		return err
	}
	if err := experimentReplay(r, e.pool); err != nil {
		return err
	}
	tracerLayers(r)
	serviceLayers(r, r.expo, e.col.phaseRec.Load(), e.col.wire.Load(), r.tr.usPerWork("mining.apply"))
	r.layer["service.allocs_per_record"] = float64(r.phaseAllocs) / float64(max(r.records, 1))
	return nil
}

func (e *ingestJSON) close() {
	e.sh.close()
	if e.tenants != nil {
		e.tenants.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
}

// ---- ingest-durable ----

// ingestDurable: one closed-loop collector sends 4096-record binary
// batches to a store-backed MASK collection (frapp-server -state: the
// adopted default collection over service.NewServer + WithStore). The
// collection is prefilled, checkpointed, closed and recovered in set-up.
// The ticker is pushed out; instead a second goroutine calls FlushWAL
// after every durableFlushEvery acknowledged records, and the timed phase
// ends when the final FlushWAL and CheckpointNow return.
type ingestDurable struct {
	reg     *telemetry.Registry
	dir     string
	srv     *service.Server
	tenants *registry.Registry
	h       http.Handler
	pool    *dataset.Database
	col     *collector
	filters []service.QueryFilter
	sh      *shadow
}

const (
	durablePool  = 1 << 19
	durableBatch = 4096
	// durableFlushEvery is one pass over the pool: each append then
	// carries a delta over most of the joint, and the collector runs
	// between appends instead of behind a back-to-back flusher.
	durableFlushEvery = durablePool
)

func setupIngestDurable(r *run) (env, error) {
	e := &ingestDurable{reg: telemetry.NewRegistry(), filters: queryFilters(r.seed),
		dir: filepath.Join(r.dir, fmt.Sprintf("state-%d", r.setupRep))}
	if err := e.open(nil); err != nil {
		return nil, err
	}
	var err error
	if e.pool, err = population(r, durablePool, r.seed); err != nil {
		e.close()
		return nil, err
	}
	client, err := newClient(e.h, "")
	if err != nil {
		e.close()
		return nil, err
	}
	batches, err := prepare(r, client, e.pool, durableBatch, service.WireBinary, r.seed)
	if err != nil {
		e.close()
		return nil, err
	}
	e.col = newCollector(e.h, "/v1/submit-batch", batches)
	var w respWriter
	for range batches {
		if _, err := e.col.send(&w, false); err != nil {
			e.close()
			return nil, err
		}
	}
	if err := e.srv.CheckpointNow(); err != nil {
		e.close()
		return nil, err
	}
	if err := e.restart(r); err != nil {
		return nil, err
	}
	if r.traced() {
		if e.sh, err = newShadow(r.tr, e.srv.CounterScheme(), ""); err != nil {
			e.close()
			return nil, err
		}
		for i, b := range batches {
			if err := e.sh.apply(int64(-1-i), b.items); err != nil {
				e.close()
				return nil, err
			}
		}
		if err := e.sh.flush(); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// open builds the store-backed server over e.dir, recovering whatever the
// directory holds, and mounts it. With tr set the open is timed as
// store.recover: the restarts pass it, the first open of the empty
// directory in set-up does not.
func (e *ingestDurable) open(tr *tracer) error {
	var st *store.FileStore
	err := tr.time("store.recover", 0, 0, func() error {
		var err error
		if st, err = store.Open(e.dir, store.WithSyncMode(store.SyncAlways)); err != nil {
			return err
		}
		e.srv, err = service.NewServer(dataset.CensusSchema(), privacy, service.WithScheme("mask"),
			service.WithTelemetry(e.reg), service.WithStore(st),
			service.WithCheckpointEvery(math.MaxInt), service.WithWALFlushInterval(24*time.Hour))
		if err != nil {
			st.Close()
		}
		return err
	})
	if err != nil {
		return err
	}
	if e.tenants, e.h, err = adopt(e.reg, e.srv); err != nil {
		e.srv.Close()
		e.srv = nil
		return err
	}
	if e.col != nil {
		e.col.h = e.h
	}
	return nil
}

// restart closes the server (its store appends the pending tail) and
// recovers it from the state directory.
func (e *ingestDurable) restart(r *run) error {
	e.tenants.Close()
	e.srv.Close()
	e.srv, e.tenants = nil, nil
	return e.open(r.tr)
}

func (e *ingestDurable) metrics() *telemetry.Registry { return e.reg }

func (e *ingestDurable) warm(r *run) error {
	var w respWriter
	for i := 0; i < 8; i++ {
		if _, err := e.col.send(&w, false); err != nil {
			return err
		}
	}
	return e.srv.FlushWAL()
}

func (e *ingestDurable) phase(r *run, deadline time.Time) {
	t0 := time.Now()
	var (
		w       respWriter
		wg      sync.WaitGroup
		notify  = make(chan struct{}, 1)
		stop    = make(chan struct{})
		flushMu sync.Mutex
		flushE  error
	)
	flush := func() {
		err := r.tr.time("store.flush_wal", 0, 0, e.srv.FlushWAL)
		if err == nil && e.sh != nil {
			err = e.sh.flush()
		}
		if err != nil {
			flushMu.Lock()
			flushE = err
			flushMu.Unlock()
		}
	}
	wg.Add(1)
	go func() { // the flush trigger
		defer wg.Done()
		flushed := e.col.acked.Load()
		for {
			select {
			case <-stop:
				return
			case <-notify:
				if n := e.col.acked.Load(); n-flushed >= durableFlushEvery {
					flushed = n
					flush()
				}
			}
		}
	}()
	loop(1, deadline, r.traced(), &r.ops, func(_ int, seq int64, traced bool) (float64, func(), error) {
		var i int
		err := r.opTracer(traced).time("service.submit_batch", seq, durableBatch, func() error {
			var err error
			i, err = e.col.send(&w, true)
			return err
		})
		if err == nil {
			select {
			case notify <- struct{}{}:
			default:
			}
		}
		if err != nil || !traced {
			return durableBatch, nil, err
		}
		return durableBatch, func() { _ = e.sh.apply(seq, e.col.batches[i].items) }, nil
	})
	close(stop)
	wg.Wait()
	flush()
	err := r.tr.time("store.checkpoint_now", 0, 0, e.srv.CheckpointNow)
	r.records = e.col.phaseRec.Load()
	// Every record acknowledged in the phase is durable only once the
	// final flush and checkpoint return, so the rate spans them too.
	r.rate = float64(r.records) / time.Since(t0).Seconds()
	r.check("wal_flush", flushE == nil, fmt.Sprint(flushE))
	r.check("checkpoint", err == nil, fmt.Sprint(err))
}

func (e *ingestDurable) check(r *run) {
	e.col.checkRecords(r, "")
	before := timeQueries(r, e.h, "/v1/query", e.filters, 5)
	if r.traced() {
		// A mine over the ~0.5M distinct rows takes seconds, so only the
		// traced run pays for it (it measures the job layer here).
		checkMineVsQuery(r, e.h, "")
	}
	if err := e.restart(r); err != nil {
		r.check("restart", false, err.Error())
		return
	}
	st, err := stats(e.h, "")
	if err != nil {
		r.check("recovered_records", false, err.Error())
		return
	}
	r.check("recovered_records", int64(st.Records) == e.col.acked.Load(),
		fmt.Sprintf("recovered %d records, %d acknowledged", st.Records, e.col.acked.Load()))
	after, err := queryOnce(e.h, "/v1/query", e.filters)
	if err != nil || before == nil {
		r.check("recovered_query", false, fmt.Sprint("query around the restart failed: ", err))
		return
	}
	ok, detail := sameEstimates(before, after)
	r.check("recovered_query", ok, detail)
}

// sameEstimates compares two query answers to 1e-9 (relative to each
// count, absolute below one record).
func sameEstimates(a, b *service.QueryResponse) (bool, string) {
	if a.Records != b.Records || len(a.Estimates) != len(b.Estimates) {
		return false, fmt.Sprintf("records %d vs %d, %d vs %d estimates", a.Records, b.Records, len(a.Estimates), len(b.Estimates))
	}
	for i := range a.Estimates {
		x, y := a.Estimates[i], b.Estimates[i]
		if math.Abs(x.Count-y.Count) > 1e-9*math.Max(1, math.Abs(x.Count)) ||
			math.Abs(x.StdErr-y.StdErr) > 1e-9*math.Max(1, math.Abs(x.StdErr)) {
			return false, fmt.Sprintf("filter %d: count %v±%v vs %v±%v", i, x.Count, x.StdErr, y.Count, y.StdErr)
		}
	}
	return true, ""
}

func (e *ingestDurable) layers(r *run) error {
	fs, err := itemsets(dataset.CensusSchema(), e.filters)
	if err != nil {
		return err
	}
	if err := e.sh.finish(fs); err != nil {
		return err
	}
	if err := routeSample(r, e.h, "", e.srv.Handler(), routeSamples); err != nil {
		return err
	}
	if err := createReplay(r, e.tenants, e.h, "mask"); err != nil {
		return err
	}
	if err := experimentReplay(r, &dataset.Database{Schema: e.pool.Schema, Records: e.pool.Records[:50000]}); err != nil {
		return err
	}
	tracerLayers(r)
	serviceLayers(r, r.expo, e.col.phaseRec.Load(), e.col.wire.Load(), r.tr.usPerWork("mining.apply"))
	r.layer["service.allocs_per_record"] = float64(r.phaseAllocs) / float64(max(r.records, 1))
	// The store is on this workload's path: its metrics come from the
	// server's own WAL and checkpoint instruments.
	x, L := r.expo, r.layer
	L["store.append_ms"] = x.meanMs("frapp_wal_append_seconds", nil)
	L["store.fsync_ms"] = x.meanMs("frapp_wal_fsync_seconds", nil)
	L["store.wal_bytes_per_record"] = finite(x.sum("frapp_wal_appended_bytes_total", nil) / x.sum("frapp_wal_appended_records_total", nil))
	L["store.checkpoint_ms"] = x.meanMs("frapp_checkpoint_seconds", nil)
	if v, ok := x.after.Value("frapp_checkpoint_state_bytes", nil); ok {
		L["store.checkpoint_bytes"] = v
	}
	return nil
}

func (e *ingestDurable) close() {
	e.sh.close()
	if e.tenants != nil {
		e.tenants.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
}
