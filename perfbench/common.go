package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/mining"
	"repro/internal/query"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/store"
)

// privacy is the paper's strict privacy requirement, (ρ1, ρ2) = (5%, 50%).
var privacy = core.PrivacySpec{Rho1: 0.05, Rho2: 0.50}

// minSupport is the paper's supmin, used by every mine the benchmark runs.
const minSupport = 0.02

// population generates n census records from seed, timed as the dataset
// layer.
func population(r *run, n int, seed int64) (*dataset.Database, error) {
	var db *dataset.Database
	err := r.tr.time("dataset.generate", 0, float64(n), func() error {
		var err error
		db, err = dataset.GenerateCensus(n, seed)
		return err
	})
	return db, err
}

// queryFilters draws the analyst's 32-filter batch: conjunctions of one or
// two attribute=category conditions over the census schema.
func queryFilters(seed int64) []service.QueryFilter {
	sc := dataset.CensusSchema()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]service.QueryFilter, 32)
	for i := range out {
		f := service.QueryFilter{}
		arity := 1 + i%2
		for len(f) < arity {
			a := sc.Attrs[rng.Intn(sc.M())]
			f[a.Name] = a.Categories[rng.Intn(a.Cardinality())]
		}
		out[i] = f
	}
	return out
}

// itemsetOf converts a wire filter or itemset into a canonical itemset.
func itemsetOf(sc *dataset.Schema, m map[string]string) (mining.Itemset, error) {
	items := make([]mining.Item, 0, len(m))
	for name, cat := range m {
		j := -1
		for k, a := range sc.Attrs {
			if a.Name == name {
				j = k
			}
		}
		if j < 0 {
			return nil, fmt.Errorf("unknown attribute %q", name)
		}
		v := sc.Attrs[j].CategoryIndex(cat)
		if v < 0 {
			return nil, fmt.Errorf("unknown category %q of %q", cat, name)
		}
		items = append(items, mining.Item{Attr: j, Value: v})
	}
	return mining.NewItemset(items...)
}

func itemsets(sc *dataset.Schema, fs []service.QueryFilter) ([]mining.Itemset, error) {
	out := make([]mining.Itemset, len(fs))
	for i, f := range fs {
		s, err := itemsetOf(sc, f)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// newClient builds a service.Client against base, served in-process by h.
func newClient(h http.Handler, base string) (*service.Client, error) {
	return service.NewClient("http://bench"+base, service.WithHTTPClient(&http.Client{Transport: inproc{h}}))
}

// batch is one prepared submit-batch request plus, in traced runs, the
// perturbed items it carries (for the shadow counters).
type batch struct {
	prep  *service.PreparedBatch
	items [][]mining.Item
}

// prepare perturbs db client-side into batches of size recs under wire,
// timed as the core layer's client-side preparation.
func prepare(r *run, c *service.Client, db *dataset.Database, size int, wire string, seed int64) ([]batch, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x7e57))
	var out []batch
	for lo := 0; lo < db.N(); lo += size {
		hi := min(lo+size, db.N())
		var p *service.PreparedBatch
		err := r.tr.time("core.prepare", 0, float64(hi-lo), func() error {
			var err error
			p, err = c.PrepareBatchWire(db.Records[lo:hi], rng, wire)
			return err
		})
		if err != nil {
			return nil, err
		}
		b := batch{prep: p}
		if r.tr != nil {
			if b.items, err = decodeBody(c.Schema(), c.Scheme(), p); err != nil {
				return nil, err
			}
		}
		out = append(out, b)
	}
	return out, nil
}

// decodeBody recovers the perturbed items of a prepared batch from its
// wire body: the documented binary layout ("FRB1", record count, then per
// record an item count and attr/value index pairs, all uvarints) or the
// JSON array of attribute→category(ies) objects.
func decodeBody(sc *dataset.Schema, scheme string, p *service.PreparedBatch) ([][]mining.Item, error) {
	body := p.Body()
	if p.ContentType() == service.BatchContentTypeBinary {
		if !strings.HasPrefix(string(body), "FRB1") {
			return nil, errors.New("binary batch without magic")
		}
		off := 4
		next := func() (int, error) {
			v, n := binary.Uvarint(body[off:])
			if n <= 0 {
				return 0, errors.New("truncated binary batch")
			}
			off += n
			return int(v), nil
		}
		nrec, err := next()
		if err != nil {
			return nil, err
		}
		out := make([][]mining.Item, nrec)
		for i := range out {
			k, err := next()
			if err != nil {
				return nil, err
			}
			items := make([]mining.Item, k)
			for j := range items {
				if items[j].Attr, err = next(); err != nil {
					return nil, err
				}
				if items[j].Value, err = next(); err != nil {
					return nil, err
				}
			}
			out[i] = items
		}
		return out, nil
	}
	if scheme == mining.SchemeGamma {
		var recs []service.RecordJSON
		if err := json.Unmarshal(body, &recs); err != nil {
			return nil, err
		}
		out := make([][]mining.Item, len(recs))
		for i, rj := range recs {
			s, err := itemsetOf(sc, rj)
			if err != nil {
				return nil, err
			}
			out[i] = s
		}
		return out, nil
	}
	var recs []service.BoolRecordJSON
	if err := json.Unmarshal(body, &recs); err != nil {
		return nil, err
	}
	out := make([][]mining.Item, len(recs))
	for i, rj := range recs {
		for name, cats := range rj {
			for _, cat := range cats {
				s, err := itemsetOf(sc, map[string]string{name: cat})
				if err != nil {
					return nil, err
				}
				out[i] = append(out[i], s...)
			}
		}
	}
	return out, nil
}

// submit posts one prepared batch to path through h.
func submit(h http.Handler, w *respWriter, path string, b *service.PreparedBatch) error {
	var hdr map[string]string
	if fp := b.Fingerprint(); fp != "" {
		hdr = map[string]string{service.FingerprintHeader: fp}
	}
	code, body := call(h, w, http.MethodPost, path, b.ContentType(), hdr, b.Body())
	if code != http.StatusAccepted {
		return fmt.Errorf("submit-batch: status %d: %s", code, strings.TrimSpace(string(body)))
	}
	return nil
}

// queryOnce posts the filter batch to path and returns the response.
func queryOnce(h http.Handler, path string, filters []service.QueryFilter) (*service.QueryResponse, error) {
	var qr service.QueryResponse
	err := callJSON(h, http.MethodPost, path, map[string]any{"filters": filters}, http.StatusOK, &qr)
	if err == nil && len(qr.Estimates) != len(filters) {
		err = fmt.Errorf("query: %d estimates for %d filters", len(qr.Estimates), len(filters))
	}
	return &qr, err
}

// mineJob submits a mining job under base and polls it to completion.
func mineJob(h http.Handler, base string) (*service.MineResponse, error) {
	var jr service.JobResponse
	params := service.MineParams{MinSupport: minSupport, Limit: 1 << 20}
	if err := callJSON(h, http.MethodPost, base+"/v1/mine-jobs", params, http.StatusAccepted, &jr); err != nil {
		return nil, err
	}
	for {
		var cur service.JobResponse
		if err := callJSON(h, http.MethodGet, base+"/v1/mine-jobs/"+jr.ID, nil, http.StatusOK, &cur); err != nil {
			return nil, err
		}
		switch cur.State {
		case service.JobDone:
			return cur.Result, nil
		case service.JobFailed:
			return nil, fmt.Errorf("mining job %s failed: %s", jr.ID, cur.Error)
		}
		time.Sleep(time.Millisecond)
	}
}

func stats(h http.Handler, base string) (*service.StatsResponse, error) {
	var sr service.StatsResponse
	err := callJSON(h, http.MethodGet, base+"/v1/stats", nil, http.StatusOK, &sr)
	return &sr, err
}

// collectionSpec is the registry spec of a census collection under scheme.
func collectionSpec(scheme string) registry.CollectionSpec {
	sc := dataset.CensusSchema()
	return registry.CollectionSpec{
		Schema: &registry.SchemaSpec{Name: sc.Name, Attrs: sc.Attrs},
		Scheme: scheme,
		Rho1:   privacy.Rho1,
		Rho2:   privacy.Rho2,
	}
}

// createCollection PUTs a named collection through the registry's HTTP
// surface and waits until it serves, timed as registry.create.
func createCollection(r *run, reg *registry.Registry, h http.Handler, name, scheme string) error {
	err := r.tr.time("registry.create", 0, 0, func() error {
		if err := callJSON(h, http.MethodPut, "/v1/collections/"+name, collectionSpec(scheme), http.StatusCreated, nil); err != nil {
			return err
		}
		col, err := reg.Get(name)
		if err != nil {
			return err
		}
		return col.AwaitReady()
	})
	return err
}

// timedCounter wraps a SupportCounter so each Apriori pass (one Supports
// call per itemset length) is timed and its candidates counted.
type timedCounter struct {
	mining.SupportCounter
	tr *tracer
}

func (c timedCounter) Supports(cands []mining.Itemset) ([]float64, error) {
	level := 0
	if len(cands) > 0 {
		level = len(cands[0])
	}
	var out []float64
	err := c.tr.time(fmt.Sprintf("mining.level%d", level), 0, float64(len(cands)), func() error {
		var err error
		out, err = c.SupportCounter.Supports(cands)
		return err
	})
	return out, err
}

// tracedApriori mines c at supmin through the timing wrapper, crediting
// mining.apriori and the frequent-itemset count.
func tracedApriori(tr *tracer, c mining.SupportCounter) (*mining.Result, error) {
	var res *mining.Result
	err := tr.time("mining.apriori", 0, 0, func() error {
		var err error
		res, err = mining.AprioriWithOptions(timedCounter{c, tr}, minSupport, mining.Options{CandidateRelaxation: 1})
		return err
	})
	if err == nil {
		n := 0
		for _, c := range res.Counts() {
			n += c
		}
		tr.add("mining.frequent", 0, float64(n))
	}
	return res, err
}

// storeObs records a shadow store's appends, checkpoints and recovery as
// layer spans, with the same quantities the server's telemetry exports.
type storeObs struct{ tr *tracer }

func (o storeObs) ObserveAppend(bytes, records int, fsync, total time.Duration, err error) {
	if err != nil || (bytes == 0 && records == 0) {
		return
	}
	o.tr.add("store.append", total, float64(records))
	o.tr.add("store.fsync", fsync, 0)
	o.tr.add("store.wal_bytes", 0, float64(bytes))
}

func (o storeObs) ObserveCheckpoint(stateBytes int, total time.Duration, err error) {
	if err == nil {
		o.tr.add("store.checkpoint", total, float64(stateBytes))
	}
}

func (o storeObs) ObserveWALSize(int64)             {}
func (o storeObs) ObserveRecovery(int, bool, error) {}

// shadow is the traced run's replica of the counting layers: a
// ShardedCounter fed the same perturbed items the workload submits, on
// which mining, query and (optionally) store calls are timed from
// outside. A second counter carries the shadow store, so the timed delta
// extraction on the first never shortcuts the store's own append.
type shadow struct {
	mu      sync.Mutex // serializes the clients that feed the shadow
	tr      *tracer
	scheme  mining.CounterScheme
	c       *mining.ShardedCounter
	tok     uint64
	stc     *mining.ShardedCounter
	st      *store.FileStore
	dir     string
	pending int
}

// newShadow builds the shadow for scheme; with dir set it also attaches a
// shadow FileStore there.
func newShadow(tr *tracer, scheme mining.CounterScheme, dir string) (*shadow, error) {
	c, err := mining.NewShardedCounter(scheme, 0)
	if err != nil {
		return nil, err
	}
	sh := &shadow{tr: tr, scheme: scheme, c: c, dir: dir}
	if dir != "" {
		if sh.stc, sh.st, err = sh.openStore(nil); err != nil {
			return nil, err
		}
	}
	return sh, nil
}

// openStore opens the shadow store and recovers its counter, timing the
// recovery as store.recover when rt is set.
func (sh *shadow) openStore(rt *tracer) (*mining.ShardedCounter, *store.FileStore, error) {
	st, err := store.Open(sh.dir)
	if err != nil {
		return nil, nil, err
	}
	st.SetObserver(storeObs{sh.tr})
	var c *mining.ShardedCounter
	err = rt.time("store.recover", 0, 0, func() error {
		var err error
		if c, err = st.Recover(sh.scheme, 0); err == nil && c == nil {
			c, err = mining.NewShardedCounter(sh.scheme, 0)
		}
		return err
	})
	if err == nil {
		err = st.Attach(c)
	}
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	return c, st, nil
}

// apply ingests one batch into the shadow, timed as mining.apply.
func (sh *shadow) apply(op int64, items [][]mining.Item) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	err := sh.tr.time("mining.apply", op, float64(len(items)), func() error {
		return sh.c.IngestBatch(items)
	})
	if err == nil && sh.stc != nil {
		err = sh.stc.IngestBatch(items)
	}
	sh.pending += len(items)
	return err
}

// flush extracts the delta since the previous flush (mining.delta) and,
// with a shadow store, appends the store counter's delta to its WAL.
func (sh *shadow) flush() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.flushLocked()
}

func (sh *shadow) flushLocked() error {
	if sh.pending == 0 {
		return nil
	}
	sh.pending = 0
	var d *mining.CounterDelta
	err := sh.tr.time("mining.delta", 0, 0, func() error {
		var err error
		d, err = sh.c.DeltaSince(sh.tok)
		return err
	})
	if err != nil {
		return err
	}
	sh.tok = d.ToVersion
	sh.tr.add("mining.delta_cells", 0, float64(len(d.Cells)))
	if sh.st != nil {
		return sh.st.Append()
	}
	return nil
}

// finish times the read side on the shadow — snapshot, Apriori through
// the timing wrapper, filter estimates, the query engine — and the shadow
// store's checkpoint and recovery.
func (sh *shadow) finish(filters []mining.Itemset) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.flushLocked(); err != nil {
		return err
	}
	full, err := sh.c.DeltaSince(0)
	if err != nil {
		return err
	}
	sh.tr.add("mining.joint_cells", 0, float64(len(full.Cells)))
	var snap mining.SupportCounter
	sh.tr.time("mining.snapshot", 0, 0, func() error {
		snap = sh.c.Snapshot()
		return nil
	})
	if _, err := tracedApriori(sh.tr, snap); err != nil {
		return err
	}
	for i := 0; i < 8; i++ {
		if err := sh.tr.time("mining.estimates", 0, float64(len(filters)), func() error {
			_, _, err := sh.c.Estimates(filters)
			return err
		}); err != nil {
			return err
		}
		if err := sh.tr.time("query.count_all", 0, float64(len(filters)), func() error {
			eng, err := query.NewLiveCounterEngine(sh.c)
			if err == nil {
				_, err = eng.CountAll(filters)
			}
			return err
		}); err != nil {
			return err
		}
	}
	if sh.st == nil {
		return nil
	}
	if err := sh.st.Checkpoint(); err != nil {
		return err
	}
	if err := sh.st.Close(); err != nil {
		return err
	}
	c, st, err := sh.openStore(sh.tr)
	if err != nil {
		return err
	}
	sh.stc, sh.st = c, st
	if c.N() != sh.c.N() {
		return fmt.Errorf("shadow store recovered %d records, want %d", c.N(), sh.c.N())
	}
	return nil
}

func (sh *shadow) close() {
	if sh != nil && sh.st != nil {
		sh.st.Close()
	}
}

// schemeSlug maps the paper's scheme labels onto metric-name slugs.
var schemeSlug = map[experiment.Scheme]string{
	experiment.RanGD: "rangd", experiment.DetGD: "detgd", experiment.Mask: "mask", experiment.CutPaste: "cutpaste",
}

// studyFigure runs Figure 1 for one bundle the way AccuracyStudy does —
// experiment.RunScheme for each of the four schemes, in order — timing
// each scheme run as a span.
func studyFigure(tr *tracer, b *experiment.Bundle, cfg experiment.Config) (*experiment.AccuracyFigure, error) {
	fig := &experiment.AccuracyFigure{Dataset: b.Name, MaxLen: b.MaxLen()}
	for _, s := range experiment.AllSchemes() {
		var run *experiment.SchemeRun
		err := tr.time("experiment.scheme."+schemeSlug[s], 0, float64(b.DB.N()), func() error {
			var err error
			run, err = experiment.RunScheme(b, s, cfg)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("scheme %s: %w", s, err)
		}
		fig.Runs = append(fig.Runs, run)
	}
	return fig, nil
}

// decompose re-runs the layers of each scheme run in fig from outside:
// metrics.Evaluate on its result, the core perturbation, and Apriori on
// the offline counter through the timing wrapper. The re-run must mine
// exactly what RunScheme mined, so a replay that no longer follows
// RunScheme fails instead of timing some other path.
func decompose(tr *tracer, b *experiment.Bundle, fig *experiment.AccuracyFigure, cfg experiment.Config) error {
	for _, run := range fig.Runs {
		if err := tr.time("experiment.evaluate", 0, 0, func() error {
			_, err := metrics.Evaluate(b.Truth, run.Mined)
			return err
		}); err != nil {
			return err
		}
		counter, err := perturbFor(tr, b, run.Scheme, cfg)
		if err != nil {
			return err
		}
		mined, err := tracedApriori(tr, counter)
		if err != nil {
			return err
		}
		if err := sameMined(mined, run.Mined); err != nil {
			return fmt.Errorf("scheme %s replay: %w", run.Scheme, err)
		}
	}
	return nil
}

// sameMined reports how got differs from want, itemset by itemset.
func sameMined(got, want *mining.Result) error {
	g, w := got.All(), want.All()
	if len(g) != len(w) {
		return fmt.Errorf("%d frequent itemsets, RunScheme mined %d", len(g), len(w))
	}
	for k, f := range w {
		if h, ok := g[k]; !ok || h.Support != f.Support {
			return fmt.Errorf("itemset %s: support %v, RunScheme mined %v", k, h.Support, f.Support)
		}
	}
	return nil
}

// perturbFor perturbs b under scheme s with the public core calls
// RunScheme makes — the same random stream and the same counter — timed
// as core.perturb.<scheme>, and returns the offline support counter over
// the perturbed data.
func perturbFor(tr *tracer, b *experiment.Bundle, s experiment.Scheme, cfg experiment.Config) (mining.SupportCounter, error) {
	gamma, err := cfg.Gamma()
	if err != nil {
		return nil, err
	}
	// RunScheme's stream: distinct per (seed, scheme, dataset size).
	var schemeHash int64
	for _, c := range s {
		schemeHash = schemeHash*131 + int64(c)
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ schemeHash<<24 ^ int64(b.DB.N())))
	var counter mining.SupportCounter
	err = tr.time("core.perturb."+schemeSlug[s], 0, float64(b.DB.N()), func() error {
		switch s {
		case experiment.DetGD:
			m, err := core.NewGammaDiagonal(b.DB.Schema.DomainSize(), gamma)
			if err != nil {
				return err
			}
			p, err := core.NewGammaPerturber(b.DB.Schema, m)
			if err != nil {
				return err
			}
			pdb, err := core.PerturbDatabase(b.DB, p, rng)
			if err != nil {
				return err
			}
			counter, err = mining.NewGammaCounter(pdb, m)
			return err
		case experiment.RanGD:
			m, err := core.NewGammaDiagonal(b.DB.Schema.DomainSize(), gamma)
			if err != nil {
				return err
			}
			p, err := core.NewRandomizedGammaPerturber(b.DB.Schema, m, cfg.AlphaFraction*m.Diag)
			if err != nil {
				return err
			}
			pdb, err := core.PerturbDatabase(b.DB, p, rng)
			if err != nil {
				return err
			}
			counter, err = mining.NewGammaCounter(pdb, p.ExpectedMatrix())
			return err
		case experiment.Mask:
			bm, err := core.NewBoolMapping(b.DB.Schema)
			if err != nil {
				return err
			}
			sch, err := core.NewMaskSchemeForPrivacy(bm, gamma)
			if err != nil {
				return err
			}
			bdb, err := sch.PerturbDatabase(b.DB, rng)
			counter = &mining.MaskCounter{Perturbed: bdb, Scheme: sch}
			return err
		case experiment.CutPaste:
			bm, err := core.NewBoolMapping(b.DB.Schema)
			if err != nil {
				return err
			}
			sch, err := core.NewCutPasteScheme(bm, cfg.CnPK, cfg.CnPRho)
			if err != nil {
				return err
			}
			bdb, err := sch.PerturbDatabase(b.DB, rng)
			counter = &mining.CutPasteCounter{Perturbed: bdb, Scheme: sch}
			return err
		}
		return fmt.Errorf("unknown scheme %q", s)
	})
	return counter, err
}

// experimentReplay runs the Figure 1 decomposition on a census bundle
// built from db, so the service workloads also report the core
// perturbation and experiment layers on their own population.
func experimentReplay(r *run, db *dataset.Database) error {
	cfg := experiment.DefaultConfig()
	cfg.Seed = r.seed
	truth, err := mining.Apriori(&mining.ExactCounter{DB: db}, cfg.MinSupport)
	if err != nil {
		return err
	}
	// A separate tracer keeps the replay's Apriori passes out of the
	// workload's own mining.* metrics.
	sub := newTracer()
	b := &experiment.Bundle{Name: "CENSUS", DB: db, Truth: truth}
	fig, err := studyFigure(sub, b, cfg)
	if err != nil {
		return err
	}
	if err := decompose(sub, b, fig, cfg); err != nil {
		return err
	}
	r.tr.absorb(sub, "experiment.", "core.perturb.")
	return nil
}
