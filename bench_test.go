package frapp

// One benchmark per table and figure of the paper's evaluation
// (Section 7), plus ablation benches for the design decisions called out
// in DESIGN.md §5. Each figure bench runs the same harness the
// frapp-bench command uses, at the paper's dataset sizes; the ablations
// isolate individual mechanisms.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/linalg"
	"repro/internal/mining"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/stats"
)

var benchState struct {
	once   sync.Once
	cfg    experiment.Config
	census *experiment.Bundle
	health *experiment.Bundle
	err    error
}

// benchBundles prepares the paper-scale datasets once for all benches.
func benchBundles(b *testing.B) (experiment.Config, *experiment.Bundle, *experiment.Bundle) {
	b.Helper()
	benchState.once.Do(func() {
		benchState.cfg = experiment.DefaultConfig()
		benchState.census, benchState.err = experiment.LoadCensus(benchState.cfg)
		if benchState.err != nil {
			return
		}
		benchState.health, benchState.err = experiment.LoadHealth(benchState.cfg)
	})
	if benchState.err != nil {
		b.Fatal(benchState.err)
	}
	return benchState.cfg, benchState.census, benchState.health
}

// BenchmarkTable1CensusSchema regenerates the paper's Table 1.
func BenchmarkTable1CensusSchema(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiment.Table1() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2HealthSchema regenerates the paper's Table 2.
func BenchmarkTable2HealthSchema(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiment.Table2() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable3FrequentItemsets regenerates Table 3: exact Apriori over
// both datasets at supmin = 2%.
func BenchmarkTable3FrequentItemsets(b *testing.B) {
	cfg, census, health := benchBundles(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bun := range []*experiment.Bundle{census, health} {
			res, err := mining.Apriori(&mining.ExactCounter{DB: bun.DB}, cfg.MinSupport)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.ByLength) == 0 {
				b.Fatal("no frequent itemsets")
			}
		}
	}
	b.ReportMetric(float64(len(census.Truth.Counts())), "census-max-len")
	b.ReportMetric(float64(len(health.Truth.Counts())), "health-max-len")
}

// BenchmarkFig1CensusAccuracy regenerates Figure 1: all four schemes'
// support and identity errors on CENSUS.
func BenchmarkFig1CensusAccuracy(b *testing.B) {
	cfg, census, _ := benchBundles(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := experiment.AccuracyStudy(census, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Runs) != 4 {
			b.Fatal("missing scheme runs")
		}
	}
}

// BenchmarkFig2HealthAccuracy regenerates Figure 2 on HEALTH.
func BenchmarkFig2HealthAccuracy(b *testing.B) {
	cfg, _, health := benchBundles(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := experiment.AccuracyStudy(health, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Runs) != 4 {
			b.Fatal("missing scheme runs")
		}
	}
}

// BenchmarkFig3Randomization regenerates Figure 3: the α sweep of
// posterior ranges and length-4 support errors (CENSUS panel; the HEALTH
// panel is the same harness on the other bundle).
func BenchmarkFig3Randomization(b *testing.B) {
	cfg, census, _ := benchBundles(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := experiment.RandomizationStudy(census, cfg, 11, 4)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Points) != 11 {
			b.Fatal("missing sweep points")
		}
	}
}

// BenchmarkFig4ConditionNumbers regenerates Figure 4: reconstruction
// matrix condition numbers per itemset length for both datasets.
func BenchmarkFig4ConditionNumbers(b *testing.B) {
	cfg, census, health := benchBundles(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bun := range []*experiment.Bundle{census, health} {
			fig, err := experiment.ConditionStudy(bun, cfg, bun.DB.Schema.M())
			if err != nil {
				b.Fatal(err)
			}
			if len(fig.Lengths) != bun.DB.Schema.M() {
				b.Fatal("missing lengths")
			}
		}
	}
}

// --- Ablation: closed-form vs LU reconstruction solve (DESIGN.md §5) ---

func benchSolveSetup(b *testing.B) (core.UniformMatrix, []float64) {
	b.Helper()
	m, err := core.NewGammaDiagonal(2000, 19)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	y := make([]float64, 2000)
	for i := range y {
		y[i] = rng.Float64() * 100
	}
	return m, y
}

func BenchmarkAblationSolverClosedForm(b *testing.B) {
	m, y := benchSolveSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSolverLU(b *testing.B) {
	m, y := benchSolveSetup(b)
	dense := m.Dense()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.Solve(dense, y); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: Section 5 perturbation, O(M) chained vs O(|S_V|) naive ---

func benchPerturbSetup(b *testing.B) (*dataset.Schema, core.UniformMatrix, dataset.Record) {
	b.Helper()
	s := dataset.CensusSchema()
	m, err := core.NewGammaDiagonal(s.DomainSize(), 19)
	if err != nil {
		b.Fatal(err)
	}
	return s, m, dataset.Record{0, 1, 1, 0, 1, 0}
}

func BenchmarkAblationPerturbChained(b *testing.B) {
	s, m, rec := benchPerturbSetup(b)
	p, err := core.NewGammaPerturber(s, m)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Perturb(rec, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPerturbNaiveCDF(b *testing.B) {
	s, m, rec := benchPerturbSetup(b)
	p, err := core.NewNaiveGammaPerturber(s, m)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Perturb(rec, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: discrete sampling, alias method vs linear CDF walk ---

func benchSamplerWeights(b *testing.B) []float64 {
	b.Helper()
	rng := rand.New(rand.NewSource(4))
	w := make([]float64, 2000)
	for i := range w {
		w[i] = rng.Float64()
	}
	return w
}

func BenchmarkAblationSamplingAlias(b *testing.B) {
	s, err := stats.NewAliasSampler(benchSamplerWeights(b))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(rng)
	}
}

func BenchmarkAblationSamplingCDF(b *testing.B) {
	s, err := stats.NewCDFSampler(benchSamplerWeights(b))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(rng)
	}
}

// --- Scheme perturbation throughput (records/op) ---

func BenchmarkPerturbThroughputDetGD(b *testing.B) {
	_, census, _ := benchBundles(b)
	m, err := core.NewGammaDiagonal(census.DB.Schema.DomainSize(), 19)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewGammaPerturber(census.DB.Schema, m)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PerturbDatabase(census.DB, p, rng); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(census.DB.N()), "records/op")
}

func BenchmarkPerturbThroughputMask(b *testing.B) {
	_, census, _ := benchBundles(b)
	bm, err := core.NewBoolMapping(census.DB.Schema)
	if err != nil {
		b.Fatal(err)
	}
	sch, err := core.NewMaskSchemeForPrivacy(bm, 19)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sch.PerturbDatabase(census.DB, rng); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(census.DB.N()), "records/op")
}

func BenchmarkPerturbThroughputCutPaste(b *testing.B) {
	_, census, _ := benchBundles(b)
	bm, err := core.NewBoolMapping(census.DB.Schema)
	if err != nil {
		b.Fatal(err)
	}
	sch, err := core.NewCutPasteScheme(bm, 3, 0.494)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sch.PerturbDatabase(census.DB, rng); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(census.DB.N()), "records/op")
}

// BenchmarkMiningReconstruction isolates the miner-side cost: Apriori
// with gamma reconstruction over a pre-perturbed CENSUS database.
func BenchmarkMiningReconstruction(b *testing.B) {
	cfg, census, _ := benchBundles(b)
	m, err := core.NewGammaDiagonal(census.DB.Schema.DomainSize(), 19)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewGammaPerturber(census.DB.Schema, m)
	if err != nil {
		b.Fatal(err)
	}
	pdb, err := core.PerturbDatabase(census.DB, p, rand.New(rand.NewSource(10)))
	if err != nil {
		b.Fatal(err)
	}
	counter, err := mining.NewGammaCounter(pdb, m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mining.Apriori(counter, cfg.MinSupport); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension benches: classification and the collection service ---

// BenchmarkPrivateNaiveBayesTrain measures training the Naive Bayes
// classifier from gamma-perturbed CENSUS data (reconstruction included).
func BenchmarkPrivateNaiveBayesTrain(b *testing.B) {
	_, census, _ := benchBundles(b)
	m, err := core.NewGammaDiagonal(census.DB.Schema.DomainSize(), 19)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewGammaPerturber(census.DB.Schema, m)
	if err != nil {
		b.Fatal(err)
	}
	pdb, err := core.PerturbDatabase(census.DB, p, rand.New(rand.NewSource(11)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := classify.TrainPerturbed(pdb, m, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceSubmit measures the HTTP submission path end to end
// (client-side perturbation + POST + server-side validation/storage).
func BenchmarkServiceSubmit(b *testing.B) {
	srv, err := service.NewServer(dataset.CensusSchema(), core.PrivacySpec{Rho1: 0.05, Rho2: 0.50})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client, err := service.NewClient(ts.URL, service.WithHTTPClient(ts.Client()))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	rec := dataset.Record{0, 1, 1, 0, 1, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Submit(rec, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCounterScan vs BenchmarkAblationCounterMaterialized:
// the per-query database-scanning counter against the live counter, for
// repeated mining of the same collection (the service's workload). The
// live counter pays one joint-histogram cell per insert, so each mining
// pass costs a fold of the joint, the derivation of the subset
// histograms its candidates touch and O(candidates) lookups, never a
// scan of the records.
func BenchmarkAblationCounterScan(b *testing.B) {
	cfg, census, _ := benchBundles(b)
	m, err := core.NewGammaDiagonal(census.DB.Schema.DomainSize(), 19)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewGammaPerturber(census.DB.Schema, m)
	if err != nil {
		b.Fatal(err)
	}
	pdb, err := core.PerturbDatabase(census.DB, p, rand.New(rand.NewSource(13)))
	if err != nil {
		b.Fatal(err)
	}
	counter, err := mining.NewGammaCounter(pdb, m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mining.Apriori(counter, cfg.MinSupport); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCounterMaterialized(b *testing.B) {
	cfg, census, _ := benchBundles(b)
	m, err := core.NewGammaDiagonal(census.DB.Schema.DomainSize(), 19)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewGammaPerturber(census.DB.Schema, m)
	if err != nil {
		b.Fatal(err)
	}
	pdb, err := core.PerturbDatabase(census.DB, p, rand.New(rand.NewSource(13)))
	if err != nil {
		b.Fatal(err)
	}
	counter, err := mining.NewShardedGammaCounter(census.DB.Schema, m, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, rec := range pdb.Records {
		if err := counter.Ingest(recordItems(rec)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mining.Apriori(counter, cfg.MinSupport); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaterializedInsert isolates the per-record ingestion cost of
// the gamma live counter: validation plus one joint-histogram cell.
func BenchmarkMaterializedInsert(b *testing.B) {
	_, census, _ := benchBundles(b)
	m, err := core.NewGammaDiagonal(census.DB.Schema.DomainSize(), 19)
	if err != nil {
		b.Fatal(err)
	}
	counter, err := mining.NewShardedGammaCounter(census.DB.Schema, m, 1)
	if err != nil {
		b.Fatal(err)
	}
	items := recordItems(dataset.Record{0, 1, 1, 0, 1, 0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := counter.Ingest(items); err != nil {
			b.Fatal(err)
		}
	}
}

// recordItems converts a categorical record into the item list Ingest
// accepts: one item per attribute.
func recordItems(rec dataset.Record) []mining.Item {
	items := make([]mining.Item, len(rec))
	for j, v := range rec {
		items[j] = mining.Item{Attr: j, Value: v}
	}
	return items
}

// --- Concurrent ingestion: single-mutex vs sharded counter ---

// benchConcurrentIngest splits b.N submissions across g goroutines — the
// shape of g HTTP handlers draining a busy submit endpoint.
func benchConcurrentIngest(b *testing.B, c *mining.ShardedCounter, g int) {
	b.Helper()
	recs := [4]dataset.Record{
		{0, 1, 1, 0, 1, 0},
		{1, 0, 2, 1, 0, 1},
		{2, 1, 0, 1, 1, 0},
		{0, 0, 3, 0, 0, 1},
	}
	b.ResetTimer()
	if err := core.ForEachSpan(b.N, g, func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := c.Add(recs[i&3]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkConcurrentIngest compares ingestion throughput of a
// one-shard counter (a single mutex) against a counter striped over one
// shard per core, under 1, 4, and 8 concurrent submitters. The single
// shard serializes every joint-histogram update on one lock, so its
// throughput is flat in the submitter count; the striped counter is
// expected to scale roughly linearly up to the core count.
func BenchmarkConcurrentIngest(b *testing.B) {
	sc := dataset.CensusSchema()
	m, err := core.NewGammaDiagonal(sc.DomainSize(), 19)
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("single/submitters=%d", g), func(b *testing.B) {
			c, err := mining.NewShardedGammaCounter(sc, m, 1)
			if err != nil {
				b.Fatal(err)
			}
			benchConcurrentIngest(b, c, g)
		})
		b.Run(fmt.Sprintf("sharded/submitters=%d", g), func(b *testing.B) {
			c, err := mining.NewShardedGammaCounter(sc, m, 0)
			if err != nil {
				b.Fatal(err)
			}
			benchConcurrentIngest(b, c, g)
		})
	}
}

// BenchmarkConcurrentIngestAndMine is the mixed service workload: 4
// submitters ingest while a background miner periodically snapshots and
// runs Apriori over the live counter (1ms between passes — a busy /v1/mine
// endpoint). Measures ingestion throughput under mining interference
// (the sharded counter only blocks one shard at a time while the
// snapshot folds).
func BenchmarkConcurrentIngestAndMine(b *testing.B) {
	sc := dataset.CensusSchema()
	m, err := core.NewGammaDiagonal(sc.DomainSize(), 19)
	if err != nil {
		b.Fatal(err)
	}
	const submitters = 4
	run := func(b *testing.B, c *mining.ShardedCounter) {
		// Seed so the miner always has data.
		if err := c.Add(dataset.Record{0, 1, 1, 0, 1, 0}); err != nil {
			b.Fatal(err)
		}
		stop := make(chan struct{})
		var minerWg sync.WaitGroup
		minerWg.Add(1)
		go func() {
			defer minerWg.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
				}
				snap := c.Snapshot()
				if _, err := mining.Apriori(snap, 0.05); err != nil {
					b.Error(err)
					return
				}
			}
		}()
		benchConcurrentIngest(b, c, submitters)
		b.StopTimer()
		close(stop)
		minerWg.Wait()
	}
	b.Run("single", func(b *testing.B) {
		c, err := mining.NewShardedGammaCounter(sc, m, 1)
		if err != nil {
			b.Fatal(err)
		}
		run(b, c)
	})
	b.Run("sharded", func(b *testing.B) {
		c, err := mining.NewShardedGammaCounter(sc, m, 0)
		if err != nil {
			b.Fatal(err)
		}
		run(b, c)
	})
}

// --- Mining jobs: snapshot-versioned result cache ---

// benchMineServer starts a collection service with data already
// ingested, for the cached-mining benches.
func benchMineServer(b *testing.B) (*service.Server, *service.Client) {
	b.Helper()
	srv, err := service.NewServer(dataset.CensusSchema(), core.PrivacySpec{Rho1: 0.05, Rho2: 0.50})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	client, err := service.NewClient(ts.URL, service.WithHTTPClient(ts.Client()))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	recs := make([]dataset.Record, 5000)
	for i := range recs {
		recs[i] = dataset.Record{rng.Intn(4), rng.Intn(5), rng.Intn(5), rng.Intn(5), rng.Intn(2), rng.Intn(2)}
	}
	if err := client.SubmitBatch(recs, rng); err != nil {
		b.Fatal(err)
	}
	return srv, client
}

// BenchmarkServiceMineCached measures repeated mining of an UNCHANGED
// collection end to end over HTTP: after the first request every mine
// is a cache hit keyed by (snapshot version, minsup, scheme, maxlen),
// so the cost is JSON rendering, not Apriori.
func BenchmarkServiceMineCached(b *testing.B) {
	_, client := benchMineServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Mine(0.05, 0, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceMineUncached is the contrast: one submission between
// mines bumps the snapshot version, so every request re-runs Apriori.
func BenchmarkServiceMineUncached(b *testing.B) {
	_, client := benchMineServer(b)
	rng := rand.New(rand.NewSource(15))
	rec := dataset.Record{0, 1, 1, 0, 1, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Submit(rec, rng); err != nil {
			b.Fatal(err)
		}
		if _, err := client.Mine(0.05, 0, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Interactive queries: counter-backed vs record-scan estimation ---

// benchQueryData builds a perturbed CENSUS-like collection of n records
// plus a batch of 32 conjunctive filters (arity 1–3).
func benchQueryData(b *testing.B, n int) (*dataset.Database, core.UniformMatrix, []mining.Itemset) {
	b.Helper()
	sc := dataset.CensusSchema()
	db, err := dataset.GenerateCensus(n, 21)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.NewGammaDiagonal(sc.DomainSize(), 19)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewGammaPerturber(db.Schema, m)
	if err != nil {
		b.Fatal(err)
	}
	pdb, err := core.PerturbDatabase(db, p, rand.New(rand.NewSource(22)))
	if err != nil {
		b.Fatal(err)
	}
	return pdb, m, benchFilters(b, 3, 23)
}

// BenchmarkQueryCounterVsScan compares one /v1/query-sized batch (32
// filters) answered by the record-scan engine (O(N) per filter) against
// the counter-backed engine (O(#filters) histogram lookups), at two
// collection sizes. The scan path scales with N; the counter path does
// not — that gap is why the service answers interactive queries from
// the live counter.
func BenchmarkQueryCounterVsScan(b *testing.B) {
	for _, n := range []int{5000, 50000} {
		pdb, m, filters := benchQueryData(b, n)
		b.Run(fmt.Sprintf("scan/n=%d", n), func(b *testing.B) {
			eng, err := query.NewEngine(pdb, m)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.CountAll(filters); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("counter/n=%d", n), func(b *testing.B) {
			ctr, err := mining.NewShardedGammaCounter(pdb.Schema, m, 0)
			if err != nil {
				b.Fatal(err)
			}
			if err := ctr.AddDatabase(pdb); err != nil {
				b.Fatal(err)
			}
			eng, err := query.NewLiveCounterEngine(ctr)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.CountAll(filters); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Boolean-scheme live counters: queries and batched ingest ---

// benchBoolRecords draws n perturbed CENSUS boolean records with every
// item present independently with probability 1/2 — any item set is a
// valid MASK or cut-and-paste submission — so n = 520k records yields
// about 500k distinct rows out of the 2^23 possible.
func benchBoolRecords(b *testing.B, n int, seed int64) [][]mining.Item {
	b.Helper()
	sc := dataset.CensusSchema()
	rng := rand.New(rand.NewSource(seed))
	out := make([][]mining.Item, n)
	for i := range out {
		var items []mining.Item
		for j, a := range sc.Attrs {
			for v := 0; v < a.Cardinality(); v++ {
				if rng.Intn(2) == 1 {
					items = append(items, mining.Item{Attr: j, Value: v})
				}
			}
		}
		out[i] = items
	}
	return out
}

// benchBoolCounter builds a 2-shard live counter of the named boolean
// scheme and ingests records in 4096-record batches.
func benchBoolCounter(b *testing.B, scheme string, records [][]mining.Item) *mining.ShardedCounter {
	b.Helper()
	cs, err := mining.SchemeForContract(scheme, dataset.CensusSchema(), 19)
	if err != nil {
		b.Fatal(err)
	}
	ctr, err := mining.NewShardedCounter(cs, 2)
	if err != nil {
		b.Fatal(err)
	}
	for lo := 0; lo < len(records); lo += 4096 {
		if err := ctr.IngestBatch(records[lo:min(lo+4096, len(records))]); err != nil {
			b.Fatal(err)
		}
	}
	return ctr
}

// benchFilters draws 32 CENSUS filters of arity 1..maxArity.
func benchFilters(b *testing.B, maxArity int, seed int64) []mining.Itemset {
	b.Helper()
	sc := dataset.CensusSchema()
	rng := rand.New(rand.NewSource(seed))
	filters := make([]mining.Itemset, 32)
	for i := range filters {
		arity := 1 + rng.Intn(maxArity)
		items := make([]mining.Item, arity)
		for k, j := range rng.Perm(sc.M())[:arity] {
			items[k] = mining.Item{Attr: j, Value: rng.Intn(sc.Attrs[j].Cardinality())}
		}
		f, err := mining.NewItemset(items...)
		if err != nil {
			b.Fatal(err)
		}
		filters[i] = f
	}
	return filters
}

// BenchmarkQueryBooleanCounter answers one /v1/query-sized batch (32
// filters) from MASK and cut-and-paste live counters holding about 500k
// distinct perturbed rows. Filters of arity <= 2 resolve from the bit
// moments the counter keeps at ingest; a batch with arity-3 filters
// also sweeps the distinct rows once for those.
func BenchmarkQueryBooleanCounter(b *testing.B) {
	records := benchBoolRecords(b, 520_000, 31)
	for _, scheme := range []string{mining.SchemeMask, mining.SchemeCutPaste} {
		ctr := benchBoolCounter(b, scheme, records)
		for _, maxArity := range []int{2, 3} {
			filters := benchFilters(b, maxArity, 32)
			b.Run(fmt.Sprintf("%s/arity<=%d", scheme, maxArity), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := ctr.Estimates(filters); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBooleanIngestBatch measures the per-record cost of MASK
// ingest in 4096-record batches over 2 shards — the shape of a binary
// submit-batch into a durable MASK collection. "rows=4k" ingests into a
// counter built from the same 4096 records, so its joint histogram
// stays in cache; "rows=520k" ingests them into a counter pre-filled
// with 520k distinct rows, about what each shard of a long MASK
// collection holds.
func BenchmarkBooleanIngestBatch(b *testing.B) {
	records := benchBoolRecords(b, 4096, 33)
	for _, tc := range []struct {
		name   string
		prefix [][]mining.Item
	}{
		{"rows=4k", records},
		{"rows=520k", benchBoolRecords(b, 520_000, 31)},
	} {
		ctr := benchBoolCounter(b, mining.SchemeMask, tc.prefix)
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := ctr.IngestBatch(records); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(records)), "ns/record")
		})
	}
}

// BenchmarkPerturbParallel vs the serial DET-GD throughput bench:
// client-side perturbation across a worker pool.
func BenchmarkPerturbParallel(b *testing.B) {
	_, census, _ := benchBundles(b)
	m, err := core.NewGammaDiagonal(census.DB.Schema.DomainSize(), 19)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewGammaPerturber(census.DB.Schema, m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PerturbDatabaseParallel(census.DB, p, int64(i), 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(census.DB.N()), "records/op")
}
