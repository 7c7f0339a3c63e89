package query

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mining"
)

// randomSchema builds a seeded schema with 3–4 attributes of
// cardinality 2–5 each.
func randomSchema(t *testing.T, rng *rand.Rand) *dataset.Schema {
	t.Helper()
	m := 3 + rng.Intn(2)
	attrs := make([]dataset.Attribute, m)
	for j := range attrs {
		card := 2 + rng.Intn(4)
		cats := make([]string, card)
		for v := range cats {
			cats[v] = fmt.Sprintf("a%d v%d", j, v)
		}
		attrs[j] = dataset.Attribute{Name: fmt.Sprintf("attr%d", j), Categories: cats}
	}
	s, err := dataset.NewSchema("random", attrs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomFilters samples filters of every arity 0..3 (capped at the
// schema width) over random attribute subsets and values.
func randomFilters(t *testing.T, s *dataset.Schema, rng *rand.Rand) []mining.Itemset {
	t.Helper()
	filters := []mining.Itemset{{}} // arity 0: matches everything
	maxArity := 3
	if s.M() < maxArity {
		maxArity = s.M()
	}
	for arity := 1; arity <= maxArity; arity++ {
		for trial := 0; trial < 4; trial++ {
			perm := rng.Perm(s.M())[:arity]
			items := make([]mining.Item, arity)
			for i, j := range perm {
				items[i] = mining.Item{Attr: j, Value: rng.Intn(s.Attrs[j].Cardinality())}
			}
			f, err := mining.NewItemset(items...)
			if err != nil {
				t.Fatal(err)
			}
			filters = append(filters, f)
		}
	}
	return filters
}

// TestCounterEngineMatchesScanEngine is the equivalence property: for
// seeded random schemas and perturbed databases, the counter-backed
// estimates must equal the record-scan Engine's (count, stderr, CI, N)
// to within float tolerance, across filter arities 0..3, over a sharded
// counter and over a single core — the counter path reads the same Y_L
// from histograms that the scan path counts record by record.
func TestCounterEngineMatchesScanEngine(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		s := randomSchema(t, rng)
		db := dataset.NewDatabase(s, 0)
		skew := make(dataset.Record, s.M()) // over-represented record
		n := 1000 + rng.Intn(1500)
		for i := 0; i < n; i++ {
			rec := make(dataset.Record, s.M())
			for j := range rec {
				rec[j] = rng.Intn(s.Attrs[j].Cardinality())
			}
			if rng.Float64() < 0.3 {
				copy(rec, skew)
			}
			if err := db.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		gamma := []float64{7, 19, 50}[rng.Intn(3)]
		m, err := core.NewGammaDiagonal(s.DomainSize(), gamma)
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.NewGammaPerturber(s, m)
		if err != nil {
			t.Fatal(err)
		}
		pdb, err := core.PerturbDatabase(db, p, rng)
		if err != nil {
			t.Fatal(err)
		}

		scan, err := NewEngine(pdb, m)
		if err != nil {
			t.Fatal(err)
		}
		scheme, err := mining.NewGammaScheme(s, m)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := mining.NewShardedCounter(scheme, 3)
		if err != nil {
			t.Fatal(err)
		}
		// A one-shard counter — the shape a federation coordinator serves
		// its merged view in.
		single, err := mining.NewShardedCounter(scheme, 1)
		if err != nil {
			t.Fatal(err)
		}
		counters := map[string]mining.LiveCounter{"sharded": sharded, "single": single}
		for _, ctr := range []*mining.ShardedCounter{sharded, single} {
			if err := ctr.AddDatabase(pdb); err != nil {
				t.Fatal(err)
			}
		}

		filters := randomFilters(t, s, rng)
		want, err := scan.CountAll(filters)
		if err != nil {
			t.Fatal(err)
		}
		for name, ctr := range counters {
			eng, err := NewLiveCounterEngine(ctr)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.CountAll(filters)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			for i, f := range filters {
				w, g := want[i], got[i]
				if g.N != w.N {
					t.Fatalf("seed %d %s filter %s: N %d vs scan %d", seed, name, f.Key(), g.N, w.N)
				}
				for _, pair := range [][2]float64{
					{g.Count, w.Count}, {g.StdErr, w.StdErr}, {g.Lo, w.Lo}, {g.Hi, w.Hi},
				} {
					if math.Abs(pair[0]-pair[1]) > 1e-9*(1+math.Abs(pair[1])) {
						t.Fatalf("seed %d %s filter %s (arity %d): counter %+v vs scan %+v",
							seed, name, f.Key(), f.Len(), g, w)
					}
				}
				// Single Count must agree with the batch too.
				single, err := eng.Count(f)
				if err != nil {
					t.Fatal(err)
				}
				if single != g {
					t.Fatalf("seed %d %s filter %s: Count %+v vs CountAll %+v", seed, name, f.Key(), single, g)
				}
			}
		}
	}
}

// TestCounterEngineValidation covers the counter path's error
// discipline: every rejection must satisfy errors.Is(err, ErrQuery).
func TestCounterEngineValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randomSchema(t, rng)
	m, err := core.NewGammaDiagonal(s.DomainSize(), 19)
	if err != nil {
		t.Fatal(err)
	}
	ctr, err := mining.NewShardedGammaCounter(s, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLiveCounterEngine(nil); !errors.Is(err, ErrQuery) {
		t.Fatal("nil counter accepted")
	}
	eng, err := NewLiveCounterEngine(ctr)
	if err != nil {
		t.Fatal(err)
	}
	// Empty counter: querying before any ingestion is an ErrQuery.
	if _, err := eng.Count(mining.Itemset{{Attr: 0, Value: 0}}); !errors.Is(err, ErrQuery) {
		t.Fatal("empty counter query accepted")
	}
	if err := ctr.Add(make(dataset.Record, s.M())); err != nil {
		t.Fatal(err)
	}
	badFilter := mining.Itemset{{Attr: 99, Value: 0}}
	if _, err := eng.Count(badFilter); !errors.Is(err, ErrQuery) || !errors.Is(err, mining.ErrMining) {
		t.Fatalf("invalid filter error %v must wrap ErrQuery and ErrMining", err)
	}
}

// TestEngineErrorDiscipline pins the scan engine's rejections to
// ErrQuery while preserving the underlying cause in the chain.
func TestEngineErrorDiscipline(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := randomSchema(t, rng)
	db := dataset.NewDatabase(s, 1)
	if err := db.Append(make(dataset.Record, s.M())); err != nil {
		t.Fatal(err)
	}
	bad := core.UniformMatrix{N: s.DomainSize(), Diag: 0.5, Off: 0.5}
	if _, err := NewEngine(db, bad); !errors.Is(err, ErrQuery) || !errors.Is(err, core.ErrMatrix) {
		t.Fatalf("invalid matrix error %v must wrap ErrQuery and ErrMatrix", err)
	}
	m, err := core.NewGammaDiagonal(s.DomainSize(), 19)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(db, m)
	if err != nil {
		t.Fatal(err)
	}
	badFilter := mining.Itemset{{Attr: 99, Value: 0}}
	if _, err := eng.Count(badFilter); !errors.Is(err, ErrQuery) || !errors.Is(err, mining.ErrMining) {
		t.Fatalf("invalid filter error %v must wrap ErrQuery and ErrMining", err)
	}
	if _, err := eng.CountAll([]mining.Itemset{badFilter}); !errors.Is(err, ErrQuery) {
		t.Fatalf("batch error %v must wrap ErrQuery", err)
	}
}

// TestCountAllReusesMarginals pins the batch optimization: one marginal
// computation per distinct sub-domain size, not one per filter.
func TestCountAllReusesMarginals(t *testing.T) {
	m, err := core.NewGammaDiagonal(24, 19)
	if err != nil {
		t.Fatal(err)
	}
	mc := newMarginalCache(m)
	for _, nSub := range []int{6, 6, 4, 6, 4, 24} {
		if _, err := mc.get(nSub); err != nil {
			t.Fatal(err)
		}
	}
	if mc.misses != 3 {
		t.Fatalf("marginal cache computed %d marginals for 3 distinct sizes", mc.misses)
	}
	if _, err := mc.get(7); err == nil {
		t.Fatal("non-divisor sub-domain accepted")
	}
}

// TestExactEmptyFilterInterval: the zero-arity estimate is exact, so
// its interval has zero width — Lo = Count = Hi = N.
func TestExactEmptyFilterInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := randomSchema(t, rng)
	m, err := core.NewGammaDiagonal(s.DomainSize(), 19)
	if err != nil {
		t.Fatal(err)
	}
	db := dataset.NewDatabase(s, 0)
	for i := 0; i < 50; i++ {
		if err := db.Append(make(dataset.Record, s.M())); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := NewEngine(db, m)
	if err != nil {
		t.Fatal(err)
	}
	est, err := eng.Count(mining.Itemset{})
	if err != nil {
		t.Fatal(err)
	}
	if est.Count != 50 || est.Lo != 50 || est.Hi != 50 || est.StdErr != 0 || est.N != 50 {
		t.Fatalf("empty-filter estimate %+v, want exact zero-width interval at 50", est)
	}
}
