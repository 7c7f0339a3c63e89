package mining

import (
	"math/rand"
	"os"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// journalSchemes is the scheme matrix of the journal tests, narrowed to
// one scheme by FRAPP_STRESS_SCHEME (the CI stress job runs one per
// scheme).
func journalSchemes(t *testing.T, s *dataset.Schema) []CounterScheme {
	t.Helper()
	names := SchemeNames()
	if n := os.Getenv("FRAPP_STRESS_SCHEME"); n != "" {
		names = []string{n}
	}
	var out []CounterScheme
	for _, n := range names {
		sc, err := SchemeForContract(n, s, 19)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sc)
	}
	return out
}

// cellMap folds cells into an index → count map.
func cellMap(into map[uint64]float64, cells []DeltaCell) {
	for _, c := range cells {
		into[c.Idx] += c.Count
	}
}

// TestJournalConcurrentWritersAndPuller: batch ingesters and a delta
// applier write while a puller chains DeltaSince (with idle full polls
// minting tokens in between); the first full delta plus every
// incremental must reproduce the final full delta's cells exactly.
func TestJournalConcurrentWritersAndPuller(t *testing.T) {
	s := deltaTestSchema(t)
	for _, scheme := range journalSchemes(t, s) {
		t.Run(scheme.Name(), func(t *testing.T) {
			c, err := NewShardedCounter(scheme, 4)
			if err != nil {
				t.Fatal(err)
			}
			// Joint cells a delta may carry: every categorical record's
			// cell under gamma, every row below 2^Mb under the boolean
			// schemes.
			limit := uint64(s.DomainSize())
			if b, ok := c.shards[0].(*boolCore); ok {
				limit = 1 << uint(b.est.mapping().Mb)
			}
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 300; i++ {
						batch := make([][]Item, 1+rng.Intn(64))
						for j := range batch {
							batch[j] = recordItems(randomRecord(s, rng))
						}
						if err := c.IngestBatch(batch); err != nil {
							t.Error(err)
							return
						}
					}
				}(int64(w))
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(9))
				for i := 0; i < 300; i++ {
					d := &CounterDelta{Fingerprint: c.Fingerprint(), FromVersion: 1}
					for k := 0; k < 1+rng.Intn(8); k++ {
						cnt := float64(1 + rng.Intn(3))
						d.Cells = append(d.Cells, DeltaCell{Idx: uint64(rng.Int63n(int64(limit))), Count: cnt})
						d.Records += int(cnt)
					}
					if err := c.ApplyDelta(d); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()

			acc := make(map[uint64]float64)
			records, since, pulls := 0, uint64(0), 0
			pull := func() {
				d, err := c.DeltaSince(since)
				if err != nil {
					t.Fatal(err)
				}
				if d.Full() {
					if since != 0 {
						t.Fatalf("pull %d: retained token %d served full", pulls, since)
					}
					clear(acc)
					records = 0
				} else if d.FromVersion != since {
					t.Fatalf("pull %d: FromVersion %d, want %d", pulls, d.FromVersion, since)
				}
				cellMap(acc, d.Cells)
				records += d.Records
				since = d.ToVersion
				pulls++
				if pulls%3 == 0 {
					if _, err := c.DeltaSince(0); err != nil {
						t.Fatal(err)
					}
				}
			}
			for running := true; running; {
				select {
				case <-done:
					running = false
				default:
				}
				pull()
			}
			pull()
			final, err := c.DeltaSince(0)
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[uint64]float64)
			cellMap(want, final.Cells)
			if records != final.Records || records != c.N() {
				t.Fatalf("chained %d records, final full delta %d, counter %d", records, final.Records, c.N())
			}
			if len(acc) != len(want) {
				t.Fatalf("chained %d cells, final full delta %d", len(acc), len(want))
			}
			for idx, v := range want {
				if acc[idx] != v {
					t.Fatalf("cell %d: chained %v, final full delta %v", idx, acc[idx], v)
				}
			}
			t.Logf("%d pulls over %d records", pulls, records)
		})
	}
}

// TestJournalOffWithoutPuller: a counter that never minted a token logs
// nothing, however much it ingests.
func TestJournalOffWithoutPuller(t *testing.T) {
	s := deltaTestSchema(t)
	for _, scheme := range journalSchemes(t, s) {
		c, err := NewShardedCounter(scheme, 2)
		if err != nil {
			t.Fatal(err)
		}
		ingestRandom(t, c, rand.New(rand.NewSource(2)), 100000)
		if entries, tokens := c.ReplicationJournal(); entries != 0 || tokens != 0 {
			t.Fatalf("%s: %d entries and %d tokens without a pull", scheme.Name(), entries, tokens)
		}
		for i, sh := range c.shards {
			if sc := sh.cut(cutJournal, nil); sc.chunks != nil {
				t.Fatalf("%s: shard %d holds journal chunks without a pull", scheme.Name(), i)
			}
		}
	}
}

// TestJournalAbandonedTokenStaysWithinBudget: a puller that mints one
// token and never returns cannot grow the journal past the budget; its
// stale pull is served a correct full delta, and journaling resumes.
func TestJournalAbandonedTokenStaysWithinBudget(t *testing.T) {
	s := deltaTestSchema(t)
	m := deltaTestMatrix(t, s)
	rng := rand.New(rand.NewSource(13))
	c, err := NewShardedGammaCounter(s, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewShardedGammaCounter(s, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	abandoned, err := c.DeltaSince(0)
	if err != nil {
		t.Fatal(err)
	}
	budget := int(c.shardLimit(0)) * c.Shards()
	for n := 0; n < 3*budget/2; n += 4096 {
		batch := make([][]Item, 4096)
		for i := range batch {
			batch[i] = recordItems(randomRecord(s, rng))
		}
		if err := c.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := ref.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
		if entries, _ := c.ReplicationJournal(); entries > budget {
			t.Fatalf("journal holds %d entries, budget %d", entries, budget)
		}
	}
	d, err := c.DeltaSince(abandoned.ToVersion)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.DeltaSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Full() || d.Records != want.Records {
		t.Fatalf("stale pull: full=%v records=%d, want a full %d", d.Full(), d.Records, want.Records)
	}
	got, exp := map[uint64]float64{}, map[uint64]float64{}
	cellMap(got, d.Cells)
	cellMap(exp, want.Cells)
	if len(got) != len(exp) {
		t.Fatalf("stale full delta has %d cells, want %d", len(got), len(exp))
	}
	for idx, v := range exp {
		if got[idx] != v {
			t.Fatalf("cell %d: %v, want %v", idx, got[idx], v)
		}
	}
	ingestRandom(t, c, rng, 10)
	next, err := c.DeltaSince(d.ToVersion)
	if err != nil {
		t.Fatal(err)
	}
	if next.Full() || next.Records != 10 {
		t.Fatalf("pull after the resync: full=%v records=%d, want incremental 10", next.Full(), next.Records)
	}
}

// TestCellSumMatchesMap: the radix aggregation, across several blocks
// and index widths, sums exactly what a map does, sorted by index.
func TestCellSumMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, width := range []uint{1, 13, 23, 40, 64} {
		cells := make([]DeltaCell, 2*cellSumBlock+1234)
		want := make(map[uint64]float64)
		for i := range cells {
			idx := rng.Uint64() >> (64 - width) >> uint(rng.Intn(3)) // repeats at small widths
			cells[i] = DeltaCell{Idx: idx, Count: float64(1 + rng.Intn(4))}
			want[idx] += cells[i].Count
		}
		sum := newCellSum(len(cells))
		sum.add(cells[:1000])
		sum.add(cells[1000:])
		got := sum.cells()
		if len(got) != len(want) {
			t.Fatalf("width %d: %d cells, want %d", width, len(got), len(want))
		}
		for i, c := range got {
			if i > 0 && got[i-1].Idx >= c.Idx {
				t.Fatalf("width %d: cells not strictly sorted at %d", width, i)
			}
			if want[c.Idx] != c.Count {
				t.Fatalf("width %d: cell %d sums %v, want %v", width, c.Idx, c.Count, want[c.Idx])
			}
		}
	}
}

// BenchmarkDeltaSinceIncremental times one incremental pull of 4096 new
// records on MASK counters holding about 50k and about 500k distinct
// rows: the journal makes it O(new records), flat in the counter size.
func BenchmarkDeltaSinceIncremental(b *testing.B) {
	schema := dataset.CensusSchema()
	scheme, err := SchemeForContract(SchemeMask, schema, 19)
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []struct {
		name string
		rows int
	}{{"rows=50k", 50_000}, {"rows=500k", 500_000}} {
		b.Run(size.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			pool := make([][]Item, size.rows)
			for i := range pool {
				for a, at := range schema.Attrs {
					for v := 0; v < at.Cardinality(); v++ {
						if rng.Intn(2) == 0 {
							pool[i] = append(pool[i], Item{Attr: a, Value: v})
						}
					}
				}
			}
			c, err := NewShardedCounter(scheme, 2)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < len(pool); i += 4096 {
				if err := c.IngestBatch(pool[i:min(i+4096, len(pool))]); err != nil {
					b.Fatal(err)
				}
			}
			d, err := c.DeltaSince(0)
			if err != nil {
				b.Fatal(err)
			}
			batch := make([][]Item, 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := range batch {
					batch[j] = pool[rng.Intn(len(pool))]
				}
				if err := c.IngestBatch(batch); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if d, err = c.DeltaSince(d.ToVersion); err != nil || d.Records != len(batch) {
					b.Fatalf("pull: %v, %d records", err, d.Records)
				}
			}
		})
	}
}
