package mining

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// deltaTestSchema is a small 3-attribute schema (domain 24).
func deltaTestSchema(t *testing.T) *dataset.Schema {
	t.Helper()
	s, err := dataset.NewSchema("delta-test", []dataset.Attribute{
		{Name: "a", Categories: []string{"a0", "a1", "a2"}},
		{Name: "b", Categories: []string{"b0", "b1"}},
		{Name: "c", Categories: []string{"c0", "c1", "c2", "c3"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func deltaTestMatrix(t *testing.T, s *dataset.Schema) core.UniformMatrix {
	t.Helper()
	m, err := core.NewGammaDiagonal(s.DomainSize(), 19)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randomRecord(s *dataset.Schema, rng *rand.Rand) dataset.Record {
	rec := make(dataset.Record, s.M())
	for j, a := range s.Attrs {
		rec[j] = rng.Intn(a.Cardinality())
	}
	return rec
}

// countersEqual compares the record counts, the joint histograms and
// every subset histogram derived from them, all with ==.
func countersEqual(t *testing.T, want, got *gammaCore) {
	t.Helper()
	if want.N() != got.N() {
		t.Fatalf("record count %d, want %d", got.N(), want.N())
	}
	want.mu.RLock()
	got.mu.RLock()
	defer want.mu.RUnlock()
	defer got.mu.RUnlock()
	lw, lg := newSubsetLattice(want.cards, want.joint), newSubsetLattice(got.cards, got.joint)
	for mask := 1<<len(want.cards) - 1; mask >= 1; mask-- {
		hw, hg := lw.hist(mask), lg.hist(mask)
		for i := range hw {
			if hw[i] != hg[i] {
				t.Fatalf("mask %d cell %d: %v, want %v", mask, i, hg[i], hw[i])
			}
		}
	}
}

func TestDeltaSinceFullThenIncrementalReconstructsCounter(t *testing.T) {
	s := deltaTestSchema(t)
	m := deltaTestMatrix(t, s)
	rng := rand.New(rand.NewSource(11))

	src, err := NewShardedGammaCounter(s, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	replica := testGammaCore(t, s, m)

	since := uint64(0)
	total := 0
	for round := 0; round < 5; round++ {
		add := rng.Intn(40)
		for i := 0; i < add; i++ {
			if err := src.Add(randomRecord(s, rng)); err != nil {
				t.Fatal(err)
			}
		}
		total += add
		d, err := src.DeltaSince(since)
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			if !d.Full() {
				t.Fatalf("first pull (since=0) not full: FromVersion=%d", d.FromVersion)
			}
		} else {
			if d.Full() {
				t.Fatalf("round %d: retained baseline %d not used", round, since)
			}
			if d.FromVersion != since {
				t.Fatalf("round %d: FromVersion %d, want %d", round, d.FromVersion, since)
			}
		}
		if d.ToVersion < since {
			t.Fatalf("round %d: ToVersion %d went backwards from %d", round, d.ToVersion, since)
		}
		if add > 0 && d.ToVersion <= since {
			t.Fatalf("round %d: ToVersion %d did not advance past %d after %d new records", round, d.ToVersion, since, add)
		}
		if err := replica.applyDelta(d); err != nil {
			t.Fatal(err)
		}
		since = d.ToVersion
	}
	if total == 0 {
		t.Fatal("degenerate test: no records added")
	}
	countersEqual(t, src.Snapshot().(*gammaCore), replica)
}

func TestDeltaSinceUnknownBaselineFallsBackToFull(t *testing.T) {
	s := deltaTestSchema(t)
	m := deltaTestMatrix(t, s)
	rng := rand.New(rand.NewSource(3))
	src, err := NewShardedGammaCounter(s, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := src.Add(randomRecord(s, rng)); err != nil {
			t.Fatal(err)
		}
	}
	d, err := src.DeltaSince(999999) // never issued
	if err != nil {
		t.Fatal(err)
	}
	if !d.Full() {
		t.Fatalf("unknown baseline served incrementally (FromVersion %d)", d.FromVersion)
	}
	if d.Records != 10 {
		t.Fatalf("full delta carries %d records, want 10", d.Records)
	}
}

// TestDeltaSinceEvictsOldCheckpoints: the retention rule trims the
// oldest tokens — beyond maxDeltaCheckpoints, and while the journal
// entries after the oldest exceed the budget — releases the journal
// below the oldest kept token, and serves a trimmed token full.
func TestDeltaSinceEvictsOldCheckpoints(t *testing.T) {
	s := deltaTestSchema(t)
	m := deltaTestMatrix(t, s)
	rng := rand.New(rand.NewSource(5))
	src, err := NewShardedGammaCounter(s, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	first, err := src.DeltaSince(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxDeltaCheckpoints+2; i++ {
		if err := src.Add(randomRecord(s, rng)); err != nil {
			t.Fatal(err)
		}
		if _, err := src.DeltaSince(0); err != nil {
			t.Fatal(err)
		}
	}
	d, err := src.DeltaSince(first.ToVersion)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Full() {
		t.Fatal("evicted baseline still served incrementally")
	}
	// One record between consecutive tokens: the journal holds exactly
	// the entries after the oldest of the 8 kept tokens.
	if entries, tokens := src.ReplicationJournal(); tokens != maxDeltaCheckpoints || entries != maxDeltaCheckpoints-1 {
		t.Fatalf("retained %d tokens over %d entries, want %d over %d", tokens, entries, maxDeltaCheckpoints, maxDeltaCheckpoints-1)
	}

	// The budget: pulls spaced 3/8 of it apart keep only the tokens whose
	// entries fit, however few tokens that is.
	budget := int(src.shardLimit(0))
	var toks []uint64
	for round := 0; round < 4; round++ {
		ingestRandom(t, src, rng, 3*budget/8)
		d, err := src.DeltaSince(0)
		if err != nil {
			t.Fatal(err)
		}
		toks = append(toks, d.ToVersion)
	}
	entries, tokens := src.ReplicationJournal()
	if tokens != 3 || entries > budget {
		t.Fatalf("retained %d tokens over %d entries, want 3 within the %d-entry budget", tokens, entries, budget)
	}
	if d, err := src.DeltaSince(toks[0]); err != nil || !d.Full() {
		t.Fatalf("token trimmed by the budget served incrementally (err %v)", err)
	}
	if d, err := src.DeltaSince(toks[1]); err != nil || d.Full() || d.Records != 2*(3*budget/8) {
		t.Fatalf("token within the budget not served incrementally (err %v)", err)
	}
}

// ingestRandom batch-ingests n random categorical records.
func ingestRandom(t *testing.T, c LiveCounter, rng *rand.Rand, n int) {
	t.Helper()
	for n > 0 {
		batch := make([][]Item, min(n, 4096))
		for i := range batch {
			batch[i] = recordItems(randomRecord(c.Schema(), rng))
		}
		if err := c.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
		n -= len(batch)
	}
}

// TestDeltaSinceUnchangedCounterReusesToken: pulls that observe no new
// records reuse the newest baseline instead of churning the bounded
// ring — so a flood of since=0 pollers against an idle counter can
// never evict a replicator's retained baseline.
func TestDeltaSinceUnchangedCounterReusesToken(t *testing.T) {
	s := deltaTestSchema(t)
	m := deltaTestMatrix(t, s)
	rng := rand.New(rand.NewSource(7))
	src, err := NewShardedGammaCounter(s, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := src.Add(randomRecord(s, rng)); err != nil {
			t.Fatal(err)
		}
	}
	first, err := src.DeltaSince(0)
	if err != nil {
		t.Fatal(err)
	}
	// A flood of fresh pollers on the unchanged counter.
	for i := 0; i < 3*maxDeltaCheckpoints; i++ {
		d, err := src.DeltaSince(0)
		if err != nil {
			t.Fatal(err)
		}
		if d.ToVersion != first.ToVersion {
			t.Fatalf("unchanged counter minted new token %d (want %d)", d.ToVersion, first.ToVersion)
		}
	}
	if _, retained := src.ReplicationJournal(); retained != 1 {
		t.Fatalf("%d tokens retained after idle flood, want 1", retained)
	}
	// The replicator's baseline survived: its next pull is incremental.
	if err := src.Add(randomRecord(s, rng)); err != nil {
		t.Fatal(err)
	}
	d, err := src.DeltaSince(first.ToVersion)
	if err != nil {
		t.Fatal(err)
	}
	if d.Full() || d.Records != 1 {
		t.Fatalf("post-flood pull: full=%v records=%d, want incremental 1", d.Full(), d.Records)
	}
}

func TestApplyDeltaRejectsBadPayloads(t *testing.T) {
	s := deltaTestSchema(t)
	m := deltaTestMatrix(t, s)
	c := testGammaCore(t, s, m)
	fp := c.Fingerprint()
	cases := []struct {
		name string
		d    *CounterDelta
	}{
		{"nil", nil},
		{"fingerprint mismatch", &CounterDelta{Fingerprint: "bogus", Records: 1, Cells: []DeltaCell{{Idx: 0, Count: 1}}}},
		{"index out of range", &CounterDelta{Fingerprint: fp, Records: 1, Cells: []DeltaCell{{Idx: uint64(s.DomainSize()), Count: 1}}}},
		{"negative cell", &CounterDelta{Fingerprint: fp, Records: 0, Cells: []DeltaCell{{Idx: 0, Count: -1}}}},
		{"sum mismatch", &CounterDelta{Fingerprint: fp, Records: 5, Cells: []DeltaCell{{Idx: 0, Count: 1}}}},
		{"negative records", &CounterDelta{Fingerprint: fp, Records: -1}},
	}
	for _, tc := range cases {
		if err := c.applyDelta(tc.d); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if c.N() != 0 {
		t.Fatalf("rejected deltas mutated the counter: n=%d", c.N())
	}
}

// newCounterOf builds a sharded counter, failing the test on error.
func newCounterOf(t *testing.T, scheme CounterScheme, shards int) *ShardedCounter {
	t.Helper()
	c, err := NewShardedCounter(scheme, shards)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// ingestInto batch-ingests records into every counter given.
func ingestInto(t *testing.T, records [][]Item, counters ...*ShardedCounter) {
	t.Helper()
	for _, c := range counters {
		if err := c.IngestBatch(records); err != nil {
			t.Fatal(err)
		}
	}
}

// requireSameCounter holds got to want exactly: record count, joint
// cells, and every probe's support and estimate, compared with ==
// (integer-valued counts make every fold exact).
func requireSameCounter(t *testing.T, want, got *ShardedCounter, probes []Itemset) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("record count %d, want %d", got.N(), want.N())
	}
	requireSameCells(t, jointOf(want), jointOf(got))
	wantSup, err := want.Supports(probes)
	if err != nil {
		t.Fatal(err)
	}
	gotSup, err := got.Supports(probes)
	if err != nil {
		t.Fatal(err)
	}
	wantEst, _, err := want.Estimates(probes)
	if err != nil {
		t.Fatal(err)
	}
	gotEst, _, err := got.Estimates(probes)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range probes {
		if gotSup[i] != wantSup[i] || gotEst[i] != wantEst[i] {
			t.Fatalf("%s: support %v estimate %+v, want %v %+v", p.Key(), gotSup[i], gotEst[i], wantSup[i], wantEst[i])
		}
	}
}

// jointOf reads a counter's joint cells, index-sorted.
func jointOf(c *ShardedCounter) []DeltaCell {
	cut := c.cutShards(cutJoint, nil)
	return cut.joint()
}

// requireSameCells holds two index-sorted cell lists equal with ==.
func requireSameCells(t *testing.T, want, got []DeltaCell) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d cells, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestMergeMatchesUnion: for every scheme, merging per-site counters —
// an empty site among them, at differing shard counts — reproduces the
// counter of the union of their records exactly.
func TestMergeMatchesUnion(t *testing.T) {
	db := buildSkewedDB(t, 600, 17)
	probes := probeItemsets(t, db.Schema)
	for _, ls := range liveSchemes(t, db.Schema) {
		t.Run(ls.name, func(t *testing.T) {
			records := ls.perturb(t, db, rand.New(rand.NewSource(18)))
			union := newCounterOf(t, ls.scheme, 3)
			merged := newCounterOf(t, ls.scheme, 2)
			lo := 0
			for site, n := range []int{150, 0, 450} {
				part := newCounterOf(t, ls.scheme, site+1)
				ingestInto(t, records[lo:lo+n], part, union)
				lo += n
				if err := merged.Merge(part); err != nil {
					t.Fatal(err)
				}
			}
			if merged.Version() != uint64(len(records)) {
				t.Fatalf("merged version %d, want %d", merged.Version(), len(records))
			}
			requireSameCounter(t, union, merged, probes)
		})
	}
}

// TestMergeRejectsIncompatibleCounters: for every scheme, Merge refuses
// nil, itself, another scheme's counter over the same schema, a counter
// over a different category vocabulary, and one over the same schema
// under different perturbation parameters — and a refused merge leaves
// the counter untouched.
func TestMergeRejectsIncompatibleCounters(t *testing.T) {
	db := buildSkewedDB(t, 50, 19)
	schemes := liveSchemes(t, db.Schema)
	attrs := append([]dataset.Attribute(nil), db.Schema.Attrs...)
	last := &attrs[len(attrs)-1]
	last.Categories = append(append([]string(nil), last.Categories[:len(last.Categories)-1]...), "renamed")
	renamed, err := dataset.NewSchema(db.Schema.Name, attrs)
	if err != nil {
		t.Fatal(err)
	}
	for _, ls := range schemes {
		t.Run(ls.name, func(t *testing.T) {
			c := newCounterOf(t, ls.scheme, 2)
			others := map[string]*ShardedCounter{"nil": nil, "self": c}
			for _, other := range schemes {
				if other.name != ls.name {
					o := newCounterOf(t, other.scheme, 1)
					ingestInto(t, other.perturb(t, db, rand.New(rand.NewSource(20))), o)
					others["scheme "+other.name] = o
				}
			}
			vocab, err := SchemeForContract(ls.name, renamed, liveTestGamma)
			if err != nil {
				t.Fatal(err)
			}
			others["category vocabulary"] = newCounterOf(t, vocab, 1)
			params, err := SchemeForContract(ls.name, db.Schema, liveTestGamma/2)
			if err != nil {
				t.Fatal(err)
			}
			others["perturbation parameters"] = newCounterOf(t, params, 1)
			for name, o := range others {
				if o != nil && o != c {
					ingestInto(t, [][]Item{recordItems(db.Records[0])}, o)
				}
				if err := c.Merge(o); !errors.Is(err, ErrMining) {
					t.Errorf("%s: merge returned %v, want ErrMining", name, err)
				}
			}
			if c.N() != 0 || c.Version() != 0 {
				t.Fatalf("refused merges moved the counter: n=%d version=%d", c.N(), c.Version())
			}
		})
	}
}

// TestMergedCounterFullDeltaMatchesUnion: for every scheme, a merged
// counter serves a full delta equal to the union's, and saves and
// restores like any live counter (the shape a federation coordinator
// publishes).
func TestMergedCounterFullDeltaMatchesUnion(t *testing.T) {
	db := buildSkewedDB(t, 400, 23)
	probes := probeItemsets(t, db.Schema)
	for _, ls := range liveSchemes(t, db.Schema) {
		t.Run(ls.name, func(t *testing.T) {
			records := ls.perturb(t, db, rand.New(rand.NewSource(24)))
			union := newCounterOf(t, ls.scheme, 2)
			merged := newCounterOf(t, ls.scheme, 1)
			for _, span := range [][2]int{{0, 250}, {250, 400}} {
				site := newCounterOf(t, ls.scheme, 3)
				ingestInto(t, records[span[0]:span[1]], site, union)
				if err := merged.Merge(site); err != nil {
					t.Fatal(err)
				}
			}
			want, err := union.DeltaSince(0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := merged.DeltaSince(0)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Full() || got.Records != want.Records || got.Fingerprint != want.Fingerprint {
				t.Fatalf("merged full delta: full=%v records=%d, want full %d records", got.Full(), got.Records, want.Records)
			}
			requireSameCells(t, want.Cells, got.Cells)

			var buf bytes.Buffer
			if err := merged.CheckpointCut(0).Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadLiveCounter(&buf, ls.scheme, 2)
			if err != nil {
				t.Fatal(err)
			}
			requireSameCounter(t, union, loaded, probes)
		})
	}
}

// TestMergedCounterChainsIncrementalDeltas: for every scheme, a puller of
// a merged counter chains incrementally and exactly across a further
// merge and a direct ingest, because Merge journals the cells it adds.
func TestMergedCounterChainsIncrementalDeltas(t *testing.T) {
	db := buildSkewedDB(t, 500, 29)
	probes := probeItemsets(t, db.Schema)
	for _, ls := range liveSchemes(t, db.Schema) {
		t.Run(ls.name, func(t *testing.T) {
			records := ls.perturb(t, db, rand.New(rand.NewSource(30)))
			union := newCounterOf(t, ls.scheme, 1)
			merged := newCounterOf(t, ls.scheme, 2)
			replica := newCounterOf(t, ls.scheme, 1)
			merge := func(lo, hi int) {
				site := newCounterOf(t, ls.scheme, 2)
				ingestInto(t, records[lo:hi], site, union)
				if err := merged.Merge(site); err != nil {
					t.Fatal(err)
				}
			}
			var since uint64
			pull := func(records int) {
				d, err := merged.DeltaSince(since)
				if err != nil {
					t.Fatal(err)
				}
				if since != 0 && (d.Full() || d.FromVersion != since || d.Records != records) {
					t.Fatalf("pull from %d: full=%v from=%d records=%d, want incremental %d records",
						since, d.Full(), d.FromVersion, d.Records, records)
				}
				if err := replica.ApplyDelta(d); err != nil {
					t.Fatal(err)
				}
				since = d.ToVersion
				requireSameCounter(t, union, replica, probes)
			}
			merge(0, 200)
			pull(200)
			merge(200, 350)
			pull(150)
			ingestInto(t, records[350:420], merged, union)
			merge(420, 500)
			pull(150)
		})
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	s := deltaTestSchema(t)
	m := deltaTestMatrix(t, s)
	base := CompatibilityFingerprint(s, m)
	if base != CompatibilityFingerprint(s, m) {
		t.Fatal("fingerprint not deterministic")
	}
	m2 := m
	m2.Diag += 1e-9
	if CompatibilityFingerprint(s, m2) == base {
		t.Error("matrix change not reflected")
	}
	s2, err := dataset.NewSchema("delta-test-2", []dataset.Attribute{
		{Name: "a", Categories: []string{"a0", "a1", "a2"}},
		{Name: "b", Categories: []string{"b0", "b1"}},
		{Name: "c", Categories: []string{"c0", "c1", "c2", "c3"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if CompatibilityFingerprint(s2, m) == base {
		t.Error("schema name change not reflected")
	}
}
