package mining

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dataset"
)

// The boolean cores answer candidates of length <= 2 from their bit
// moments instead of sweeping the distinct rows. These tests hold the
// moments to the sweep: every read surface must return exactly (==) what
// a brute-force sweep of the same rows returns, after every path that
// writes counter state.

// TestTranspose64: bit a of row r lands as bit 63−r of word 63−a.
func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var in, m [64]uint64
	for i := range in {
		in[i] = rng.Uint64()
	}
	m = in
	transpose64(&m)
	for r := 0; r < 64; r++ {
		for a := 0; a < 64; a++ {
			if in[r]>>uint(a)&1 != m[63-a]>>uint(63-r)&1 {
				t.Fatalf("row %d bit %d not at word %d bit %d", r, a, 63-a, 63-r)
			}
		}
	}
}

// TestMomentKernelMatchesRowLoop: at the Mb = 62 cap, the transpose
// kernel (full chunks and a zero-padded tail) and the bit-plane cell
// pass agree exactly with the per-row set-bit loop, on random rows that
// include bit Mb−1.
func TestMomentKernelMatchesRowLoop(t *testing.T) {
	const mb = 62
	rng := rand.New(rand.NewSource(62))
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		rows := make([]uint64, n)
		cells := make([]DeltaCell, n)
		want := make([]float64, momentCount(mb))
		wantCells := make([]float64, momentCount(mb))
		for i := range rows {
			rows[i] = rng.Uint64() & (1<<mb - 1)
			if i%3 == 0 {
				rows[i] |= 1 << (mb - 1)
			}
			addRowMoment(want, rows[i], 1)
			// Integer counts of every size up to 2^40, plus one
			// fractional count that must take the per-row loop.
			count := float64(1 + rng.Int63n(1<<uint(rng.Intn(41))))
			if i == n/2 {
				count = 2.5
			}
			cells[i] = DeltaCell{Idx: rows[i], Count: count}
			addRowMoment(wantCells, rows[i], count)
		}
		tab := make([]uint64, momentCount(mb))
		addRowsMoments(tab, rows, mb)
		for i, v := range tab {
			if float64(v) != want[i] {
				t.Fatalf("n=%d: kernel moment %d = %d, row loop %v", n, i, v, want[i])
			}
		}
		if n > 0 && want[tri(mb-1, mb-1)] == 0 {
			t.Fatalf("n=%d: bit Mb−1 never set", n)
		}
		got := cellMoments(cells, mb)
		for i := range got {
			if got[i] != wantCells[i] {
				t.Fatalf("n=%d: cell moment %d = %v, row loop %v", n, i, got[i], wantCells[i])
			}
		}
	}
}

// wideSchema is a 62-bit schema — the live counters' Mb cap — so the
// moment paths are exercised on the top bits too.
func wideSchema(t *testing.T) *dataset.Schema {
	t.Helper()
	var attrs []dataset.Attribute
	for j, card := range []int{9, 8, 8, 7, 8, 7, 8, 7} {
		a := dataset.Attribute{Name: string(rune('a' + j))}
		for v := 0; v < card; v++ {
			a.Categories = append(a.Categories, a.Name+string(rune('0'+v)))
		}
		attrs = append(attrs, a)
	}
	s, err := dataset.NewSchema("wide", attrs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// momentCase is one boolean scheme over one record stream.
type momentCase struct {
	name    string
	scheme  CounterScheme
	records [][]Item
	probes  []Itemset
}

// momentCases builds MASK and C&P cases over two streams: perturbed
// records of the skewed test database (what clients send), and random
// item sets over the 62-bit wide schema (every item set is a valid
// boolean submission).
func momentCases(t *testing.T) []momentCase {
	t.Helper()
	const n = 5000
	var out []momentCase
	db := buildSkewedDB(t, n, 71)
	for _, ls := range liveSchemes(t, db.Schema) {
		if ls.name == SchemeGamma {
			continue
		}
		out = append(out, momentCase{
			name:    ls.name + "/skewed",
			scheme:  ls.scheme,
			records: ls.perturb(t, db, rand.New(rand.NewSource(72))),
			probes:  momentProbes(db.Schema, rand.New(rand.NewSource(73))),
		})
	}
	wide := wideSchema(t)
	rng := rand.New(rand.NewSource(74))
	records := make([][]Item, n)
	for i := range records {
		for j, a := range wide.Attrs {
			for v := 0; v < a.Cardinality(); v++ {
				if rng.Intn(3) == 0 {
					records[i] = append(records[i], Item{Attr: j, Value: v})
				}
			}
		}
	}
	for _, name := range []string{SchemeMask, SchemeCutPaste} {
		scheme, err := SchemeForContract(name, wide, liveTestGamma)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, momentCase{
			name:    name + "/wide",
			scheme:  scheme,
			records: records,
			probes:  momentProbes(wide, rand.New(rand.NewSource(75))),
		})
	}
	return out
}

// momentProbes returns the empty itemset, every itemset of length 1,
// and random itemsets of lengths 2 (100) and 3 (30) — including the pair
// and the triple on the schema's last bit.
func momentProbes(schema *dataset.Schema, rng *rand.Rand) []Itemset {
	probes := []Itemset{{}}
	m := schema.M()
	last := Item{Attr: m - 1, Value: schema.Attrs[m-1].Cardinality() - 1}
	for a := 0; a < m; a++ {
		for v := 0; v < schema.Attrs[a].Cardinality(); v++ {
			probes = append(probes, Itemset{{Attr: a, Value: v}})
		}
	}
	for _, l := range []int{2, 3} {
		probes = append(probes, append(Itemset{{Attr: 0, Value: 0}, {Attr: 1, Value: 0}}[:l-1], last))
		for i := 0; i < map[int]int{2: 100, 3: 30}[l]; i++ {
			var s Itemset
			for _, j := range rng.Perm(m)[:l] {
				s = append(s, Item{Attr: j, Value: rng.Intn(schema.Attrs[j].Cardinality())})
			}
			s, _ = NewItemset(s...)
			probes = append(probes, s)
		}
	}
	return probes
}

// sweepBatch resolves candidates over cores by brute force: one sweep
// of every core's distinct rows for every non-empty candidate.
func sweepBatch(t *testing.T, cores []CounterCore, cands []Itemset) *boolBatch {
	t.Helper()
	cb, err := cores[0].prepare(cands)
	if err != nil {
		t.Fatal(err)
	}
	b := cb.(*boolBatch)
	for _, cc := range cores {
		c := cc.(*boolCore)
		c.mu.RLock()
		b.total += c.n
		for row, cnt := range c.rows {
			for i, pos := range b.bitPos {
				if pos == nil {
					continue
				}
				idx := 0
				for k, bit := range pos {
					idx |= int(row>>uint(bit)&1) << uint(k)
				}
				b.counts[i][idx] += cnt
			}
		}
		c.mu.RUnlock()
	}
	return b
}

// momentReader is the read surface held to the sweep.
type momentReader interface {
	Supports([]Itemset) ([]float64, error)
	Estimates([]Itemset) ([]PointEstimate, int, error)
}

// requireSweepIdentical checks every core's moment table against its
// rows, then Supports and Estimates of r against the
// brute-force sweep of cores — for the full probe set (arities 0..3)
// and for its arity <= 2 part, which never sweeps.
func requireSweepIdentical(t *testing.T, label string, r momentReader, cores []CounterCore, probes []Itemset) {
	t.Helper()
	for _, cc := range cores {
		c := cc.(*boolCore)
		c.mu.RLock()
		want := make([]float64, momentCount(c.est.mapping().Mb))
		for row, cnt := range c.rows {
			addRowMoment(want, row, cnt)
		}
		for i, v := range want {
			if c.mom == nil && v != 0 || c.mom != nil && c.mom[i] != v {
				c.mu.RUnlock()
				t.Fatalf("%s: moment %d differs from a rebuild over the rows", label, i)
			}
		}
		c.mu.RUnlock()
	}
	var short []Itemset
	for _, p := range probes {
		if p.Len() <= 2 {
			short = append(short, p)
		}
	}
	for _, cands := range [][]Itemset{probes, short} {
		b := sweepBatch(t, cores, cands)
		wantSup, err := b.supports()
		if err != nil {
			t.Fatal(err)
		}
		wantEst, err := b.estimates()
		if err != nil {
			t.Fatal(err)
		}
		gotSup, err := r.Supports(cands)
		if err != nil {
			t.Fatal(err)
		}
		gotEst, gotN, err := r.Estimates(cands)
		if err != nil {
			t.Fatal(err)
		}
		if gotN != b.records() {
			t.Fatalf("%s: record count %d, sweep %d", label, gotN, b.records())
		}
		for i, c := range cands {
			if gotSup[i] != wantSup[i] || gotEst[i] != wantEst[i] {
				t.Fatalf("%s %s: support %v estimate %+v; sweep %v %+v",
					label, c.Key(), gotSup[i], gotEst[i], wantSup[i], wantEst[i])
			}
		}
	}
}

// TestBitMomentsMatchSweep drives every state-writing path of the
// boolean cores and holds the reads to the sweep after each.
func TestBitMomentsMatchSweep(t *testing.T) {
	for _, mc := range momentCases(t) {
		t.Run(mc.name, func(t *testing.T) {
			recs := mc.records
			newCounter := func(shards int) *ShardedCounter {
				c, err := NewShardedCounter(mc.scheme, shards)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}

			// Single-record Ingest, on one and on three shards.
			for _, shards := range []int{1, 3} {
				c := newCounter(shards)
				for _, rec := range recs[:300] {
					if err := c.Ingest(rec); err != nil {
						t.Fatal(err)
					}
				}
				requireSweepIdentical(t, "ingest", c, c.shards, mc.probes)
			}

			// IngestBatch spans around the 64-row kernel chunk, landing
			// one after another in a single shard.
			c := newCounter(1)
			next := 0
			for _, span := range []int{1, 63, 64, 65, 4096 + 7} {
				if err := c.IngestBatch(recs[next : next+span]); err != nil {
					t.Fatal(err)
				}
				next = (next + span) % 500
				requireSweepIdentical(t, "batch", c, c.shards, mc.probes)
			}
			two := newCounter(2)
			if err := two.IngestBatch(recs[:4096+7]); err != nil {
				t.Fatal(err)
			}
			requireSweepIdentical(t, "batch/2 shards", two, two.shards, mc.probes)

			// Merge: a batched core and a record-by-record core.
			a, b := mc.scheme.NewCore(), mc.scheme.NewCore()
			if err := NewLiveFromCore(mc.scheme, a).IngestBatch(recs[:1000]); err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs[1000:1100] {
				if err := b.Ingest(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := a.Merge(b); err != nil {
				t.Fatal(err)
			}
			requireSweepIdentical(t, "merge", NewLiveFromCore(mc.scheme, a), []CounterCore{a}, mc.probes)

			// ApplyDelta: a full pull, then an incremental one.
			replica := newCounter(2)
			var since uint64
			for _, span := range [][2]int{{0, 2000}, {2000, 2500}} {
				if err := two.IngestBatch(recs[span[0]:span[1]]); err != nil {
					t.Fatal(err)
				}
				d, err := two.DeltaSince(since)
				if err != nil {
					t.Fatal(err)
				}
				if err := replica.ApplyDelta(d); err != nil {
					t.Fatal(err)
				}
				since = d.ToVersion
				requireSweepIdentical(t, "delta", replica, replica.shards, mc.probes)
			}

			// The SnapshotVersioned fold.
			snap, _ := two.SnapshotVersioned()
			core := snap.(CounterCore)
			requireSweepIdentical(t, "snapshot", NewLiveFromCore(mc.scheme, core), []CounterCore{core}, mc.probes)

			// Save and restore at another shard count.
			var buf bytes.Buffer
			if err := two.Save(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := LoadLiveCounter(&buf, mc.scheme, 3)
			if err != nil {
				t.Fatal(err)
			}
			requireSweepIdentical(t, "restore", restored, restored.shards, mc.probes)
		})
	}
}

// TestBitMomentsWindowRotation: a windowed counter's full-ring and
// newest-bucket reads match the sweep of the same buckets across a
// rotation, including one that expires a bucket.
func TestBitMomentsWindowRotation(t *testing.T) {
	for _, mc := range momentCases(t) {
		t.Run(mc.name, func(t *testing.T) {
			w, err := NewWindowedCounter(mc.scheme, 2, 2, time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			now := time.Unix(1_000_000, 0)
			w.SetNowFunc(func() time.Time { return now })
			check := func(label string) {
				t.Helper()
				w.tick()
				head := w.ring[w.head]
				prev := w.ring[(w.head+1)%2]
				requireSweepIdentical(t, label, w, append(append([]CounterCore{}, head.shards...), prev.shards...), mc.probes)
				if head.N() > 0 {
					requireSweepIdentical(t, label+"/newest bucket", windowReader{w, time.Minute}, head.shards, mc.probes)
				}
			}
			for i, span := range [][2]int{{0, 700}, {700, 1500}, {1500, 1600}} {
				if err := w.IngestBatch(mc.records[span[0]:span[1]]); err != nil {
					t.Fatal(err)
				}
				check("window")
				if i < 2 {
					now = now.Add(time.Minute)
					check("window/rotated")
				}
			}
		})
	}
}

// windowReader reads the newest buckets of a window: Estimates through
// EstimatesWindow, Supports through the window's snapshot fold.
type windowReader struct {
	w      *WindowedCounter
	window time.Duration
}

func (r windowReader) Estimates(f []Itemset) ([]PointEstimate, int, error) {
	ests, n, _, err := r.w.EstimatesWindow(f, r.window)
	return ests, n, err
}

func (r windowReader) Supports(f []Itemset) ([]float64, error) {
	snap, _ := r.w.SnapshotWindowVersioned(r.window)
	return snap.Supports(f)
}

// TestBitMomentsGoldenRestore: the committed v3 MASK and C&P payloads
// restore with moment tables that answer exactly like the sweep.
func TestBitMomentsGoldenRestore(t *testing.T) {
	g, schema, _ := loadGoldenV3(t)
	probes := momentProbes(schema, rand.New(rand.NewSource(76)))
	for _, fx := range g.Fixtures {
		if fx.Scheme == SchemeGamma {
			continue
		}
		t.Run(fx.Scheme, func(t *testing.T) {
			scheme, err := SchemeForContract(fx.Scheme, schema, g.Gamma)
			if err != nil {
				t.Fatal(err)
			}
			payload, err := os.ReadFile(filepath.Join("testdata", fx.File))
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, g.SavedShards} {
				c, err := LoadLiveCounter(bytes.NewReader(payload), scheme, shards)
				if err != nil {
					t.Fatal(err)
				}
				requireSweepIdentical(t, "golden", c, c.shards, probes)
			}
		})
	}
}

// BenchmarkMomentKernel is the per-record cost of the transpose kernel
// at CENSUS width (Mb = 23) and at the Mb = 62 cap.
func BenchmarkMomentKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(63))
	rows := make([]uint64, 4096)
	for _, mb := range []int{23, 62} {
		for i := range rows {
			rows[i] = rng.Uint64() & (1<<uint(mb) - 1)
		}
		b.Run(fmt.Sprintf("mb=%d", mb), func(b *testing.B) {
			tab := make([]uint64, momentCount(mb))
			for i := 0; i < b.N; i++ {
				addRowsMoments(tab, rows, mb)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/record")
		})
	}
}
