package mining

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// The windowed-counter property suite. The load-bearing claim is
// additivity: the ring union after K rotations must equal a fresh
// counter fed ONLY the surviving records, to 1e-9, under every scheme —
// expiry by bucket subtraction is exact, not approximate.

// fakeClock is a mutex-guarded manual clock for driving ring rotation
// deterministically.
type fakeClock struct {
	mu  sync.Mutex
	cur time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{cur: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cur = c.cur.Add(d)
}

// ingestAll feeds records one at a time (exercising the head-bucket
// RLock path rather than the batch path).
func ingestAll(t *testing.T, w *WindowedCounter, records [][]Item) {
	t.Helper()
	for _, items := range records {
		if err := w.Ingest(items); err != nil {
			t.Fatal(err)
		}
	}
}

// freshCounter builds a plain sharded counter over the given records —
// the ground truth the ring union must match.
func freshCounter(t *testing.T, scheme CounterScheme, records [][]Item) *ShardedCounter {
	t.Helper()
	c, err := NewShardedCounter(scheme, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.IngestBatch(records); err != nil {
		t.Fatal(err)
	}
	return c
}

// assertWindowMatches checks the windowed counter restricted to
// `window` against a fresh counter fed only `want` records: record
// counts exactly, supports and estimates to 1e-9.
func assertWindowMatches(t *testing.T, w *WindowedCounter, window time.Duration, scheme CounterScheme, want [][]Item, probes []Itemset) {
	t.Helper()
	truth := freshCounter(t, scheme, want)
	wEst, wn, _, err := w.EstimatesWindow(probes, window)
	if err != nil {
		t.Fatal(err)
	}
	if wn != len(want) {
		t.Fatalf("window sweep saw %d records, want %d survivors", wn, len(want))
	}
	if len(want) == 0 {
		return // nothing further to compare against an empty counter
	}
	tEst, tn, err := truth.Estimates(probes)
	if err != nil {
		t.Fatal(err)
	}
	if tn != len(want) {
		t.Fatalf("truth counter saw %d records, want %d", tn, len(want))
	}
	for i, probe := range probes {
		if math.Abs(wEst[i].Count-tEst[i].Count) > 1e-9 || math.Abs(wEst[i].StdErr-tEst[i].StdErr) > 1e-9 {
			t.Errorf("%s window estimate (%v±%v) vs survivors (%v±%v)",
				probe.Key(), wEst[i].Count, wEst[i].StdErr, tEst[i].Count, tEst[i].StdErr)
		}
	}
	// The frozen window snapshot must agree with the survivors too —
	// this is the surface mining jobs consume.
	snap, _ := w.SnapshotWindowVersioned(window)
	sSup, err := snap.Supports(probes)
	if err != nil {
		t.Fatal(err)
	}
	tSup, err := truth.Supports(probes)
	if err != nil {
		t.Fatal(err)
	}
	if snap.N() != len(want) {
		t.Fatalf("window snapshot N = %d, want %d", snap.N(), len(want))
	}
	for i, probe := range probes {
		if math.Abs(sSup[i]-tSup[i]) > 1e-9 {
			t.Errorf("%s window snapshot support %v vs survivors %v", probe.Key(), sSup[i], tSup[i])
		}
	}
}

// TestWindowedFullRingMatchesUnwindowed: with no rotation, a windowed
// counter is just a sharded counter with extra bookkeeping — the full
// ring must match a plain counter fed the same stream to 1e-9, on
// Supports, Estimates, and the full-ring snapshot.
// This is equivalence proof (b) at the mining layer.
func TestWindowedFullRingMatchesUnwindowed(t *testing.T) {
	db := buildSkewedDB(t, 3000, 401)
	schema := db.Schema
	probes := probeItemsets(t, schema)
	for _, ls := range liveSchemes(t, schema) {
		t.Run(ls.name, func(t *testing.T) {
			records := ls.perturb(t, db, rand.New(rand.NewSource(402)))
			w, err := NewWindowedCounter(ls.scheme, 3, 4, time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			clock := newFakeClock()
			w.SetNowFunc(clock.Now)
			if err := w.IngestBatch(records); err != nil {
				t.Fatal(err)
			}
			plain := freshCounter(t, ls.scheme, records)

			if w.N() != plain.N() {
				t.Fatalf("N %d vs %d", w.N(), plain.N())
			}
			wSup, err := w.Supports(probes)
			if err != nil {
				t.Fatal(err)
			}
			pSup, err := plain.Supports(probes)
			if err != nil {
				t.Fatal(err)
			}
			wEst, wn, err := w.Estimates(probes)
			if err != nil {
				t.Fatal(err)
			}
			pEst, pn, err := plain.Estimates(probes)
			if err != nil {
				t.Fatal(err)
			}
			if wn != pn {
				t.Fatalf("estimate sweep records %d vs %d", wn, pn)
			}
			for i, probe := range probes {
				if math.Abs(wSup[i]-pSup[i]) > 1e-9 {
					t.Errorf("%s support %v vs %v", probe.Key(), wSup[i], pSup[i])
				}
				if math.Abs(wEst[i].Count-pEst[i].Count) > 1e-9 || math.Abs(wEst[i].StdErr-pEst[i].StdErr) > 1e-9 {
					t.Errorf("%s estimate %+v vs %+v", probe.Key(), wEst[i], pEst[i])
				}
			}
			// Windowed read spanning the whole retention == unwindowed.
			assertWindowMatches(t, w, w.Retention(), ls.scheme, records, probes)
			assertWindowMatches(t, w, 0, ls.scheme, records, probes)
		})
	}
}

// TestWindowedRotationMatchesSurvivors is the expiry property test:
// ingest four epochs of records into a 4-bucket ring, rotate K buckets
// past retention, and at every step the ring union — full and
// sub-window — must equal a fresh counter fed only the records that
// survive that window, to 1e-9, per scheme.
func TestWindowedRotationMatchesSurvivors(t *testing.T) {
	db := buildSkewedDB(t, 2400, 411)
	schema := db.Schema
	probes := probeItemsets(t, schema)
	for _, ls := range liveSchemes(t, schema) {
		t.Run(ls.name, func(t *testing.T) {
			records := ls.perturb(t, db, rand.New(rand.NewSource(412)))
			quarter := len(records) / 4
			chunks := [][][]Item{
				records[:quarter],
				records[quarter : 2*quarter],
				records[2*quarter : 3*quarter],
				records[3*quarter:],
			}
			const bucket = time.Minute
			w, err := NewWindowedCounter(ls.scheme, 3, 4, bucket)
			if err != nil {
				t.Fatal(err)
			}
			clock := newFakeClock()
			w.SetNowFunc(clock.Now)

			// One chunk per bucket epoch: chunk i lands in its own ring
			// slot.
			for i, chunk := range chunks {
				if i > 0 {
					clock.Advance(bucket)
				}
				ingestAll(t, w, chunk)
			}

			// Ring full, nothing expired yet: every sub-window selects a
			// suffix of the chunk sequence.
			join := func(cs ...[][]Item) [][]Item {
				var out [][]Item
				for _, c := range cs {
					out = append(out, c...)
				}
				return out
			}
			assertWindowMatches(t, w, 1*bucket, ls.scheme, chunks[3], probes)
			assertWindowMatches(t, w, 2*bucket, ls.scheme, join(chunks[2], chunks[3]), probes)
			// A ragged window rounds UP to whole buckets: 90s of 60s
			// buckets reads 2.
			assertWindowMatches(t, w, 90*time.Second, ls.scheme, join(chunks[2], chunks[3]), probes)
			assertWindowMatches(t, w, 0, ls.scheme, records, probes)

			// Rotate two buckets past retention: chunks 0 and 1 expire.
			clock.Advance(2 * bucket)
			survivors := join(chunks[2], chunks[3])
			if w.N() != len(survivors) {
				t.Fatalf("after expiry N = %d, want %d", w.N(), len(survivors))
			}
			assertWindowMatches(t, w, 0, ls.scheme, survivors, probes)
			// The two newest buckets are the empty post-rotation slots;
			// three buckets back reaches chunk 3.
			assertWindowMatches(t, w, 2*bucket, ls.scheme, nil, probes)
			assertWindowMatches(t, w, 3*bucket, ls.scheme, chunks[3], probes)

			// An idle gap longer than the whole retention empties the
			// ring in one tick.
			clock.Advance(10 * bucket)
			if w.N() != 0 {
				t.Fatalf("after full expiry N = %d, want 0", w.N())
			}
			assertWindowMatches(t, w, 0, ls.scheme, nil, probes)

			// And the ring keeps working after total expiry.
			ingestAll(t, w, chunks[0])
			assertWindowMatches(t, w, 0, ls.scheme, chunks[0], probes)
		})
	}
}

// TestWindowedVersionSemantics: the version must advance on every
// ingested record AND on every effective rotation — rotation changes
// which records a window selects even when the expired buckets were
// empty, so "equal version ⇒ identical answer" only holds if rotation
// bumps it.
func TestWindowedVersionSemantics(t *testing.T) {
	schema := buildSkewedDB(t, 10, 421).Schema
	scheme, err := SchemeForContract(SchemeGamma, schema, liveTestGamma)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWindowedCounter(scheme, 2, 3, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	w.SetNowFunc(clock.Now)

	v0 := w.Version()
	if err := w.Ingest([]Item{{Attr: 0, Value: 0}, {Attr: 1, Value: 0}, {Attr: 2, Value: 0}}); err != nil {
		t.Fatal(err)
	}
	v1 := w.Version()
	if v1 <= v0 {
		t.Fatalf("version did not advance on ingest: %d -> %d", v0, v1)
	}
	// Rotation with EMPTY expiring buckets must still bump the version.
	clock.Advance(time.Minute)
	v2 := w.Version()
	if v2 <= v1 {
		t.Fatalf("version did not advance on rotation: %d -> %d", v1, v2)
	}
	// No elapsed time, no content change: version is stable.
	if v3 := w.Version(); v3 != v2 {
		t.Fatalf("version moved without rotation or ingest: %d -> %d", v2, v3)
	}
	if b, d := w.WindowSpec(); b != 3 || d != time.Minute {
		t.Fatalf("WindowSpec = (%d, %v), want (3, 1m)", b, d)
	}
}

// TestWindowedDurabilityRefused: windowed counters are in-memory only —
// they have no Save and no DeltaSince, so no state that a replay could
// not expire correctly is ever persisted or replicated.
func TestWindowedDurabilityRefused(t *testing.T) {
	schema := buildSkewedDB(t, 10, 431).Schema
	scheme, err := SchemeForContract(SchemeGamma, schema, liveTestGamma)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWindowedCounter(scheme, 1, 2, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := any(w).(interface {
		DeltaSince(uint64) (*CounterDelta, error)
	}); ok {
		t.Fatal("a windowed counter must not serve replication deltas")
	}
	if _, err := NewWindowedCounter(scheme, 1, 0, time.Minute); err == nil {
		t.Fatal("zero buckets must be rejected")
	}
	if _, err := NewWindowedCounter(scheme, 1, 2, 0); err == nil {
		t.Fatal("zero bucket duration must be rejected")
	}
	if _, err := NewWindowedCounter(nil, 1, 2, time.Minute); err == nil {
		t.Fatal("nil scheme must be rejected")
	}
}

// TestWindowedConcurrentIngestQueryRotate drives concurrent ingesters,
// readers, and clock advances through the ring under the race detector:
// no read may observe a torn state, and the final N must equal the
// survivor count.
func TestWindowedConcurrentIngestQueryRotate(t *testing.T) {
	db := buildSkewedDB(t, 600, 441)
	schema := db.Schema
	scheme, err := SchemeForContract(SchemeGamma, schema, liveTestGamma)
	if err != nil {
		t.Fatal(err)
	}
	records := liveSchemes(t, schema)[0].perturb(t, db, rand.New(rand.NewSource(442)))
	w, err := NewWindowedCounter(scheme, 4, 4, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	w.SetNowFunc(clock.Now)
	probes := probeItemsets(t, schema)[:8]

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(records); i += 4 {
				if err := w.Ingest(records[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, _, _, err := w.EstimatesWindow(probes, 2*time.Minute); err != nil {
				t.Error(err)
				return
			}
			if _, _, err := w.Estimates(probes); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			clock.Advance(time.Minute)
			w.N() // force a tick
		}
	}()
	wg.Wait()

	// Everything ingested is gone once the clock moves past retention.
	clock.Advance(10 * time.Minute)
	if n := w.N(); n != 0 {
		t.Fatalf("after retention N = %d, want 0", n)
	}
}
