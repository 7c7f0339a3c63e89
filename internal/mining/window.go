package mining

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
)

// Sliding-window live counters. FRAPP's estimators are linear in the
// joint counts of the perturbed data, so a time-decayed collection comes
// for free: keep a ring of time-bucketed sub-counters, add the live
// bucket, drop expired ones, and the union of the surviving buckets IS
// the counter of exactly the surviving records — the windowed estimator
// is the ordinary estimator over that union, at the same O(#filters)
// read cost. No record is ever re-scanned (none is stored), and expiry
// is O(1) per bucket: the expired sub-counter is simply discarded.
//
// WindowedCounter implements LiveCounter over such a ring, plus
// EstimatesWindow and SnapshotWindowVersioned, which answer reads
// restricted to the newest K buckets ("last 24h"). Windowed counters
// are in-memory only: their content is defined by wall-clock expiry,
// which a WAL replayed at an arbitrary later time cannot reproduce, so
// there is no Save and no DeltaSince (the service layer gates stores
// and federation off windowed collections for the same reason).

// WindowedCounter is a LiveCounter whose content is the last
// (buckets × bucket) of ingested records: a ring of per-bucket
// ShardedCounters rotated lazily on the counter's clock. Ingestion
// lands in the head bucket; any operation first advances the ring if
// the head bucket's span has elapsed, discarding sub-counters that fell
// out of retention. Reads gather across the surviving buckets' shards
// exactly the way a single sharded counter gathers across its shards —
// additivity of the joint counts is what makes the union exact.
//
// Concurrency: rotation takes the write lock; ingests and reads run
// under the read lock (per-bucket counters are internally lock-striped,
// so concurrent ingesters still scale across shards). version advances
// on every content change AND on every rotation — rotation changes
// which records a window selects even when no bucket expired non-empty
// — preserving the "equal versions imply identical answers" contract
// the mining-result cache is keyed on, now for every window.
type WindowedCounter struct {
	scheme  CounterScheme
	nshards int
	bucket  time.Duration

	mu        sync.RWMutex
	ring      []*ShardedCounter
	head      int
	headStart time.Time

	total   atomic.Int64
	version atomic.Uint64

	// now is the rotation clock, injectable for tests (SetNowFunc).
	now func() time.Time
	obs IngestObserver
}

// maxWindowBuckets bounds the ring so a typo'd flag cannot allocate
// thousands of materialized cores.
const maxWindowBuckets = 4096

// NewWindowedCounter builds a sliding-window live counter: a ring of
// `buckets` sub-counters each covering `bucket` of wall-clock time,
// every sub-counter striped over `shards` cores (<= 0 means one per
// core, as in NewShardedCounter). Retention is buckets × bucket; window
// reads have bucket-duration granularity, rounded up.
func NewWindowedCounter(scheme CounterScheme, shards, buckets int, bucket time.Duration) (*WindowedCounter, error) {
	if scheme == nil {
		return nil, fmt.Errorf("%w: nil scheme contract", ErrMining)
	}
	if buckets < 1 || buckets > maxWindowBuckets {
		return nil, fmt.Errorf("%w: window ring of %d buckets outside [1, %d]", ErrMining, buckets, maxWindowBuckets)
	}
	if bucket <= 0 {
		return nil, fmt.Errorf("%w: window bucket duration %v must be positive", ErrMining, bucket)
	}
	w := &WindowedCounter{
		scheme: scheme,
		bucket: bucket,
		ring:   make([]*ShardedCounter, buckets),
		now:    time.Now,
	}
	first, err := NewShardedCounter(scheme, shards)
	if err != nil {
		return nil, err
	}
	w.nshards = first.Shards()
	w.ring[0] = first
	for i := 1; i < buckets; i++ {
		b, err := NewShardedCounter(scheme, w.nshards)
		if err != nil {
			return nil, err
		}
		w.ring[i] = b
	}
	w.headStart = w.now()
	return w, nil
}

// SetNowFunc replaces the rotation clock — test plumbing for driving
// expiry deterministically. Call before the counter takes traffic; the
// replacement also resets the head bucket's start to the new clock's
// current reading so the ring does not instantly rotate through an
// epoch-sized gap.
func (w *WindowedCounter) SetNowFunc(now func() time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.now = now
	w.headStart = now()
}

// SetIngestObserver installs the ingest telemetry hook on every bucket,
// including buckets minted by future rotations. Call before traffic.
func (w *WindowedCounter) SetIngestObserver(o IngestObserver) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.obs = o
	for _, b := range w.ring {
		b.SetIngestObserver(o)
	}
}

// WindowSpec returns the ring geometry.
func (w *WindowedCounter) WindowSpec() (int, time.Duration) { return len(w.ring), w.bucket }

// Retention returns the total time span the ring covers.
func (w *WindowedCounter) Retention() time.Duration {
	return time.Duration(len(w.ring)) * w.bucket
}

// tick advances the ring to the counter's clock: for every elapsed
// bucket span the head moves forward and the slot it lands on — the
// oldest bucket, now out of retention — is replaced by a fresh
// sub-counter. A tick that advances at all bumps the version exactly
// once: window selection changed, so every cached windowed answer is
// stale, whether or not the expired buckets held records.
func (w *WindowedCounter) tick() {
	now := w.now()
	w.mu.RLock()
	stale := now.Sub(w.headStart) >= w.bucket
	w.mu.RUnlock()
	if !stale {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	steps := int(now.Sub(w.headStart) / w.bucket)
	if steps <= 0 {
		return // another ticker advanced the ring while we waited
	}
	w.headStart = w.headStart.Add(time.Duration(steps) * w.bucket)
	if steps > len(w.ring) {
		// An idle gap longer than retention: every bucket expires; no
		// need to walk the ring more than once around.
		steps = len(w.ring)
	}
	for i := 0; i < steps; i++ {
		w.head = (w.head + 1) % len(w.ring)
		expired := w.ring[w.head]
		w.total.Add(-int64(expired.N()))
		fresh, err := NewShardedCounter(w.scheme, w.nshards)
		if err != nil {
			// Unreachable: the constructor validated these exact inputs.
			panic("mining: window bucket construction failed after validation: " + err.Error())
		}
		if w.obs != nil {
			fresh.SetIngestObserver(w.obs)
		}
		w.ring[w.head] = fresh
	}
	w.version.Add(1)
}

// Scheme names the counter's perturbation scheme.
func (w *WindowedCounter) Scheme() string { return w.scheme.Name() }

// Schema returns the counter's schema.
func (w *WindowedCounter) Schema() *dataset.Schema { return w.scheme.Schema() }

// Shards returns the per-bucket ingestion stripe count.
func (w *WindowedCounter) Shards() int { return w.nshards }

// Fingerprint returns the scheme compatibility fingerprint.
func (w *WindowedCounter) Fingerprint() string { return w.scheme.Fingerprint() }

// N returns the number of records currently inside the retention
// window.
func (w *WindowedCounter) N() int {
	w.tick()
	return int(w.total.Load())
}

// Version returns the counter's content version: it advances on every
// ingested record and on every ring rotation, so equal versions imply
// identical answers for every window, not just the full ring.
func (w *WindowedCounter) Version() uint64 {
	w.tick()
	return w.version.Load()
}

// Ingest adds one already-perturbed record to the live bucket.
func (w *WindowedCounter) Ingest(items []Item) error {
	w.tick()
	// The read lock is held across the bucket ingest so a rotation
	// cannot retire the head bucket mid-flight (a record landing in a
	// detached bucket would be acknowledged but never counted).
	w.mu.RLock()
	defer w.mu.RUnlock()
	if err := w.ring[w.head].Ingest(items); err != nil {
		return err
	}
	w.total.Add(1)
	w.version.Add(1)
	return nil
}

// IngestBatch adds a batch atomically into the live bucket — the
// all-or-nothing guarantee is the bucket ShardedCounter's.
func (w *WindowedCounter) IngestBatch(records [][]Item) error {
	n := len(records)
	if n == 0 {
		return nil
	}
	w.tick()
	w.mu.RLock()
	defer w.mu.RUnlock()
	if err := w.ring[w.head].IngestBatch(records); err != nil {
		return err
	}
	w.total.Add(int64(n))
	w.version.Add(uint64(n))
	return nil
}

// Add ingests one perturbed categorical record (one item per
// attribute), valid under every scheme.
func (w *WindowedCounter) Add(rec dataset.Record) error {
	if err := w.Schema().Validate(rec); err != nil {
		return err
	}
	return w.Ingest(recordItems(rec))
}

// bucketsFor converts a window duration into a bucket count: windows
// round UP to whole buckets (asking for 90m of 1h buckets reads 2), and
// window <= 0 means the full ring.
func (w *WindowedCounter) bucketsFor(window time.Duration) int {
	if window <= 0 {
		return len(w.ring)
	}
	k := int((window + w.bucket - 1) / w.bucket)
	if k < 1 {
		k = 1
	}
	if k > len(w.ring) {
		k = len(w.ring)
	}
	return k
}

// gatherLocked prepares a candidate batch and folds in the newest k
// buckets' shards — the cross-bucket analogue of ShardedCounter.batch.
// Caller holds the read lock.
func (w *WindowedCounter) gatherLocked(candidates []Itemset, k int) (counterBatch, error) {
	b, err := w.ring[0].shards[0].prepare(candidates)
	if err != nil {
		return nil, err
	}
	for i := 0; i < k; i++ {
		bkt := w.ring[(w.head-i+len(w.ring))%len(w.ring)]
		for _, s := range bkt.shards {
			s.gather(b)
		}
	}
	return b, nil
}

// windowNLocked sums the newest k buckets' record counts. Caller holds
// the read lock.
func (w *WindowedCounter) windowNLocked(k int) int {
	n := 0
	for i := 0; i < k; i++ {
		n += w.ring[(w.head-i+len(w.ring))%len(w.ring)].N()
	}
	return n
}

// Supports returns scheme-reconstructed support estimates over the full
// ring.
func (w *WindowedCounter) Supports(candidates []Itemset) ([]float64, error) {
	if len(candidates) == 0 {
		return nil, nil
	}
	w.tick()
	w.mu.RLock()
	defer w.mu.RUnlock()
	b, err := w.gatherLocked(candidates, len(w.ring))
	if err != nil {
		return nil, err
	}
	return b.supports()
}

// Estimates answers filter-count queries over the full ring.
func (w *WindowedCounter) Estimates(filters []Itemset) ([]PointEstimate, int, error) {
	ests, n, _, err := w.EstimatesWindow(filters, 0)
	return ests, n, err
}

// EstimatesWindow answers filter-count queries over the newest
// ceil(window/bucket) buckets (window <= 0 means the full ring). It
// returns the estimates, the record count of the same consistent
// sweep, and the counter version the answer is EXACT for — read under
// the same lock as the sweep, because bucket expiry makes windowed
// content non-monotonic (a later read can see fewer records, so the
// unwindowed "strictly newer is still valid" convention does not
// apply).
func (w *WindowedCounter) EstimatesWindow(filters []Itemset, window time.Duration) ([]PointEstimate, int, uint64, error) {
	w.tick()
	w.mu.RLock()
	defer w.mu.RUnlock()
	version := w.version.Load()
	k := w.bucketsFor(window)
	n := w.windowNLocked(k)
	// An empty window is a well-defined answer (n = 0, no estimates),
	// not an estimator error — the service layer turns it into its
	// usual "no submissions" response.
	if len(filters) == 0 || n == 0 {
		return nil, n, version, nil
	}
	b, err := w.gatherLocked(filters, k)
	if err != nil {
		return nil, 0, 0, err
	}
	ests, err := b.estimates()
	if err != nil {
		return nil, 0, 0, err
	}
	return ests, b.records(), version, nil
}

// SnapshotVersioned folds the full ring into one frozen SupportCounter.
func (w *WindowedCounter) SnapshotVersioned() (SupportCounter, uint64) {
	return w.SnapshotWindowVersioned(0)
}

// SnapshotWindowVersioned folds the newest ceil(window/bucket) buckets
// into one frozen, minable SupportCounter together with the version it
// is exact for. The version is read under the same read lock as the
// fold: ingests landing mid-fold may or may not be included (the
// snapshot is then strictly newer, as with ShardedCounter), but a
// rotation — which would REMOVE records and silently change the window
// — cannot interleave, because it needs the write lock.
func (w *WindowedCounter) SnapshotWindowVersioned(window time.Duration) (SupportCounter, uint64) {
	w.tick()
	w.mu.RLock()
	defer w.mu.RUnlock()
	version := w.version.Load()
	merged := w.scheme.newCore()
	k := w.bucketsFor(window)
	for i := 0; i < k; i++ {
		bkt := w.ring[(w.head-i+len(w.ring))%len(w.ring)]
		for _, s := range bkt.shards {
			s.foldInto(merged)
		}
	}
	return merged, version
}
