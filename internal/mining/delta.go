package mining

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
)

// Federated counter replication. FRAPP perturbs at the data provider, so
// the server-side counter is already privacy-safe — which makes counters
// from independent collection sites additive: summing per-site counts
// reproduces the counts of the union exactly, with no extra privacy
// cost. This file provides the scheme-generic replication substrate: a
// compatibility fingerprint (so only sites running the same scheme,
// schema, and perturbation contract merge), compact versioned deltas
// extracted from a live ShardedCounter of any scheme, and additive
// application through ShardedCounter.ApplyDelta and Merge, which a
// coordinator uses to keep one replica per site and one global counter
// over which the existing estimator and miner run unchanged.

// CounterDelta is one replication pull's payload: the sparse change of
// the FULL-domain (joint) histogram between two replication positions,
// plus everything a receiver needs to apply it safely. Only the joint
// histogram travels — it is what every core keeps (gamma derives its
// subset histograms from it at read time, the boolean schemes their
// pattern counts), keeping the wire format compact (at most one cell per
// new record).
type CounterDelta struct {
	// Fingerprint identifies the (scheme, schema, perturbation contract)
	// the cells were counted under; receivers must reject a mismatch. The
	// scheme identifier is part of the hash, so a gamma delta can never
	// be merged into a MASK counter even when both run the same schema.
	Fingerprint string
	// Generation is the sending counter object's random epoch nonce
	// (DeltaEpoch): every restart, state restore, or coordinator publish
	// creates a new counter object with a fresh nonce, so incremental
	// deltas chain only onto the exact object they were extracted from —
	// stream tokens can never alias another boot's state even when
	// version lines restart at colliding values.
	Generation uint64
	// FromVersion and ToVersion bracket the delta on the sender's
	// replication stream. FromVersion 0 means the payload is the FULL
	// counter state (a resync), to be applied to an empty counter;
	// otherwise the receiver must already hold the sender's state at
	// exactly FromVersion. ToVersion is an opaque stream position (>= the
	// counter's content version) to echo as `since` on the next pull.
	FromVersion uint64
	ToVersion   uint64
	// Records is the record-count change carried by Cells (the total
	// record count when FromVersion is 0).
	Records int
	// Cells are the changed joint-histogram cells, each strictly
	// positive — per-site counts only grow within a generation.
	Cells []DeltaCell
}

// DeltaCell is one changed cell of the joint histogram: the cell index
// in the scheme's joint domain (the schema's record↔index bijection for
// gamma, the row bitset for the boolean schemes), and the count
// increment.
type DeltaCell struct {
	Idx   uint64
	Count float64
}

// Full reports whether the delta carries complete counter state rather
// than an increment.
func (d *CounterDelta) Full() bool { return d.FromVersion == 0 }

// CompatibilityFingerprint hashes everything two gamma sites must agree
// on before their counters may be merged: the scheme identifier, schema
// name, every attribute with its ordered category list, and the
// perturbation matrix parameters. Two counters with equal fingerprints
// count in identical coordinates under identical distortion, so their
// histograms are additively combinable. The boolean schemes hash their
// own parameters under their own scheme tags (see boolcounter.go), so
// fingerprints can never collide across schemes.
func CompatibilityFingerprint(schema *dataset.Schema, m core.UniformMatrix) string {
	h := sha256.New()
	fmt.Fprintf(h, "scheme=%s;", SchemeGamma)
	fingerprintSchema(h, schema)
	fmt.Fprintf(h, "matrix=%d:%g:%g", m.N, m.Diag, m.Off)
	return hex.EncodeToString(h.Sum(nil))
}

// Fingerprint returns the counter's compatibility fingerprint.
func (c *gammaCore) Fingerprint() string {
	return CompatibilityFingerprint(c.schema, c.matrix)
}

// MaxDeltaWireBytes bounds one serialized CounterDelta read on the
// receiving side. A delta carries at most one gob cell (~2 words) per
// distinct joint-domain point, so even a full resync of a large site is
// a few MB; the cap is a safety valve against a misbehaving endpoint,
// not a tuning knob.
const MaxDeltaWireBytes = 1 << 30

// maxDeltaCheckpoints bounds the retained replication tokens: up to 8
// interleaved pullers (or 8 outstanding retry windows of one puller)
// replicate incrementally; anything older falls back to a full resync.
// The journal entries behind them are bounded too (see retain).
const maxDeltaCheckpoints = 8

// tokenCut is one retained replication position: the stream token, the
// counter's record count at the cut, and every shard's journal position.
type tokenCut struct {
	token uint64
	n     int
	pos   []uint64
}

// counterCut is one cut of every shard, each read in one hold of that
// shard's lock, with the record count and distinct-cell bound summed.
type counterCut struct {
	shards   []shardCut
	n, cells int
}

// cutShards cuts every shard in turn.
func (c *ShardedCounter) cutShards(read cutRead, edit func(*journal)) counterCut {
	cut := counterCut{shards: make([]shardCut, len(c.shards))}
	for i, s := range c.shards {
		sc := s.cut(read, edit)
		cut.shards[i] = sc
		cut.n += sc.n
		cut.cells += sc.cells
	}
	return cut
}

// covers reports whether every shard still journals everything after t.
func (cut *counterCut) covers(t *tokenCut) bool {
	for i, sc := range cut.shards {
		if t.pos[i] < sc.start {
			return false
		}
	}
	return true
}

// entriesSince counts the journal entries between t and the cut.
func (cut *counterCut) entriesSince(t *tokenCut) uint64 {
	var k uint64
	for i, sc := range cut.shards {
		k += sc.pos - t.pos[i]
	}
	return k
}

// aggregate sums the journal entries between positions from and to (to at
// or before the cut) into cells with sum, with no shard lock held.
func (cut *counterCut) aggregate(sum *cellSum, from, to []uint64) []DeltaCell {
	for i, sc := range cut.shards {
		addRange(sum, sc.chunks, from[i], to[i])
	}
	return sum.cells()
}

// joint merges the shards' joint cells of a cutJoint cut.
func (cut *counterCut) joint() []DeltaCell {
	sum := newCellSum(cut.cells)
	for _, sc := range cut.shards {
		sum.add(sc.joint)
	}
	return sum.cells()
}

// positions returns the cut's per-shard journal positions.
func (cut *counterCut) positions() []uint64 {
	pos := make([]uint64, len(cut.shards))
	for i, sc := range cut.shards {
		pos[i] = sc.pos
	}
	return pos
}

// enableJournal is the edit every minting cut runs: journaling on, with
// the floor budget's limit until retain sets the counter's own.
func (c *ShardedCounter) enableJournal(j *journal) {
	j.enable(c.shardLimit(0))
}

// shardLimit is one shard's share of the retention budget: 8 journal
// entries per distinct joint cell (the 8 full baselines the journal
// replaces held at most that many cells), with a floor.
func (c *ShardedCounter) shardLimit(cells int) uint64 {
	return uint64(maxDeltaCheckpoints*max(cells, journalFloorCells)/len(c.shards)) + 1
}

// token returns the retained cut issued as token t, nil if none.
func (c *ShardedCounter) token(t uint64) *tokenCut {
	for _, tc := range c.tokens {
		if tc.token == t && t != 0 {
			return tc
		}
	}
	return nil
}

// mint returns the token for a cut taken after reading version: the
// newest retained token when no shard journaled anything since it (an
// unchanged counter reuses its token, so idle polling never churns the
// retained set), otherwise a fresh strictly increasing token >= version,
// retained as the newest. Called with repMu held.
func (c *ShardedCounter) mint(version uint64, cut *counterCut) *tokenCut {
	if k := len(c.tokens); k > 0 && cut.covers(c.tokens[k-1]) && cut.entriesSince(c.tokens[k-1]) == 0 {
		return c.tokens[k-1]
	}
	token := max(version, c.lastDeltaToken+1)
	c.lastDeltaToken = token
	t := &tokenCut{token: token, n: cut.n, pos: cut.positions()}
	c.tokens = append(c.tokens, t)
	return t
}

// retain applies the retention rule after a cut: tokens the cut no longer
// covers go (a shard dropped its journal), then the oldest while more
// than maxDeltaCheckpoints remain or while the entries after the oldest
// exceed the budget of 8 entries per distinct cell; the newest always
// stays. Each shard then releases the entries below the oldest kept
// token and takes its share of the budget as the limit of entries past
// the cut. Called with repMu held.
func (c *ShardedCounter) retain(cut *counterCut) {
	budget := c.shardLimit(cut.cells) * uint64(len(c.shards))
	k := 0
	for k < len(c.tokens)-1 && (!cut.covers(c.tokens[k]) ||
		len(c.tokens)-k > maxDeltaCheckpoints || cut.entriesSince(c.tokens[k]) > budget) {
		k++
	}
	c.tokens = append([]*tokenCut(nil), c.tokens[k:]...)
	c.retained.Store(int64(len(c.tokens)))
	oldest, limit := c.tokens[0].pos, c.shardLimit(cut.cells)
	for i, s := range c.shards {
		s.cut(cutJournal, func(j *journal) {
			j.trim(oldest[i])
			j.limit = limit
		})
	}
}

// DeltaSince extracts the counter's change since a previously issued
// replication position. since 0 — or any position the counter no longer
// retains (trimmed token, dropped journal, restarted process, restored
// state) — yields a FULL delta (FromVersion 0); otherwise an incremental
// delta against exactly the state returned at `since`. The returned
// ToVersion is the position to echo next time.
//
// Each shard's journal is cut in O(1) under that shard's lock, in the
// same hold that reads its record count; the entries between the `since`
// cut and the new one are then aggregated with no shard lock held. A full
// delta folds each shard's joint histogram in its cut's hold instead.
//
// ToVersion is a stream token, not the content version: every distinct
// counter state gets a distinct token >= the content version at
// extraction time, while pulls that observe an unchanged counter reuse
// the newest token.
func (c *ShardedCounter) DeltaSince(since uint64) (*CounterDelta, error) {
	c.repMu.Lock()
	defer c.repMu.Unlock()
	read := cutJoint
	if c.token(since) != nil {
		read = cutJournal
	}
	d, cut, _ := c.deltaLocked(since, read)
	if d == nil {
		// A shard dropped its journal since `since`: serve full.
		d, cut, _ = c.deltaLocked(0, cutJoint)
	}
	c.retain(&cut)
	return d, nil
}

// deltaLocked cuts every shard (reading read), mints the cut's token and
// returns the delta from since to it: incremental when since is retained
// and the cut covers it, full when the cut read the joint histogram, nil
// otherwise. Called with repMu held.
func (c *ShardedCounter) deltaLocked(since uint64, read cutRead) (*CounterDelta, counterCut, *tokenCut) {
	version := c.Version()
	cut := c.cutShards(read, c.enableJournal)
	to := c.mint(version, &cut)
	d := &CounterDelta{Fingerprint: c.Fingerprint(), Generation: c.deltaEpoch, ToVersion: to.token}
	switch base := c.token(since); {
	case base != nil && cut.covers(base):
		d.FromVersion = base.token
		d.Records = to.n - base.n
		d.Cells = cut.aggregate(newCellSum(int(cut.entriesSince(base))), base.pos, to.pos)
	case read == cutJoint:
		d.Records, d.Cells = cut.n, cut.joint()
	default:
		d = nil
	}
	return d, cut, to
}

// ReplicationJournal reports the change-journal entries the shards retain
// and the replication tokens retained, for scrape-time telemetry.
func (c *ShardedCounter) ReplicationJournal() (entries, tokens int) {
	for _, s := range c.shards {
		if sc := s.cut(cutJournal, nil); sc.pos > sc.start {
			entries += int(sc.pos - sc.start)
		}
	}
	return entries, int(c.retained.Load())
}

// DeltaEpoch returns the counter object's random replication epoch —
// the Generation every extracted delta carries.
func (c *ShardedCounter) DeltaEpoch() uint64 { return c.deltaEpoch }

// validateDelta runs the receiver checks the cells themselves do not
// carry: presence and a fingerprint match (which seals scheme, schema,
// and parameters). Each core's addCells checks the cells.
func validateDelta(d *CounterDelta, fingerprint string) error {
	if d == nil {
		return fmt.Errorf("%w: nil delta", ErrMining)
	}
	if d.Fingerprint != fingerprint {
		return fmt.Errorf("%w: delta fingerprint %.12s does not match counter %.12s (different scheme, schema, or perturbation contract)",
			ErrMining, d.Fingerprint, fingerprint)
	}
	return nil
}

// checkCells verifies a non-negative record count carried by strictly
// positive cells that sum to it.
func checkCells(cells []DeltaCell, records int) error {
	if records < 0 {
		return fmt.Errorf("%w: negative record count %d", ErrMining, records)
	}
	var sum float64
	for _, cell := range cells {
		if cell.Count <= 0 {
			return fmt.Errorf("%w: non-positive cell count %v at index %d", ErrMining, cell.Count, cell.Idx)
		}
		sum += cell.Count
	}
	if diff := sum - float64(records); diff > 1e-6 || diff < -1e-6 {
		return fmt.Errorf("%w: cells total %v, want %d records", ErrMining, sum, records)
	}
	return nil
}

// applyDelta folds a replication delta into the core: every cell is a
// batch of Count records at joint index Idx, added through addCells. The
// caller is responsible for chaining (applying a full delta to an EMPTY
// counter and an incremental delta to the state at exactly
// FromVersion).
func (c *gammaCore) applyDelta(d *CounterDelta) error {
	if err := validateDelta(d, c.Fingerprint()); err != nil {
		return err
	}
	return c.addCells(d.Cells, d.Records)
}
