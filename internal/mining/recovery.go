package mining

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
)

// Crash-recovery support for live counters. The durable store
// (internal/store) logs a ShardedCounter's changes as a chain of
// CounterDelta records — the same sparse joint-histogram diffs the
// federation layer replicates — and rebuilds the counter after a crash
// by loading a compacted checkpoint and replaying the chain's tail.
// This file provides the primitives that makes possible on the counter
// itself: applying a delta to a LIVE counter (recovery replay), a
// consistent checkpoint cut, and persisting/restoring the replication
// identity (delta epoch, token high-water mark, change-journal tail) so
// federation pullers can resume incremental replication against a
// restarted process instead of falling back to a full re-pull.

// tokenRecoveryGap is added to the persisted token high-water mark on
// restore. Stream tokens minted after the last checkpoint are lost in a
// crash, so a recovered counter that continued from the persisted mark
// alone could re-mint a pre-crash token for DIFFERENT state — and a
// puller still holding the old token would silently chain onto the
// wrong baseline. The gap keeps every post-recovery token above any
// token the previous boot could plausibly have minted (one token per
// pull: 2^32 pulls between two checkpoints is out of reach).
const tokenRecoveryGap = 1 << 32

// tokenRecoveryJitter bounds a random extra skip on top of the gap. The
// gap alone is a function of the persisted state, so two boots from the
// SAME state — one backup restored twice — would mint the same token
// line for different records, and a puller holding a token from the
// first boot would chain incrementally onto the second boot's state.
// With the jitter the two lines overlap only with probability about
// (tokens minted)/2^40, while 2^24 boots still fit in a uint64.
const tokenRecoveryJitter = 1 << 40

// ApplyDelta folds a replication or WAL delta into the live counter. A
// FULL delta is accepted only by an empty counter — the caller chains
// deltas, the counter refuses the one misuse that would double-count.
func (c *ShardedCounter) ApplyDelta(d *CounterDelta) error {
	if d == nil {
		return fmt.Errorf("%w: nil delta", ErrMining)
	}
	if d.Full() && c.N() != 0 {
		return fmt.Errorf("%w: full delta applied to a counter already holding %d records", ErrMining, c.N())
	}
	return c.apply(d)
}

// Merge adds another counter's content into this one: the other
// counter's joint cells, cut shard by shard, land in one shard of this
// counter through the delta path, which journals them, so pullers of
// this counter receive them in their next exact delta. Because every
// observable is a per-record sum, merging per-site counters reproduces
// the counter of the union of their records exactly. The two counters
// must be distinct and share a compatibility fingerprint (which seals
// scheme, schema, and perturbation parameters).
func (c *ShardedCounter) Merge(other *ShardedCounter) error {
	switch {
	case other == nil:
		return fmt.Errorf("%w: nil counter", ErrMining)
	case other == c:
		return fmt.Errorf("%w: cannot merge a counter into itself", ErrMining)
	case other.Fingerprint() != c.Fingerprint():
		return fmt.Errorf("%w: cannot merge a %s counter into a %s counter of a different scheme, schema, or perturbation contract",
			ErrMining, other.Scheme(), c.Scheme())
	}
	cut := other.cutShards(cutJoint, nil)
	return c.apply(&CounterDelta{Fingerprint: c.Fingerprint(), Records: cut.n, Cells: cut.joint()})
}

// apply lands a delta in the next shard in round-robin order, where the
// core validates it (fingerprint, cell ranges, positivity, record-count
// sum), and advances the record count (the content version) by its
// records, exactly as if they had been ingested one by one.
func (c *ShardedCounter) apply(d *CounterDelta) error {
	shard := c.next.Add(1) % uint64(len(c.shards))
	if err := c.shards[shard].applyDelta(d); err != nil {
		return err
	}
	c.total.Add(int64(d.Records))
	return nil
}

// JournalSegment is one retained replication token in portable form: the
// token and the journal entries counted after it, up to the next
// segment's token (the last segment runs to the capture cut), aggregated
// into cells.
type JournalSegment struct {
	Token   uint64
	Records int
	Cells   CellList
}

// ReplicationState is the counter's replication identity, captured for
// persistence: the delta epoch every extracted delta carries, the token
// high-water mark, and the retained journal tail as one segment per
// token, oldest first. The state at segment i's token is the captured
// state minus segments i onward, so restoring the tail into a counter
// recovered to the captured state (plus the replayed WAL, see Extend)
// lets pullers that chained onto the pre-crash counter continue
// incrementally — same epoch, same tokens — instead of being forced into
// a full resync.
type ReplicationState struct {
	Epoch     uint64
	LastToken uint64
	Journal   []JournalSegment
}

// Extend appends a replayed WAL delta to the tail: its cells join the
// newest token's segment, which it chains from, and its ToVersion
// becomes the newest token; only the newest maxDeltaCheckpoints tokens
// are kept. A delta that does not chain from the newest token leaves only
// its own end point.
func (rs *ReplicationState) Extend(d *CounterDelta) {
	if k := len(rs.Journal); k > 0 && rs.Journal[k-1].Token == d.FromVersion {
		last := &rs.Journal[k-1]
		last.Records += d.Records
		last.Cells = append(last.Cells, d.Cells...)
	} else {
		rs.Journal = nil
	}
	rs.Journal = append(rs.Journal, JournalSegment{Token: d.ToVersion})
	if k := len(rs.Journal); k > maxDeltaCheckpoints {
		rs.Journal = append([]JournalSegment(nil), rs.Journal[k-maxDeltaCheckpoints:]...)
	}
	rs.LastToken = max(rs.LastToken, d.ToVersion)
}

// tail aggregates the retained journal into one segment per token the
// cut covers. Called with repMu held.
func (c *ShardedCounter) tail(cut *counterCut) ReplicationState {
	rs := ReplicationState{Epoch: c.deltaEpoch, LastToken: c.lastDeltaToken}
	var sum *cellSum
	for i, t := range c.tokens {
		if !cut.covers(t) {
			continue
		}
		if sum == nil {
			sum = newCellSum(int(cut.entriesSince(t)))
		}
		to, n := cut.positions(), cut.n
		if i+1 < len(c.tokens) {
			to, n = c.tokens[i+1].pos, c.tokens[i+1].n
		}
		rs.Journal = append(rs.Journal, JournalSegment{Token: t.token, Records: n - t.n, Cells: cut.aggregate(sum, t.pos, to)})
	}
	return rs
}

// CounterCheckpoint is a consistent checkpoint cut of a live counter:
// the state every shard held at the checkpoint token, saved in the same
// lock hold as that shard's journal cut, plus the replication tail up to
// the token.
type CounterCheckpoint struct {
	// Token is the stream token of the cut, retained like any DeltaSince
	// token so the WAL chain and pullers can continue from it.
	Token       uint64
	Replication ReplicationState
	// Bridge is the incremental delta from the `since` token passed to
	// CheckpointCut to Token; nil when since is not retained or the
	// counter has not changed since it.
	Bridge *CounterDelta
	state  counterState
}

// Save serializes the checkpoint's counter state in the format
// LoadLiveCounter reads.
func (ck *CounterCheckpoint) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(&ck.state)
}

// CheckpointCut takes a consistent checkpoint cut: per shard, the saved
// state and the journal cut come from one hold of the shard's lock, so
// the saved state is exactly the state at the returned token — no frozen
// copy is rebuilt, and records arriving meanwhile land after the token.
func (c *ShardedCounter) CheckpointCut(since uint64) *CounterCheckpoint {
	c.repMu.Lock()
	defer c.repMu.Unlock()
	d, cut, to := c.deltaLocked(since, cutState)
	ck := &CounterCheckpoint{Token: to.token, state: c.stateOf(cut)}
	if d != nil && d.FromVersion != d.ToVersion {
		ck.Bridge = d
	}
	c.retain(&cut)
	ck.Replication = c.tail(&cut)
	return ck
}

// RestoreReplicationState adopts a persisted replication identity into a
// freshly recovered counter: the delta epoch is restored (so pullers'
// generation checks pass), the token high-water mark jumps past anything
// the previous boot could have minted, by a random amount so that two
// boots from one persisted state mint different token lines (see
// tokenRecoveryGap and tokenRecoveryJitter), and the journal tail is
// re-seeded so its tokens stay incremental positions. The tail and the
// state of one checkpoint come from one cut, so a tail that is malformed
// or claims more records than the recovered counter holds is corrupt: it
// is dropped whole, and its pullers get a full resync, which is always
// safe.
//
// Call before the counter is shared: like construction, this runs
// single-threaded during recovery, not under concurrent ingest.
func (c *ShardedCounter) RestoreReplicationState(rs ReplicationState) error {
	if rs.Epoch == 0 {
		return fmt.Errorf("%w: replication state carries no epoch", ErrMining)
	}
	c.repMu.Lock()
	defer c.repMu.Unlock()
	c.deltaEpoch = rs.Epoch
	base := max(rs.LastToken, c.Version())
	if k := len(rs.Journal); k > 0 {
		base = max(base, rs.Journal[k-1].Token)
	}
	c.lastDeltaToken = base + tokenRecoveryGap + uint64(rand.Int63n(tokenRecoveryJitter))
	segs := rs.Journal[max(0, len(rs.Journal)-maxDeltaCheckpoints):]
	c.tokens = nil
	if !c.wellFormed(segs) {
		return nil
	}
	// Seed shard 0's journal with the tail (the journal is a sum over
	// shards, so which shard holds an entry does not matter); the other
	// shards' tokens sit at their fresh journals' start.
	cut := c.cutShards(cutJournal, c.enableJournal)
	n := cut.n
	for _, sg := range segs {
		n -= sg.Records
	}
	c.shards[0].cut(cutJournal, func(j *journal) {
		for _, sg := range segs {
			t := &tokenCut{token: sg.Token, n: n, pos: cut.positions()}
			t.pos[0] = j.end
			c.tokens = append(c.tokens, t)
			for _, cell := range sg.Cells {
				j.add(cell.Idx, cell.Count)
			}
			n += sg.Records
		}
		j.mark = c.tokens[len(c.tokens)-1].pos[0]
	})
	cut = c.cutShards(cutJournal, nil)
	c.retain(&cut)
	return nil
}

// wellFormed reports whether a persisted tail can be re-seeded: nonzero
// strictly increasing tokens, positive cells summing to each segment's
// records, and no more records in all than the counter holds.
func (c *ShardedCounter) wellFormed(segs []JournalSegment) bool {
	records := 0
	for i, sg := range segs {
		if sg.Token == 0 || (i > 0 && sg.Token <= segs[i-1].Token) || checkCells(sg.Cells, sg.Records) != nil {
			return false
		}
		records += sg.Records
	}
	return len(segs) > 0 && records <= c.N()
}
