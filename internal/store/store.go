// Package store provides durable incremental persistence for FRAPP live
// counters: a write-ahead log of sparse CounterDelta records plus
// periodic compacted checkpoints, behind a pluggable StateStore
// interface.
//
// The design leans on a property of the FRAPP trust model: server-side
// state is purely additive (joint/marginal histograms of perturbed
// submissions — no raw record ever reaches the server), so the existing
// replication delta layer (mining.CounterDelta / DeltaSince) is already
// an exact, compact change log. The store chains those deltas into an
// append-only WAL off the ingest hot path, compacts them into full
// counter checkpoints (the v3 scheme-tagged state format), and after a
// crash recovers by loading the newest valid checkpoint and replaying
// the WAL tail; a torn trailing record ends the replay, it is never
// fatal. Checkpoints also carry the counter's replication identity
// (delta epoch + change-journal tail), so federation pullers resume
// incremental replication against the recovered counter instead of
// being forced into a full re-pull.
package store

import (
	"errors"

	"repro/internal/mining"
)

// ErrStore is returned for invalid store state or configuration.
var ErrStore = errors.New("store: invalid state")

// StateStore is the pluggable durable-persistence contract the
// collection service programs against. The lifecycle is: Recover once
// (before serving), Attach the live counter (writes a fresh compacted
// boot checkpoint), then Append periodically from a background flusher,
// Checkpoint on record thresholds, and Close on shutdown. FileStore is
// the production implementation; MemStore backs tests.
//
// Append and Checkpoint are safe to call while the attached counter
// ingests concurrently; the store's own methods must not be called
// concurrently with each other (the service serializes them on one
// flusher goroutine).
type StateStore interface {
	// Recover rebuilds the durable state — newest valid checkpoint plus
	// the replayed WAL tail — as a live counter with the store's
	// persisted replication identity restored. Returns (nil, nil) when
	// the store holds no state yet.
	Recover(scheme mining.CounterScheme, shards int) (*mining.ShardedCounter, error)
	// Attach binds the live counter the store will log, writes a
	// compacted checkpoint of its current state, and starts a fresh WAL
	// segment chained to it.
	Attach(counter *mining.ShardedCounter) error
	// Append flushes the counter's changes since the last append into
	// the WAL as one delta record. A no-op when nothing changed.
	Append() error
	// Checkpoint compacts: writes the counter's full current state as a
	// new checkpoint, rotates the WAL, and prunes obsolete files.
	Checkpoint() error
	// SinceCheckpoint reports how many records the WAL has accumulated
	// since the last checkpoint — the service's checkpoint trigger.
	SinceCheckpoint() int
	// Close releases the store. It does not flush: callers Append (and
	// usually Checkpoint) first on the graceful path.
	Close() error
}
