// Package store provides durable incremental persistence for FRAPP live
// counters: a write-ahead log of sparse CounterDelta records plus
// periodic compacted checkpoints, kept in one directory by FileStore.
//
// The design leans on a property of the FRAPP trust model: server-side
// state is purely additive (joint/marginal histograms of perturbed
// submissions — no raw record ever reaches the server), so the existing
// replication delta layer (mining.CounterDelta / DeltaSince) is already
// an exact, compact change log. The store chains those deltas into an
// append-only WAL off the ingest hot path, compacts them into full
// counter checkpoints (the scheme-tagged state format), and after a
// crash recovers by loading the newest valid checkpoint and replaying
// the WAL tail; a torn trailing record ends the replay, it is never
// fatal. Checkpoints also carry the counter's replication identity
// (delta epoch + change-journal tail), so federation pullers resume
// incremental replication against the recovered counter instead of
// being forced into a full re-pull.
package store

import "errors"

// ErrStore is returned for invalid store state or configuration.
var ErrStore = errors.New("store: invalid state")
