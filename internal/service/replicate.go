package service

import (
	"encoding/gob"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/federation"
	"repro/internal/mining"
)

// Federation surface of the collection server.
//
// GET /v1/replicate?since=V&gen=G streams this server's counter change
// as a gob-encoded mining.CounterDelta — the pull side of multi-site
// replication. The endpoint is privacy-free to expose: it serves exactly
// the perturbed marginal counts the server itself holds (no record ever
// existed server-side in the FRAPP trust model). `since` is the stream
// position the caller's previous pull returned (0 for first contact),
// `gen` the counter generation it was returned under; a generation
// mismatch, an unretained token, or since=0 all produce a FULL delta
// the caller applies from scratch, so a chain can never silently skew.
//
// A server built WithPeers is a coordinator: its counter is the merged
// global view published by the federation sync loop, its /v1/stats
// carries the per-peer health table and version vector, its /v1/query
// and /v1/mine responses are stamped with the version vector they
// reflect, and it refuses direct submissions (403) — records enter the
// federation at collector sites only.

// errWindowedServer rejects replication pulls on a windowed server:
// ring expiry is wall-clock-defined, so a delta stream cannot reproduce
// the collection's content elsewhere (deltas cannot express expiry
// subtractions at all).
var errWindowedServer = fmt.Errorf("%w: collection is a sliding window (in-memory ring); replication is unavailable", errConflict)

// handleReplicate serves one replication pull.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	// Every counter but a windowed server's ring is a ShardedCounter.
	counter, ok := s.ctr().(*mining.ShardedCounter)
	if !ok {
		WriteError(w, errWindowedServer)
		return
	}
	since, err := queryUint64(r, "since", 0)
	if err != nil {
		WriteError(w, err)
		return
	}
	gen, err := queryUint64(r, "gen", 0)
	if err != nil {
		WriteError(w, err)
		return
	}
	// A caller chained onto a different counter object — a different
	// delta epoch — gets a full delta: the object it replicated from is
	// gone, and so are its tokens. The epoch is a per-object random
	// nonce (not the cache generation, which restarts at small values
	// every process and could collide across a crash-reboot), so a stale
	// (since, gen) pair can never be satisfied incrementally against a
	// different state.
	if gen != counter.DeltaEpoch() {
		since = 0
	}
	d, err := counter.DeltaSince(since)
	if err != nil {
		WriteError(w, err) // a server fault: 500
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := gob.NewEncoder(w).Encode(d); err != nil {
		// Headers are gone; the truncated body fails the client's decode.
		return
	}
}

// WithPeers makes the server a federation coordinator over the given
// peer collection servers. NewServer builds the coordinator over the
// server's own scheme contract, so its compatibility fingerprint can
// never drift from the server's and a peer running a different scheme
// is rejected, never merged. The merged global counter becomes the one
// the query, mining and stats handlers answer from, and direct
// submissions are refused (403). opts tune the sync loop. Nothing is
// pulled until the caller runs Coordinator().Start (background loops)
// or SyncAll (one pass); Server.Close stops the loops. A coordinator
// can be neither store-backed nor windowed: its counter is rebuilt from
// its peers, which own the durable state, and deltas cannot express
// bucket expiry.
func WithPeers(peers []string, opts ...federation.Option) Option {
	return func(c *serverConfig) { c.peers, c.fedOpts = peers, opts }
}

// replaceCounter atomically swaps the counter the query, mining, and
// stats handlers answer from — the publish hook of the coordinator
// NewServer builds for WithPeers. vector is the per-peer version vector
// the counter reflects; it is stamped into /v1/query and /v1/mine
// responses. The swap invalidates the mining-result cache and bumps the
// counter generation BEFORE publishing, so no worker can pair the new
// counter with a stale cache entry (see executeMine). The incoming
// counter's fingerprint — which seals its scheme, schema, and
// parameters — must match this server's contract exactly: a counter
// collected under a different scheme is rejected, never served.
func (s *Server) replaceCounter(c mining.LiveCounter, vector map[string]uint64) error {
	if c == nil {
		return fmt.Errorf("%w: nil counter", ErrService)
	}
	if c.Fingerprint() != s.scheme.Fingerprint() {
		return fmt.Errorf("%w: counter does not match this server's scheme, schema, and perturbation contract", ErrService)
	}
	gen := s.jobs.invalidateCache()
	s.counter.Store(&counterRef{counter: c, gen: gen, vector: vector})
	return nil
}

// Coordinator returns the federation sync loop of a server built
// WithPeers, nil on any other server. The caller starts it; Server.Close
// stops it.
func (s *Server) Coordinator() *federation.Coordinator { return s.fed }

// PublishedSchema returns the schema the server publishes on /v1/schema.
func (s *Server) PublishedSchema() *dataset.Schema { return s.schema }

// errFederated rejects direct submissions on a coordinator.
var errFederated = fmt.Errorf("%w: federation coordinator does not accept submissions; submit to a collector site", errForbidden)

func queryUint64(r *http.Request, key string, def uint64) (uint64, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: bad %s=%q", errInvalid, key, raw)
	}
	return v, nil
}
