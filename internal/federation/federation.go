// Package federation implements multi-site counter replication for
// FRAPP deployments: a coordinator periodically pulls versioned counter
// deltas from a set of peer collection servers and merges them into one
// global counter, over which the existing query estimator and Apriori
// miner run unchanged.
//
// The design leans on the FRAPP trust model: perturbation happens at the
// data provider, so the per-site gamma counters are already privacy-safe
// and additive — merging site histograms reproduces the histogram of the
// union of their submissions exactly, with no extra privacy cost. What
// the coordinator must get right is therefore purely operational:
//
//   - Compatibility: a peer's deltas carry a fingerprint of its
//     perturbation scheme, schema, and scheme parameters; a mismatched
//     site — including a site running a DIFFERENT scheme over the same
//     schema — is rejected, never merged (its counts live in different
//     coordinates). The whole federation runs under one negotiated
//     scheme contract (gamma, MASK, or cut-and-paste), echoing
//     heterogeneous-detector collaboration: cooperation requires an
//     explicit shared contract, not an implicit assumption.
//   - Incrementality: each pull sends GET /v1/replicate?since=V&gen=G,
//     where V is the stream position the previous pull returned; the
//     peer answers with a compact sparse delta, falling back to a full
//     resync when it no longer retains the baseline.
//   - Generations: a peer -state restore (or process restart) regresses
//     the peer's counter and restarts its version line. The peer's
//     counter generation travels with every delta, and an unknown or
//     changed (generation, version) pair always produces a FULL delta,
//     which the coordinator applies by REPLACING that peer's replica —
//     the global view re-converges to the true union and can never
//     double-count or silently serve a stale contribution.
//
// Each peer's replica is a one-shard mining.ShardedCounter fed through
// ApplyDelta. Every successful pull that changed anything rebuilds the
// merged global counter (a fresh ShardedCounter that every replica is
// merged into) and publishes it, together with the per-peer version
// vector it reflects, through a caller-supplied publish hook — in the
// collection service, the hook of a server built WithPeers, which
// atomically swaps the counter the /v1/query, /v1/mine, and /v1/stats
// handlers answer from.
package federation

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/mining"
	"repro/internal/telemetry"
)

// ErrFederation is returned for invalid federation configuration or
// irrecoverable peer protocol violations.
var ErrFederation = errors.New("federation: invalid input")

const (
	defaultSyncInterval   = 5 * time.Second
	defaultRequestTimeout = 30 * time.Second
	// defaultMaxBackoff caps the exponential per-peer retry backoff.
	defaultMaxBackoff = 2 * time.Minute
	// jitterFraction spreads sync ticks ±10% so a fleet of coordinators
	// (or one coordinator's peer loops) never phase-locks its pulls.
	jitterFraction = 0.1
)

// Option configures a Coordinator.
type Option func(*config)

type config struct {
	interval   time.Duration
	timeout    time.Duration
	maxBackoff time.Duration
	client     *http.Client
	metrics    *telemetry.Registry
}

// WithSyncInterval sets the per-peer pull interval (default 5s). Each
// tick is jittered ±10%; failures back off exponentially from this base.
func WithSyncInterval(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.interval = d
		}
	}
}

// WithRequestTimeout bounds one replication request (default 30s).
func WithRequestTimeout(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.timeout = d
		}
	}
}

// WithMaxBackoff caps the exponential failure backoff (default 2m).
func WithMaxBackoff(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.maxBackoff = d
		}
	}
}

// WithHTTPClient substitutes the transport (tests use the httptest
// server's client).
func WithHTTPClient(h *http.Client) Option {
	return func(c *config) {
		if h != nil {
			c.client = h
		}
	}
}

// ReplicateFunc fetches one delta from a peer. The production
// implementation does GET {base}/v1/replicate?since=V&gen=G and decodes
// the gob payload; it is a seam so tests can interpose failures.
type ReplicateFunc func(ctx context.Context, base string, since, gen uint64) (*mining.CounterDelta, error)

// PeerStatus is one peer's health, replication position, and lag as
// surfaced in /v1/stats.
type PeerStatus struct {
	URL string `json:"url"`
	// Healthy means the last sync attempt succeeded.
	Healthy bool `json:"healthy"`
	// Generation is the opaque epoch nonce of the peer counter object
	// last replicated (it changes on every peer restart or restore);
	// Version is the replication stream position last merged — the
	// peer's entry in the global version vector.
	Generation uint64 `json:"generation"`
	Version    uint64 `json:"version"`
	// Records is this peer's current contribution to the global counter.
	Records int `json:"records"`
	// Syncs counts successful pulls; FullSyncs counts how many of them
	// were full resyncs (first contact, lost baseline, or a generation
	// change from a peer -state restore).
	Syncs     uint64 `json:"syncs"`
	FullSyncs uint64 `json:"full_syncs"`
	// ConsecutiveFailures drives the exponential backoff.
	ConsecutiveFailures uint64 `json:"consecutive_failures"`
	// LastSync is the wall time of the last successful pull; LagSeconds
	// is the age of that pull (0 when never synced — see Healthy).
	LastSync   time.Time `json:"last_sync,omitzero"`
	LagSeconds float64   `json:"lag_seconds"`
	// LastError is the last failure, kept after recovery for forensics.
	LastError string `json:"last_error,omitempty"`
}

// Stats is the coordinator's snapshot for /v1/stats: the per-peer health
// table, the version vector of the published global counter, and the
// publish counters.
type Stats struct {
	// Scheme is the federation's negotiated perturbation scheme: the one
	// every peer must run, sealed into the contract fingerprint.
	Scheme string       `json:"scheme"`
	Peers  []PeerStatus `json:"peers"`
	// Records is the record count of the last published global counter.
	Records int `json:"records"`
	// Publishes counts how many merged counters were published;
	// PublishFailures counts merge/publish-hook rejections (a growing
	// count with healthy peers means the served view is frozen —
	// LastPublishError says why).
	Publishes        uint64 `json:"publishes"`
	PublishFailures  uint64 `json:"publish_failures,omitempty"`
	LastPublishError string `json:"last_publish_error,omitempty"`
	// VersionVector maps peer URL → last merged stream position; it
	// identifies exactly which per-peer states the published global
	// counter reflects.
	VersionVector map[string]uint64 `json:"version_vector"`
	LastPublish   time.Time         `json:"last_publish,omitzero"`
	SyncInterval  float64           `json:"sync_interval_seconds"`
}

// peer is one replication source and its coordinator-side replica.
type peer struct {
	url string

	// syncMu serializes sync attempts against this peer (the background
	// loop and explicit SyncAll calls may overlap).
	syncMu sync.Mutex

	// mu guards everything below.
	mu sync.Mutex
	// replica is a one-shard counter holding the peer's state; nil until
	// the first sync.
	replica   *mining.ShardedCounter
	version   uint64
	gen       uint64
	healthy   bool
	syncs     uint64
	fullSyncs uint64
	failures  uint64
	lastSync  time.Time
	lastErr   string
}

// Coordinator pulls versioned deltas from a fixed peer registry, keeps a
// per-peer replica, and publishes the merged global counter.
type Coordinator struct {
	scheme      mining.CounterScheme
	fingerprint string
	publish     func(mining.LiveCounter, map[string]uint64) error
	replicate   ReplicateFunc
	peers       []*peer
	cfg         config
	// pmet maps peer URL → inline-updated replication instruments; nil
	// (and empty) without WithMetrics.
	pmet map[string]*peerMetrics

	// pubMu serializes merge+publish so counters publish in order.
	pubMu            sync.Mutex
	publishedRecords int
	publishedVector  map[string]uint64
	publishes        uint64
	publishFailures  uint64
	lastPublishErr   string
	lastPublish      time.Time

	startOnce sync.Once
	closeOnce sync.Once
	quit      chan struct{}
	// rootCtx parents every pull so Close cancels in-flight requests
	// instead of waiting out their timeouts.
	rootCtx    context.Context
	rootCancel context.CancelFunc
	wg         sync.WaitGroup
}

// NewCoordinator validates the peer registry and prepares a coordinator
// over one scheme contract — every peer must run the same scheme, schema,
// and parameters, sealed into the contract's fingerprint. publish is
// invoked with each freshly merged global counter and the per-peer
// version vector it reflects (in the collection service, the hook of a
// server built WithPeers); counter and vector are allocated per publish and never
// touched again, so the hook may retain both. Nothing is pulled until
// Start (background loops) or SyncAll (one synchronous pass).
func NewCoordinator(scheme mining.CounterScheme, peerURLs []string,
	publish func(mining.LiveCounter, map[string]uint64) error, opts ...Option) (*Coordinator, error) {
	if scheme == nil {
		return nil, fmt.Errorf("%w: nil scheme contract", ErrFederation)
	}
	if publish == nil {
		return nil, fmt.Errorf("%w: nil publish hook", ErrFederation)
	}
	if len(peerURLs) == 0 {
		return nil, fmt.Errorf("%w: no peers", ErrFederation)
	}
	cfg := config{
		interval:   defaultSyncInterval,
		timeout:    defaultRequestTimeout,
		maxBackoff: defaultMaxBackoff,
		client:     http.DefaultClient,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	co := &Coordinator{
		scheme:      scheme,
		fingerprint: scheme.Fingerprint(),
		publish:     publish,
		cfg:         cfg,
		quit:        make(chan struct{}),
	}
	co.rootCtx, co.rootCancel = context.WithCancel(context.Background())
	co.replicate = co.httpReplicate
	seen := make(map[string]bool)
	for _, raw := range peerURLs {
		u, err := url.Parse(raw)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("%w: peer %q is not an absolute http(s) URL", ErrFederation, raw)
		}
		base := u.Scheme + "://" + u.Host + u.Path
		if seen[base] {
			return nil, fmt.Errorf("%w: duplicate peer %q", ErrFederation, base)
		}
		seen[base] = true
		co.peers = append(co.peers, &peer{url: base})
	}
	if cfg.metrics != nil {
		co.registerMetrics(cfg.metrics)
	}
	return co, nil
}

// SyncInterval returns the effective per-peer pull interval.
func (co *Coordinator) SyncInterval() time.Duration { return co.cfg.interval }

// Peers returns the registered peer URLs in registry order.
func (co *Coordinator) Peers() []string {
	out := make([]string, len(co.peers))
	for i, p := range co.peers {
		out[i] = p.url
	}
	return out
}

// Start launches one background sync loop per peer. Safe to call once;
// subsequent calls are no-ops. Close stops the loops.
func (co *Coordinator) Start() {
	co.startOnce.Do(func() {
		co.wg.Add(len(co.peers))
		for _, p := range co.peers {
			go co.peerLoop(p)
		}
	})
}

// Close stops the background loops — canceling any in-flight pull —
// and waits for them. Idempotent.
func (co *Coordinator) Close() {
	co.closeOnce.Do(func() {
		close(co.quit)
		co.rootCancel()
	})
	co.wg.Wait()
}

// peerLoop pulls one peer on a jittered interval, backing off
// exponentially while the peer is failing, and publishes the merged
// global counter after every pull that changed it.
func (co *Coordinator) peerLoop(p *peer) {
	defer co.wg.Done()
	timer := time.NewTimer(co.nextDelay(p))
	defer timer.Stop()
	for {
		select {
		case <-co.quit:
			return
		case <-timer.C:
		}
		ctx, cancel := context.WithTimeout(co.rootCtx, co.cfg.timeout)
		changed, err := co.syncPeer(ctx, p)
		cancel()
		if err == nil && changed {
			co.publishMerged()
		}
		timer.Reset(co.nextDelay(p))
	}
}

// baseDelay is the un-jittered tick for a peer: the base interval,
// doubled per consecutive failure up to the cap. Also sampled by the
// backoff-state gauge.
func (co *Coordinator) baseDelay(p *peer) time.Duration {
	p.mu.Lock()
	failures := p.failures
	p.mu.Unlock()
	d := co.cfg.interval
	for i := uint64(0); i < failures && d < co.cfg.maxBackoff; i++ {
		d *= 2
	}
	if d > co.cfg.maxBackoff {
		d = co.cfg.maxBackoff
	}
	return d
}

// nextDelay computes the next tick for a peer: baseDelay jittered ±10%.
func (co *Coordinator) nextDelay(p *peer) time.Duration {
	jitter := 1 + jitterFraction*(2*rand.Float64()-1)
	return time.Duration(float64(co.baseDelay(p)) * jitter)
}

// SyncAll performs one synchronous pull of every peer and publishes the
// merged counter unless the published one already reflects every
// replica. It returns the joined per-peer
// errors (nil when every pull succeeded); a partial failure still merges
// and publishes what did succeed. Used at coordinator startup for a warm
// first view, by the demo, and by tests that need deterministic syncs.
func (co *Coordinator) SyncAll(ctx context.Context) error {
	errs := make([]error, len(co.peers))
	var wg sync.WaitGroup
	// Peers pull concurrently — they are independent, and syncPeer
	// already serializes per peer — with the same per-request timeout as
	// the background loop, so a cold start against k down peers costs
	// one timeout, not k of them, and one black-holed peer cannot hang a
	// warm sync forever.
	for i, p := range co.peers {
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			pullCtx, cancel := context.WithTimeout(ctx, co.cfg.timeout)
			defer cancel()
			if _, err := co.syncPeer(pullCtx, p); err != nil {
				errs[i] = fmt.Errorf("peer %s: %w", p.url, err)
			}
		}(i, p)
	}
	wg.Wait()
	co.publishIfBehind()
	return errors.Join(errs...)
}

// publishIfBehind publishes when any replica's presence or version
// differs from the published vector. Whether this SyncAll's own pulls
// changed anything is not enough: a peer loop may have applied a delta
// and still be waiting on pubMu to publish it, and SyncAll must not
// return before that delta is published.
func (co *Coordinator) publishIfBehind() {
	co.pubMu.Lock()
	defer co.pubMu.Unlock()
	for _, p := range co.peers {
		p.mu.Lock()
		v, published := co.publishedVector[p.url]
		behind := (p.replica != nil) != published || (published && p.version != v)
		p.mu.Unlock()
		if behind {
			co.publishLocked()
			return
		}
	}
}

// syncPeer pulls one delta from a peer and applies it to the peer's
// replica, returning whether the replica changed. Protocol rules:
//
//   - A FULL delta (FromVersion 0) replaces the replica wholesale —
//     this is how first contact, lost baselines, and generation changes
//     (peer restarts/restores) all converge without double-counting.
//   - An incremental delta must chain exactly: same generation, and
//     FromVersion equal to the position we hold. Anything else drops
//     the replica and fails the attempt; the next attempt pulls full
//     (since=0) from scratch.
func (co *Coordinator) syncPeer(ctx context.Context, p *peer) (changed bool, err error) {
	p.syncMu.Lock()
	defer p.syncMu.Unlock()

	p.mu.Lock()
	since, gen := p.version, p.gen
	hasReplica := p.replica != nil
	p.mu.Unlock()
	if !hasReplica {
		since = 0
	}

	defer func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		if err != nil {
			p.healthy = false
			p.failures++
			p.lastErr = err.Error()
		} else {
			p.healthy = true
			p.failures = 0
			p.syncs++
			p.lastSync = time.Now()
		}
	}()

	d, err := co.replicate(ctx, p.url, since, gen)
	if err != nil {
		return false, err
	}
	if pm := co.pmet[p.url]; pm != nil {
		pm.deltaCells.Add(uint64(len(d.Cells)))
	}
	if d.Fingerprint != co.fingerprint {
		return false, fmt.Errorf("%w: peer fingerprint %.12s does not match coordinator %.12s (different scheme, schema, or perturbation contract)",
			ErrFederation, d.Fingerprint, co.fingerprint)
	}

	if d.Full() {
		fresh, err := mining.NewShardedCounter(co.scheme, 1)
		if err != nil {
			return false, err
		}
		if err := fresh.ApplyDelta(d); err != nil {
			return false, err
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		changed = p.replica == nil || p.replica.N() != 0 || fresh.N() != 0
		p.replica = fresh
		p.version = d.ToVersion
		p.gen = d.Generation
		p.fullSyncs++
		return changed, nil
	}

	// Apply and advance under ONE p.mu hold: publishMerged merges the
	// replica under p.mu, so content and version must move as a unit —
	// released between the two, a publish could merge post-delta content
	// while stamping the pre-delta version into its vector.
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.replica == nil || d.FromVersion != since || d.Generation != gen {
		// Broken chain: drop the replica so the next attempt resyncs
		// from scratch. (A correct peer never produces this — it falls
		// back to a full delta itself.)
		p.replica = nil
		p.version = 0
		return false, fmt.Errorf("%w: incremental delta (gen %d, %d→%d) does not chain onto held (gen %d, %d)",
			ErrFederation, d.Generation, d.FromVersion, d.ToVersion, gen, since)
	}
	if err := p.replica.ApplyDelta(d); err != nil {
		p.replica = nil
		p.version = 0
		return false, err
	}
	p.version = d.ToVersion
	return d.Records > 0, nil
}

// publishMerged rebuilds the global counter by merging every peer
// replica into a fresh one-shard counter and hands it to the publish
// hook together with the version vector it reflects. Publishes are
// serialized so a slower merge can never overwrite a newer one.
func (co *Coordinator) publishMerged() {
	co.pubMu.Lock()
	defer co.pubMu.Unlock()
	co.publishLocked()
}

// publishLocked is publishMerged's body. Called with pubMu held.
func (co *Coordinator) publishLocked() {
	merged, err := mining.NewShardedCounter(co.scheme, 1)
	vector := make(map[string]uint64, len(co.peers))
	for i := 0; err == nil && i < len(co.peers); i++ {
		p := co.peers[i]
		// p.mu is held ACROSS the merge so the merged content and the
		// version recorded for it cannot skew: a concurrent syncPeer
		// advancing this replica (ApplyDelta, then version under p.mu)
		// either lands entirely before this read or entirely after it.
		// Lock order p.mu → shard lock matches every other path; no path
		// holds a shard lock while acquiring p.mu.
		p.mu.Lock()
		if p.replica != nil {
			err = merged.Merge(p.replica)
			vector[p.url] = p.version
		}
		p.mu.Unlock()
	}
	if err == nil {
		err = co.publish(merged, vector)
	}
	if err != nil {
		// Fingerprints matched at sync time, so a merge failure should be
		// unreachable, and a publish hook rejects a counter only when it
		// was built with a contract differing from its server's — but a
		// swallowed failure here would freeze the published view while
		// every peer looks healthy, so record it where /v1/stats surfaces
		// it.
		co.publishFailures++
		co.lastPublishErr = err.Error()
		return
	}
	co.publishedRecords = merged.N()
	co.publishedVector = vector
	co.publishes++
	co.lastPublish = time.Now()
}

// Stats snapshots the coordinator for /v1/stats. VersionVector is the
// vector of the last PUBLISHED counter (matching the stamps on query
// and mining responses); the per-peer Version fields are the live
// replication positions, which can run ahead of it between publishes.
func (co *Coordinator) Stats() *Stats {
	st := &Stats{
		Scheme:        co.scheme.Name(),
		VersionVector: make(map[string]uint64, len(co.peers)),
		SyncInterval:  co.cfg.interval.Seconds(),
	}
	now := time.Now()
	for _, p := range co.peers {
		p.mu.Lock()
		ps := PeerStatus{
			URL:                 p.url,
			Healthy:             p.healthy,
			Generation:          p.gen,
			Version:             p.version,
			Syncs:               p.syncs,
			FullSyncs:           p.fullSyncs,
			ConsecutiveFailures: p.failures,
			LastSync:            p.lastSync,
			LastError:           p.lastErr,
		}
		if p.replica != nil {
			ps.Records = p.replica.N()
		}
		if !p.lastSync.IsZero() {
			ps.LagSeconds = now.Sub(p.lastSync).Seconds()
		}
		p.mu.Unlock()
		st.Peers = append(st.Peers, ps)
	}
	co.pubMu.Lock()
	st.Records = co.publishedRecords
	st.Publishes = co.publishes
	st.PublishFailures = co.publishFailures
	st.LastPublishError = co.lastPublishErr
	st.LastPublish = co.lastPublish
	for url, v := range co.publishedVector {
		st.VersionVector[url] = v
	}
	co.pubMu.Unlock()
	return st
}
