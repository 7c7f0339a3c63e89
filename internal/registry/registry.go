// Package registry hosts many named FRAPP collections inside one
// process — the multi-tenant layer over internal/service. Each
// collection owns a full vertical slice: its schema, privacy contract,
// perturbation scheme, live counter (plain or sliding-window), mining
// job pool, and — when the registry has a base directory — a private
// WAL+checkpoint store under tenants/<name>/. Collections are created,
// inspected, and deleted at runtime through the lifecycle endpoints
// (PUT/GET/DELETE /v1/collections/{name}), every data-plane endpoint is
// reachable path-scoped under /v1/collections/{name}/..., and the
// legacy un-prefixed routes alias a designated default collection so
// single-tenant deployments and clients keep working unchanged.
//
// Isolation is structural, not bookkept: collections share nothing but
// the process, the telemetry registry (where every per-collection
// series carries a `collection` label drawn from the registry's closed,
// capped name vocabulary), and the HTTP listener. Creating, filling, or
// deleting one collection cannot change another's answers — there is no
// cross-collection state to leak through.
//
// Named collections are built asynchronously: PUT returns as soon as
// the spec is validated and recorded, while WAL recovery (arbitrarily
// long after a crash) proceeds in the background. Until a collection's
// build finishes, its data plane answers 503 and the registry's Ready
// reports it — per collection — so /readyz gates traffic exactly as it
// does for the single-tenant server.
package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/federation"
	"repro/internal/mining"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// ErrRegistry marks every error produced by this package.
var ErrRegistry = errors.New("registry")

// The registry's refusals: ErrRegistry's words and one service kind
// each, which picks the HTTP status (service.WriteError).
var (
	errInvalid     = fmt.Errorf("%w%w", ErrRegistry, service.ErrInvalid)     // a bad name or spec
	errForbidden   = fmt.Errorf("%w%w", ErrRegistry, service.ErrForbidden)   // a cap reached, or the flag-configured default
	errNotFound    = fmt.Errorf("%w%w", ErrRegistry, service.ErrNotFound)    // no such collection
	errConflict    = fmt.Errorf("%w%w", ErrRegistry, service.ErrConflict)    // the name is taken or flag-configured
	errUnavailable = fmt.Errorf("%w%w", ErrRegistry, service.ErrUnavailable) // shutting down, or the collection is not serving
)

// DefaultCollection is the name the legacy un-prefixed routes alias.
const DefaultCollection = "default"

// nameRE is the closed collection-name vocabulary. It doubles as the
// telemetry label contract: every `collection` metric label is a name
// matching this pattern, so the ops plane can never carry record
// vocabulary no matter what a client PUTs.
var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9_-]{0,63}$`)

// ValidName reports whether name is an acceptable collection name.
// Exposed so tools (frapp-loadgen -collection) can reject bad names
// before a request ever leaves the client.
func ValidName(name string) bool { return nameRE.MatchString(name) }

// manifestFile is the registry's durable spec manifest, next to the
// tenant store directories.
const manifestFile = "collections.json"

// defaultMaxCollections caps concurrently live collections.
const defaultMaxCollections = 32

// SchemaSpec is the wire/manifest form of a schema definition.
type SchemaSpec struct {
	Name  string              `json:"name"`
	Attrs []dataset.Attribute `json:"attrs"`
}

// CollectionSpec declares everything a collection is built from. It is
// the PUT body, the manifest entry, and the rebuild recipe after a
// restart — one JSON value, so identical specs are identical documents.
type CollectionSpec struct {
	Schema *SchemaSpec `json:"schema"`
	// Scheme names the perturbation scheme (gamma, mask, cutpaste);
	// empty means gamma.
	Scheme string  `json:"scheme,omitempty"`
	Rho1   float64 `json:"rho1"`
	Rho2   float64 `json:"rho2"`
	// Shards stripes the ingestion counter; 0 means one per core.
	Shards int `json:"shards,omitempty"`
	// MineWorkers bounds concurrent mining jobs; 0 means the default.
	MineWorkers int `json:"mine_workers,omitempty"`
	// WindowBuckets/WindowBucket, when set, make the collection a
	// sliding window: a ring of WindowBuckets sub-counters each covering
	// WindowBucket (a Go duration string) of wall-clock time. Windowed
	// collections are in-memory only — no store, no federation — and
	// serve the `window` parameter on /v1/query and mining jobs.
	WindowBuckets int    `json:"window_buckets,omitempty"`
	WindowBucket  string `json:"window_bucket,omitempty"`
	// Peers, when set, make the collection a federation coordinator
	// pulling from the listed collector base URLs; it then has no store
	// of its own (the peers own the durable state) and refuses direct
	// submissions, exactly like a -peers frapp-server.
	Peers []string `json:"peers,omitempty"`
	// SyncInterval is the coordinator pull interval (a Go duration
	// string); empty means the federation default.
	SyncInterval string `json:"sync_interval,omitempty"`
}

// schema builds and validates the runtime schema.
func (s *CollectionSpec) schema() (*dataset.Schema, error) {
	if s.Schema == nil {
		return nil, fmt.Errorf("%w: spec has no schema", errInvalid)
	}
	sc, err := dataset.NewSchema(s.Schema.Name, s.Schema.Attrs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errInvalid, err)
	}
	return sc, nil
}

// windowed reports whether the spec declares a sliding window.
func (s *CollectionSpec) windowed() bool {
	return s.WindowBuckets != 0 || s.WindowBucket != ""
}

// normalize validates the spec and rewrites it into canonical form so
// that equality of meaning is equality of JSON documents: the scheme
// default is filled in, duration strings are re-rendered ("60s" and
// "1m" become the same spec), and every cross-field constraint is
// checked here — synchronously at PUT time — rather than surfacing
// later from the background build.
func (s *CollectionSpec) normalize() error {
	schema, err := s.schema()
	if err != nil {
		return err
	}
	if s.Scheme == "" {
		s.Scheme = "gamma"
	}
	spec := core.PrivacySpec{Rho1: s.Rho1, Rho2: s.Rho2}
	gamma, err := spec.Gamma()
	if err != nil {
		return fmt.Errorf("%w: %v", errInvalid, err)
	}
	if _, err := mining.SchemeForContract(s.Scheme, schema, gamma); err != nil {
		return fmt.Errorf("%w: %v", errInvalid, err)
	}
	if s.Shards < 0 {
		return fmt.Errorf("%w: negative shards %d", errInvalid, s.Shards)
	}
	if s.MineWorkers < 0 {
		return fmt.Errorf("%w: negative mine_workers %d", errInvalid, s.MineWorkers)
	}
	if s.windowed() {
		if s.WindowBuckets < 1 {
			return fmt.Errorf("%w: window_bucket set without window_buckets >= 1", errInvalid)
		}
		d, err := time.ParseDuration(s.WindowBucket)
		if err != nil || d <= 0 {
			return fmt.Errorf("%w: bad window_bucket %q (want a positive Go duration)", errInvalid, s.WindowBucket)
		}
		s.WindowBucket = d.String()
		if len(s.Peers) > 0 {
			return fmt.Errorf("%w: a windowed collection cannot federate (expiry cannot be replicated)", errInvalid)
		}
	}
	if s.SyncInterval != "" {
		if len(s.Peers) == 0 {
			return fmt.Errorf("%w: sync_interval without peers", errInvalid)
		}
		d, err := time.ParseDuration(s.SyncInterval)
		if err != nil || d <= 0 {
			return fmt.Errorf("%w: bad sync_interval %q", errInvalid, s.SyncInterval)
		}
		s.SyncInterval = d.String()
	}
	for _, p := range s.Peers {
		if strings.TrimSpace(p) == "" {
			return fmt.Errorf("%w: empty peer URL", errInvalid)
		}
	}
	return nil
}

// key returns the canonical JSON document of a normalized spec — the
// idempotence token of PUT.
func (s *CollectionSpec) key() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Unreachable: the spec is plain data.
		panic("registry: spec marshal: " + err.Error())
	}
	return string(b)
}

// Collection is one live tenant: a spec plus the server built from it.
// srv and err are written exactly once, before ready closes.
type Collection struct {
	name    string
	spec    CollectionSpec
	adopted bool

	ready chan struct{}
	srv   *service.Server
	err   error
}

// Name returns the collection's registry name.
func (c *Collection) Name() string { return c.name }

// Spec returns the collection's normalized spec.
func (c *Collection) Spec() CollectionSpec { return c.spec }

// Ready reports the collection's build outcome without blocking:
// nil once built, the build error if it failed, or a "still
// recovering" error while the background build runs.
func (c *Collection) Ready() error {
	select {
	case <-c.ready:
		return c.err
	default:
		return fmt.Errorf("%w: collection %q is still recovering", errUnavailable, c.name)
	}
}

// Server returns the collection's server once ready; it blocks-free
// errors while the build is still running or after it failed.
func (c *Collection) Server() (*service.Server, error) {
	if err := c.Ready(); err != nil {
		return nil, err
	}
	return c.srv, nil
}

// AwaitReady blocks until the build finishes and returns its outcome.
func (c *Collection) AwaitReady() error {
	<-c.ready
	return c.err
}

// close shuts the collection down: a best-effort final checkpoint, then
// the server (which stops its federation loop and owns and closes its
// store).
func (c *Collection) close() {
	<-c.ready
	if c.srv != nil {
		_ = c.srv.CheckpointNow()
		c.srv.Close()
	}
}

// Options configure a Registry.
type Options struct {
	// BaseDir, when set, makes named collections durable: each gets a
	// WAL+checkpoint store under BaseDir/tenants/<name>/, and the spec
	// manifest BaseDir/collections.json rebuilds them at next start.
	// Empty means a memory-only registry.
	BaseDir string
	// MaxCollections caps concurrently live collections (and, at 4x,
	// the lifetime `collection` telemetry label vocabulary). 0 means 32.
	MaxCollections int
	// Metrics, when set, instruments every collection's server under
	// its `collection` label.
	Metrics *telemetry.Registry
	// AccessLog, when set, is shared by every collection's server; each
	// line carries the collection name.
	AccessLog *slog.Logger
	// SyncMode is the WAL fsync policy of tenant stores.
	SyncMode store.SyncMode
}

// Registry is a concurrent set of named collections.
type Registry struct {
	baseDir string
	maxCols int
	metrics *telemetry.Registry
	access  *slog.Logger
	sync    store.SyncMode

	mu          sync.Mutex
	collections map[string]*Collection
	// everNamed is the lifetime name vocabulary: telemetry series
	// outlive their collection (deliberately — a re-created name reuses
	// its series), so the label cardinality bound must survive churn.
	everNamed map[string]bool
	closed    bool

	// buildDelay, when non-nil, runs at the head of every build — the
	// test seam for driving slow-recovery readiness.
	buildDelay func(name string)
}

// New builds a registry and, when BaseDir holds a manifest from a
// previous run, starts rebuilding every recorded collection in the
// background. The call returns immediately; gate traffic on Ready.
func New(o Options) (*Registry, error) {
	if o.MaxCollections <= 0 {
		o.MaxCollections = defaultMaxCollections
	}
	r := &Registry{
		baseDir:     o.BaseDir,
		maxCols:     o.MaxCollections,
		metrics:     o.Metrics,
		access:      o.AccessLog,
		sync:        o.SyncMode,
		collections: make(map[string]*Collection),
		everNamed:   make(map[string]bool),
	}
	if r.baseDir != "" {
		if err := os.MkdirAll(r.baseDir, 0o755); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrRegistry, err)
		}
		specs, err := r.loadManifest()
		if err != nil {
			return nil, err
		}
		for name, spec := range specs {
			col := &Collection{name: name, spec: spec, ready: make(chan struct{})}
			r.collections[name] = col
			r.everNamed[name] = true
			go r.build(col)
		}
	}
	return r, nil
}

// Adopt installs an externally built, already-recovered server as the
// named collection — how frapp-server mounts its flag-configured
// default so the legacy routes keep serving it. The caller keeps
// ownership: the registry never closes an adopted server, and Delete
// refuses it.
func (r *Registry) Adopt(name string, srv *service.Server) (*Collection, error) {
	if srv == nil {
		return nil, fmt.Errorf("%w: nil server", ErrRegistry)
	}
	if !nameRE.MatchString(name) {
		return nil, fmt.Errorf("%w: bad collection name %q", ErrRegistry, name)
	}
	schema := srv.PublishedSchema()
	spec := CollectionSpec{
		Schema: &SchemaSpec{Name: schema.Name, Attrs: schema.Attrs},
		Scheme: srv.Scheme(),
		Shards: srv.Shards(),
	}
	col := &Collection{name: name, spec: spec, adopted: true, ready: make(chan struct{}), srv: srv}
	close(col.ready)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, fmt.Errorf("%w: registry is closed", ErrRegistry)
	}
	if _, ok := r.collections[name]; ok {
		return nil, fmt.Errorf("%w: collection %q already exists", ErrRegistry, name)
	}
	r.collections[name] = col
	r.everNamed[name] = true
	return col, nil
}

// Create registers a new named collection and builds it before
// returning, so the caller's next request finds it serving (a build
// failure shows in the collection's Ready and info, as for a failed
// rebuild at boot). It is idempotent: re-PUTting an identical spec
// returns the existing collection (created=false) once its own build
// has finished; a different spec under a live name is a conflict, never
// an overwrite.
func (r *Registry) Create(name string, spec CollectionSpec) (col *Collection, created bool, err error) {
	if !nameRE.MatchString(name) {
		return nil, false, fmt.Errorf("%w: bad collection name %q (want %s)", errInvalid, name, nameRE)
	}
	if err := spec.normalize(); err != nil {
		return nil, false, err
	}
	col, created, err = r.register(name, spec)
	if err != nil {
		return nil, false, err
	}
	if created {
		// A new collection has nothing to recover, so it is built here,
		// outside r.mu — a slow store open must not stall other tenants.
		r.build(col)
	}
	<-col.ready
	return col, created, nil
}

// register records a new collection (ready still open) and persists the
// manifest, or returns the live collection an identical spec already
// names.
func (r *Registry) register(name string, spec CollectionSpec) (col *Collection, created bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, false, fmt.Errorf("%w: registry is closed", errUnavailable)
	}
	if existing, ok := r.collections[name]; ok {
		if existing.adopted {
			return nil, false, fmt.Errorf("%w: collection %q is flag-configured; manage it via server flags", errConflict, name)
		}
		if existing.spec.key() == spec.key() {
			return existing, false, nil
		}
		return nil, false, fmt.Errorf("%w: collection %q already exists with a different spec", errConflict, name)
	}
	if len(r.collections) >= r.maxCols {
		return nil, false, fmt.Errorf("%w: collection limit %d reached", errForbidden, r.maxCols)
	}
	// The telemetry label vocabulary is append-only across churn; cap it
	// so delete/create cycles cannot grow series without bound.
	if !r.everNamed[name] && len(r.everNamed) >= 4*r.maxCols {
		return nil, false, fmt.Errorf("%w: lifetime collection-name budget %d exhausted (reuse a previous name or restart)", errForbidden, 4*r.maxCols)
	}
	col = &Collection{name: name, spec: spec, ready: make(chan struct{})}
	r.collections[name] = col
	r.everNamed[name] = true
	if err := r.persistManifestLocked(); err != nil {
		delete(r.collections, name)
		return nil, false, err
	}
	return col, true, nil
}

// Get returns the named collection.
func (r *Registry) Get(name string) (*Collection, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	col, ok := r.collections[name]
	if !ok {
		return nil, fmt.Errorf("%w: no collection %q", errNotFound, name)
	}
	return col, nil
}

// Delete removes a named collection: unregisters it (new requests 404
// immediately), persists the manifest, then shuts the server down and
// removes its tenant store directory. Adopted collections refuse.
func (r *Registry) Delete(name string) error {
	r.mu.Lock()
	col, ok := r.collections[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: no collection %q", errNotFound, name)
	}
	if col.adopted {
		r.mu.Unlock()
		return fmt.Errorf("%w: collection %q is flag-configured and cannot be deleted", errForbidden, name)
	}
	delete(r.collections, name)
	err := r.persistManifestLocked()
	if err != nil {
		// Deletion proceeds regardless: the live collection is gone
		// either way, and a stale manifest entry only costs a rebuild of
		// an empty store at next start.
		err = fmt.Errorf("%w: manifest update after delete: %v", ErrRegistry, err)
	}
	r.mu.Unlock()
	// Shutdown happens outside the lock: a build (or WAL recovery) may
	// be in flight, and close waits for it.
	col.close()
	if r.baseDir != "" {
		os.RemoveAll(r.tenantDir(name))
	}
	return err
}

// Names returns the live collection names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.collections))
	for name := range r.collections {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Ready reports aggregate readiness: nil only when every collection's
// build has succeeded, otherwise one error naming each collection that
// is still recovering or failed — the per-collection breakdown /readyz
// serves.
func (r *Registry) Ready() error {
	r.mu.Lock()
	cols := make([]*Collection, 0, len(r.collections))
	for _, c := range r.collections {
		cols = append(cols, c)
	}
	r.mu.Unlock()
	var pending []string
	for _, c := range cols {
		select {
		case <-c.ready:
			if c.err != nil {
				pending = append(pending, fmt.Sprintf("%s: failed: %v", c.name, c.err))
			}
		default:
			pending = append(pending, c.name+": recovering")
		}
	}
	if len(pending) == 0 {
		return nil
	}
	sort.Strings(pending)
	return fmt.Errorf("%w: collections not ready: %s", ErrRegistry, strings.Join(pending, "; "))
}

// AwaitReady blocks until every currently registered collection's
// build finishes, then returns the aggregate outcome.
func (r *Registry) AwaitReady() error {
	r.mu.Lock()
	cols := make([]*Collection, 0, len(r.collections))
	for _, c := range r.collections {
		cols = append(cols, c)
	}
	r.mu.Unlock()
	for _, c := range cols {
		<-c.ready
	}
	return r.Ready()
}

// Close shuts down every non-adopted collection (waiting for in-flight
// builds first) and refuses further lifecycle calls. Adopted servers
// stay open — their owner closes them.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	cols := make([]*Collection, 0, len(r.collections))
	for _, c := range r.collections {
		cols = append(cols, c)
	}
	r.mu.Unlock()
	for _, c := range cols {
		if !c.adopted {
			c.close()
		}
	}
}

// tenantDir is the per-collection store directory.
func (r *Registry) tenantDir(name string) string {
	return filepath.Join(r.baseDir, "tenants", name)
}

// build constructs the collection's server and publishes the outcome by
// closing ready — in the background for manifest rebuilds at boot,
// inline for Create.
func (r *Registry) build(col *Collection) {
	if d := r.buildDelay; d != nil {
		d(col.name)
	}
	col.srv, col.err = r.buildCollection(col.name, col.spec)
	close(col.ready)
}

// buildCollection assembles one tenant's full vertical slice from its
// spec: scheme contract, counter (ring or plain), job pool, telemetry
// under the collection label, the started federation loop of a spec
// with peers, and — durable, non-windowed, non-federated specs only —
// the tenant store, recovered before the server takes traffic.
func (r *Registry) buildCollection(name string, spec CollectionSpec) (*service.Server, error) {
	schema, err := spec.schema()
	if err != nil {
		return nil, err
	}
	opts := []service.Option{
		service.WithScheme(spec.Scheme),
		service.WithShards(spec.Shards),
		service.WithMineWorkers(spec.MineWorkers),
		service.WithCollectionLabel(name),
	}
	if r.metrics != nil {
		opts = append(opts, service.WithTelemetry(r.metrics))
	}
	if r.access != nil {
		opts = append(opts, service.WithAccessLog(r.access))
	}
	var st *store.FileStore
	switch {
	case spec.windowed():
		bucket, err := time.ParseDuration(spec.WindowBucket)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrRegistry, err)
		}
		opts = append(opts, service.WithWindow(spec.WindowBuckets, bucket))
	case len(spec.Peers) > 0:
		var fopts []federation.Option
		if spec.SyncInterval != "" {
			d, _ := time.ParseDuration(spec.SyncInterval)
			fopts = append(fopts, federation.WithSyncInterval(d))
		}
		// No federation metrics here: the federation instruments are
		// registered un-labeled, so only the process's default
		// coordinator (frapp-server -peers) exposes them.
		opts = append(opts, service.WithPeers(spec.Peers, fopts...))
	case r.baseDir != "":
		dir := r.tenantDir(name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrRegistry, err)
		}
		if st, err = store.Open(dir, store.WithSyncMode(r.sync)); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrRegistry, err)
		}
		opts = append(opts, service.WithStore(st))
	}
	srv, err := service.NewServer(schema, core.PrivacySpec{Rho1: spec.Rho1, Rho2: spec.Rho2}, opts...)
	if err != nil {
		if st != nil {
			st.Close()
		}
		return nil, err
	}
	if coord := srv.Coordinator(); coord != nil {
		coord.Start()
	}
	return srv, nil
}

// manifest is the on-disk registry state: every named collection's
// normalized spec, from which a restart rebuilds the fleet.
type manifest struct {
	Version     int                       `json:"version"`
	Collections map[string]CollectionSpec `json:"collections"`
}

// loadManifest reads the manifest; a missing file is an empty fleet.
func (r *Registry) loadManifest() (map[string]CollectionSpec, error) {
	b, err := os.ReadFile(filepath.Join(r.baseDir, manifestFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRegistry, err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%w: manifest %s is unreadable (restore or delete it): %v",
			ErrRegistry, filepath.Join(r.baseDir, manifestFile), err)
	}
	for name, spec := range m.Collections {
		if !nameRE.MatchString(name) {
			return nil, fmt.Errorf("%w: manifest holds bad collection name %q", ErrRegistry, name)
		}
		spec := spec
		if err := spec.normalize(); err != nil {
			return nil, fmt.Errorf("%w: manifest entry %q: %v", ErrRegistry, name, err)
		}
		m.Collections[name] = spec
	}
	return m.Collections, nil
}

// persistManifestLocked writes the manifest atomically (tmp + rename +
// directory fsync). Caller holds r.mu. Memory-only registries skip it.
func (r *Registry) persistManifestLocked() error {
	if r.baseDir == "" {
		return nil
	}
	m := manifest{Version: 1, Collections: make(map[string]CollectionSpec)}
	for name, col := range r.collections {
		if col.adopted {
			continue // flag-configured, not manifest-managed
		}
		m.Collections[name] = col.spec
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("%w: %v", ErrRegistry, err)
	}
	tmp, err := os.CreateTemp(r.baseDir, ".collections-*")
	if err != nil {
		return fmt.Errorf("%w: %v", ErrRegistry, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("%w: %v", ErrRegistry, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("%w: %v", ErrRegistry, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("%w: %v", ErrRegistry, err)
	}
	if err := os.Rename(tmpName, filepath.Join(r.baseDir, manifestFile)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("%w: %v", ErrRegistry, err)
	}
	if err := store.SyncDir(r.baseDir); err != nil {
		return fmt.Errorf("%w: %v", ErrRegistry, err)
	}
	return nil
}
