package registry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/service"
)

// HTTP surface of the registry.
//
//	PUT    /v1/collections/{name}        create (idempotent on identical spec)
//	GET    /v1/collections/{name}        inspect one collection
//	DELETE /v1/collections/{name}        delete (404 unknown, 403 adopted)
//	GET    /v1/collections               list all collections
//	ANY    /v1/collections/{name}/...    the named collection's data plane
//	ANY    /...                          the default collection (legacy alias)
//
// The data-plane alias strips the /v1/collections/{name} prefix and
// ALSO tolerates a repeated /v1: both /v1/collections/a/submit and
// /v1/collections/a/v1/submit reach POST /v1/submit of collection a.
// The second form is what makes an unmodified service.Client — which
// appends /v1/... to its base URL — work against a collection-scoped
// base URL like http://host/v1/collections/a, and with it every
// existing tool (frapp-loadgen -collection, federation peer URLs).

// maxSpecBody caps a PUT body; specs are small documents.
const maxSpecBody = 1 << 20

// CollectionInfo is the wire form of one collection's state.
type CollectionInfo struct {
	Name string `json:"name"`
	// State is "ready", "recovering", or "failed".
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	// Records is the live record count, present only when ready.
	Records int `json:"records,omitempty"`
	// Default marks the collection the un-prefixed legacy routes serve.
	Default bool           `json:"default,omitempty"`
	Spec    CollectionSpec `json:"spec"`
}

// info snapshots one collection's state.
func (c *Collection) info() CollectionInfo {
	ci := CollectionInfo{Name: c.name, Spec: c.spec, Default: c.adopted}
	select {
	case <-c.ready:
		if c.err != nil {
			ci.State = "failed"
			ci.Error = c.err.Error()
		} else {
			ci.State = "ready"
			ci.Records = c.srv.N()
		}
	default:
		ci.State = "recovering"
	}
	return ci
}

// Handler returns the registry's full HTTP surface: lifecycle
// endpoints, per-collection data planes, and the legacy alias onto the
// default collection. With Metrics set, the lifecycle endpoints are
// wrapped in the service's own metrics/access-log middleware; the data
// planes are instrumented by the collection servers they route to.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	var wrap func(string, http.HandlerFunc) http.HandlerFunc
	if r.metrics != nil {
		wrap = service.Instrument(r.metrics, r.access)
	}
	lifecycle := func(pattern string, h http.HandlerFunc) {
		if wrap != nil {
			h = wrap(pattern, h)
		}
		mux.HandleFunc(pattern, h)
	}
	lifecycle("GET /v1/collections", r.handleList)
	lifecycle("GET /v1/collections/{name}", r.handleGet)
	lifecycle("PUT /v1/collections/{name}", r.handlePut)
	lifecycle("DELETE /v1/collections/{name}", r.handleDelete)
	mux.HandleFunc("/v1/collections/{name}/{rest...}", r.handleDataPlane)
	mux.HandleFunc("/", r.handleDefault)
	return mux
}

func (r *Registry) handleList(w http.ResponseWriter, _ *http.Request) {
	infos := make([]CollectionInfo, 0)
	for _, name := range r.Names() {
		if col, err := r.Get(name); err == nil {
			infos = append(infos, col.info())
		}
	}
	writeJSON(w, http.StatusOK, infos)
}

func (r *Registry) handleGet(w http.ResponseWriter, req *http.Request) {
	col, err := r.Get(req.PathValue("name"))
	if err != nil {
		service.WriteError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, col.info())
}

func (r *Registry) handlePut(w http.ResponseWriter, req *http.Request) {
	req.Body = http.MaxBytesReader(w, req.Body, maxSpecBody)
	var spec CollectionSpec
	dec := json.NewDecoder(req.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		service.WriteError(w, fmt.Errorf("%w: bad spec JSON: %w", errInvalid, err))
		return
	}
	col, created, err := r.Create(req.PathValue("name"), spec)
	if err != nil {
		service.WriteError(w, err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, col.info())
}

// handleDelete answers with Delete's own verdict, so of two DELETEs
// that overlap, the one that finds the collection gone answers 404.
func (r *Registry) handleDelete(w http.ResponseWriter, req *http.Request) {
	if err := r.Delete(req.PathValue("name")); err != nil {
		service.WriteError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleDataPlane routes a collection-scoped request into that
// collection's own server, rewriting the path back to the un-prefixed
// form its mux was built for.
func (r *Registry) handleDataPlane(w http.ResponseWriter, req *http.Request) {
	col, err := r.Get(req.PathValue("name"))
	if err != nil {
		service.WriteError(w, err)
		return
	}
	srv := serverOf(w, col)
	if srv == nil {
		return
	}
	inner := "/v1/" + strings.TrimPrefix(req.PathValue("rest"), "v1/")
	r2 := req.Clone(req.Context())
	r2.URL.Path = inner
	r2.URL.RawPath = ""
	srv.Handler().ServeHTTP(w, r2)
}

// handleDefault serves the legacy un-prefixed routes from the default
// collection, unchanged — single-tenant clients never see the registry.
func (r *Registry) handleDefault(w http.ResponseWriter, req *http.Request) {
	col, err := r.Get(DefaultCollection)
	if err != nil {
		service.WriteError(w, fmt.Errorf("%w: no default collection; use /v1/collections/{name}/...", errNotFound))
		return
	}
	if srv := serverOf(w, col); srv != nil {
		srv.Handler().ServeHTTP(w, req)
	}
}

// serverOf returns the collection's server, or answers 503 and returns
// nil when it is not serving (recovering, or its build failed) — with
// Retry-After while it is still recovering, which service.Client
// honours once.
func serverOf(w http.ResponseWriter, col *Collection) *service.Server {
	srv, err := col.Server()
	if err != nil {
		select {
		case <-col.ready:
		default:
			w.Header().Set("Retry-After", "1")
		}
		service.WriteError(w, fmt.Errorf("%w%w", err, service.ErrUnavailable))
	}
	return srv
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
