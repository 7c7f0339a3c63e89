package service

import (
	"errors"
	"fmt"
	"net/http"
)

// ErrService marks every error this package produces: refusals of
// requests and of configurations, and the client's failures.
var ErrService = errors.New("service")

// A kind classifies a refusal, and statusOf turns it into the HTTP
// status. A kind has no words, so fmt.Errorf("%w%w", err, ErrNotFound)
// tags err without changing the reason a client reads.
type kind struct{ name string }

func (*kind) Error() string { return "" }

// The kinds of refusal. The registry tags its own refusals with them.
var (
	ErrInvalid     = &kind{"invalid"}     // 400: a malformed request
	ErrForbidden   = &kind{"forbidden"}   // 403: never accepted here, whatever the input
	ErrNotFound    = &kind{"not found"}   // 404: no such thing
	ErrConflict    = &kind{"conflict"}    // 409: the collection is empty, or its state refuses the request
	ErrUnavailable = &kind{"unavailable"} // 503: busy, recovering or shutting down
)

// The service's refusals: ErrService's words and one kind each.
var (
	errInvalid     = fmt.Errorf("%w%w", ErrService, ErrInvalid)
	errForbidden   = fmt.Errorf("%w%w", ErrService, ErrForbidden)
	errNotFound    = fmt.Errorf("%w%w", ErrService, ErrNotFound)
	errConflict    = fmt.Errorf("%w%w", ErrService, ErrConflict)
	errUnavailable = fmt.Errorf("%w%w", ErrService, ErrUnavailable)
)

// statusOf is the HTTP status of err's kind, or 500 for an error
// without one: a server fault. A body cut off by its MaxBytesReader is
// 413, although the decoder that hit the limit calls it invalid.
func statusOf(err error) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, ErrForbidden):
		return http.StatusForbidden
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrConflict):
		return http.StatusConflict
	case errors.Is(err, ErrUnavailable):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// WriteError answers with err: its status (statusOf) and the error
// shape {"error": reason}. It writes every error response of the
// service and the registry.
func WriteError(w http.ResponseWriter, err error) {
	writeJSON(w, statusOf(err), map[string]string{"error": err.Error()})
}
