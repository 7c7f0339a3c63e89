// Package loadgen is the million-user synthetic workload harness: it
// builds Zipf-skewed correlated populations (internal/dataset), drives
// a live FRAPP collection server open-loop with simulated clients
// mixing submit-batch / query / mine-job traffic (internal/service
// client), and records streaming latency histograms per endpoint class
// into a machine-readable BENCH_load.json report with a perf-regression
// gate against a committed baseline.
package loadgen

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Class is an endpoint class of the driven traffic.
type Class int

const (
	// ClassSubmit is POST /v1/submit-batch ingestion traffic.
	ClassSubmit Class = iota
	// ClassQuery is POST /v1/query estimate traffic.
	ClassQuery
	// ClassMine is POST /v1/mine-jobs job-submission traffic.
	ClassMine
	numClasses
)

// String names the class as it appears in reports.
func (c Class) String() string {
	switch c {
	case ClassSubmit:
		return "submit"
	case ClassQuery:
		return "query"
	case ClassMine:
		return "mine"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Classes lists the endpoint classes in report order.
func Classes() []Class { return []Class{ClassSubmit, ClassQuery, ClassMine} }

// Recorder accumulates per-class latency histograms and outcome
// counters for one run. All methods are safe for concurrent use.
type Recorder struct {
	hist [numClasses]*telemetry.Histogram
	// ok/failed count operations; rejected counts backpressure refusals
	// (HTTP 503 on a full mine-job queue) separately from hard failures.
	ok       [numClasses]atomic.Uint64
	failed   [numClasses]atomic.Uint64
	rejected [numClasses]atomic.Uint64
	// records counts individual records accepted through submit batches.
	records atomic.Uint64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	r := &Recorder{}
	for i := range r.hist {
		r.hist[i] = telemetry.NewHistogram()
	}
	return r
}

// Success records one completed operation's latency.
func (r *Recorder) Success(c Class, d time.Duration, records int) {
	r.hist[c].Record(d)
	r.ok[c].Add(1)
	if records > 0 {
		r.records.Add(uint64(records))
	}
}

// Failure records a failed operation; rejected marks server
// backpressure (a refusal to enqueue) rather than an error.
func (r *Recorder) Failure(c Class, rejected bool) {
	if rejected {
		r.rejected[c].Add(1)
		return
	}
	r.failed[c].Add(1)
}

// Hist returns the class's histogram.
func (r *Recorder) Hist(c Class) *telemetry.Histogram { return r.hist[c] }

// OK, Failed, and Rejected return the class's outcome counters.
func (r *Recorder) OK(c Class) uint64       { return r.ok[c].Load() }
func (r *Recorder) Failed(c Class) uint64   { return r.failed[c].Load() }
func (r *Recorder) Rejected(c Class) uint64 { return r.rejected[c].Load() }

// Records returns the total records accepted through submit batches.
func (r *Recorder) Records() uint64 { return r.records.Load() }
