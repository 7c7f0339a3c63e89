package query

import (
	"fmt"

	"repro/internal/mining"
)

// CounterEngine answers filter-count queries directly from a live
// counter instead of the Engine's O(N) record scan per filter. Every
// estimate comes from the counter's own scheme estimator (see
// mining.LiveCounter.Estimates), so one engine serves gamma, MASK, and
// cut-and-paste collections: a gamma batch costs O(#filters)
// merged-histogram lookups; a boolean-scheme batch resolves filters of
// arity <= 2 in O(#filters) from the counter's bit moments, and sweeps
// its sparse joint histogram of distinct perturbed rows once for all
// longer filters. It is safe for concurrent use whenever the underlying
// counter is, so the collection service serves interactive queries from
// the live ingestion counter without snapshotting or pausing
// submissions.
type CounterEngine struct {
	counter mining.LiveCounter
}

// NewLiveCounterEngine wraps a scheme-polymorphic live counter.
func NewLiveCounterEngine(c mining.LiveCounter) (*CounterEngine, error) {
	if c == nil {
		return nil, fmt.Errorf("%w: nil counter", ErrQuery)
	}
	return &CounterEngine{counter: c}, nil
}

// Count estimates how many original records match the filter, with a
// 95% confidence interval — the counter-backed analogue of Engine.Count.
func (e *CounterEngine) Count(filter mining.Itemset) (Estimate, error) {
	out, err := e.CountAll([]mining.Itemset{filter})
	if err != nil {
		return Estimate{}, err
	}
	return out[0], nil
}

// CountAll answers a batch of filters from one consistent counter
// sweep: every estimate in the batch is based on the same record count
// N, even while submissions keep arriving on the live counter. The
// counter validates the filters before indexing its histograms, so
// invalid filters surface as wrapped ErrQuery errors without a second
// pass here. Each (point estimate, stderr) pair gets the 95%
// z-interval; a zero stderr (the exact zero-arity case) yields a
// zero-width interval, matching the scan engine's exactEstimate.
func (e *CounterEngine) CountAll(filters []mining.Itemset) ([]Estimate, error) {
	pes, n, err := e.counter.Estimates(filters)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrQuery, err)
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: empty database", ErrQuery)
	}
	out := make([]Estimate, len(pes))
	for i, pe := range pes {
		out[i] = Estimate{
			Count:  pe.Count,
			StdErr: pe.StdErr,
			Lo:     pe.Count - z95*pe.StdErr,
			Hi:     pe.Count + z95*pe.StdErr,
			N:      n,
		}
	}
	return out, nil
}
