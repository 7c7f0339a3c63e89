package query

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mining"
)

// PerturbedCounter is the substrate of the counter-backed query path: a
// live counter that can answer the RAW perturbed match count Y_L for a
// batch of filters, together with the record count N observed in the
// same consistent sweep. Both mining.ShardedGammaCounter and
// mining.MaterializedGammaCounter satisfy it.
type PerturbedCounter interface {
	Schema() *dataset.Schema
	PerturbedSupports(filters []mining.Itemset) (ys []float64, n int, err error)
}

// CounterEngine answers filter-count queries directly from an
// incrementally materialized counter instead of the Engine's O(N)
// record scan per filter: a gamma batch costs O(#filters)
// merged-histogram lookups; a boolean-scheme batch resolves filters of
// arity <= 2 in O(#filters) from the counter's bit moments, and sweeps
// its sparse joint histogram of distinct perturbed rows once for all
// longer filters. It is safe for concurrent use whenever the underlying
// counter is, so the collection service serves interactive queries from
// the live ingestion counter without snapshotting or pausing
// submissions.
//
// Two construction paths exist: NewCounterEngine binds a gamma-diagonal
// matrix to any PerturbedCounter and inverts raw counts itself (the
// historical gamma path), while NewLiveCounterEngine wraps a
// scheme-polymorphic mining.LiveCounter and delegates estimation to the
// counter's own scheme — gamma, MASK, and cut-and-paste all answer
// through the same engine surface.
type CounterEngine struct {
	counter PerturbedCounter
	matrix  core.UniformMatrix
	// live, when set, answers through the counter's scheme estimator
	// instead of the engine-side gamma inversion.
	live mining.LiveCounter
}

// NewCounterEngine validates the matrix against the counter's schema.
func NewCounterEngine(c PerturbedCounter, m core.UniformMatrix) (*CounterEngine, error) {
	if c == nil {
		return nil, fmt.Errorf("%w: nil counter", ErrQuery)
	}
	if m.N != c.Schema().DomainSize() {
		return nil, fmt.Errorf("%w: matrix order %d vs domain %d", ErrQuery, m.N, c.Schema().DomainSize())
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrQuery, err)
	}
	return &CounterEngine{counter: c, matrix: m}, nil
}

// NewLiveCounterEngine wraps a scheme-polymorphic live counter: every
// estimate is produced by the counter's own scheme estimator, so one
// engine serves gamma, MASK, and cut-and-paste collections. For a gamma
// counter the estimates are identical to NewCounterEngine's.
func NewLiveCounterEngine(c mining.LiveCounter) (*CounterEngine, error) {
	if c == nil {
		return nil, fmt.Errorf("%w: nil counter", ErrQuery)
	}
	return &CounterEngine{counter: c, live: c}, nil
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
// N, even while submissions keep arriving on the live counter. Filter
// validation happens inside PerturbedSupports (the counter must
// validate anyway before indexing its histograms), so invalid filters
// surface as wrapped ErrQuery errors without a second pass here.
func (e *CounterEngine) CountAll(filters []mining.Itemset) ([]Estimate, error) {
	if e.live != nil {
		return e.countAllLive(filters)
	}
	schema := e.counter.Schema()
	ys, n, err := e.counter.PerturbedSupports(filters)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrQuery, err)
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: empty database", ErrQuery)
	}
	marginals := newMarginalCache(e.matrix)
	out := make([]Estimate, len(filters))
	for i, f := range filters {
		if f.Len() == 0 {
			// Everything matches; no reconstruction noise.
			out[i] = exactEstimate(n)
			continue
		}
		nSub, err := schema.SubdomainSize(f.Attrs())
		if err != nil {
			return nil, fmt.Errorf("filter %d (%s): %w: %w", i, f.Key(), ErrQuery, err)
		}
		marg, err := marginals.get(nSub)
		if err != nil {
			return nil, fmt.Errorf("filter %d (%s): %w", i, f.Key(), err)
		}
		est, err := Reconstruct(ys[i], n, marg)
		if err != nil {
			return nil, fmt.Errorf("filter %d (%s): %w", i, f.Key(), err)
		}
		out[i] = est
	}
	return out, nil
}

// countAllLive answers through the live counter's scheme estimator: one
// consistent sweep yields every (point estimate, stderr) pair, to which
// the engine attaches the 95% z-interval. A zero stderr (the exact
// zero-arity case) yields a zero-width interval, matching the gamma
// path's exactEstimate.
func (e *CounterEngine) countAllLive(filters []mining.Itemset) ([]Estimate, error) {
	pes, n, err := e.live.Estimates(filters)
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
