// Package query provides an interactive count/proportion query engine
// over gamma-perturbed data, with variance-based confidence intervals.
// The paper quantifies reconstruction error in aggregate (Theorem 1,
// Figures 1–2); this package turns the same machinery into a per-query
// error bar: the estimator (Y_L − ō·N)/(d̄ − ō) has standard error
// √(N·p̂(1−p̂))/(d̄−ō) with p̂ = Y_L/N, since Y_L is a sum of N
// independent Bernoulli indicators (the Poisson-Binomial of Section 2.2,
// whose variance is bounded by the binomial at the same mean).
//
// Engine applies that estimator (Reconstruct) to a materialized
// perturbed database, scanning it once per filter; it is the offline
// reference the live path is tested against. CounterEngine asks a
// mining.LiveCounter for its scheme's estimates — the same estimator
// for gamma, resolved from the live joint histogram and the subset
// histograms derived from it, never a record scan — and attaches the confidence intervals. Interval is the
// one interval builder both engines and the collection service use.
package query

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mining"
)

// ErrQuery is returned for invalid queries or engine configuration.
var ErrQuery = errors.New("query: invalid input")

// Engine answers filter-count queries by scanning one perturbed
// database per filter — the offline path for materialized databases.
type Engine struct {
	perturbed *dataset.Database
	matrix    core.UniformMatrix
}

// NewEngine validates the matrix against the database's schema.
func NewEngine(perturbed *dataset.Database, m core.UniformMatrix) (*Engine, error) {
	if perturbed == nil {
		return nil, fmt.Errorf("%w: nil database", ErrQuery)
	}
	if m.N != perturbed.Schema.DomainSize() {
		return nil, fmt.Errorf("%w: matrix order %d vs domain %d", ErrQuery, m.N, perturbed.Schema.DomainSize())
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrQuery, err)
	}
	return &Engine{perturbed: perturbed, matrix: m}, nil
}

// Count estimates how many original records match the filter (a
// conjunction of attribute=value conditions), with a 95% confidence
// interval.
func (e *Engine) Count(filter mining.Itemset) (Estimate, error) {
	return e.count(filter, newMarginalCache(e.matrix))
}

// count is Count with a caller-owned marginal cache, so a batch shares
// marginals across filters.
func (e *Engine) count(filter mining.Itemset, marginals *marginalCache) (Estimate, error) {
	if err := filter.Validate(e.perturbed.Schema); err != nil {
		return Estimate{}, fmt.Errorf("%w: %w", ErrQuery, err)
	}
	n := e.perturbed.N()
	if n == 0 {
		return Estimate{}, fmt.Errorf("%w: empty database", ErrQuery)
	}
	if filter.Len() == 0 {
		// Everything matches; no reconstruction noise.
		return exactEstimate(n), nil
	}
	nSub, err := e.perturbed.Schema.SubdomainSize(filter.Attrs())
	if err != nil {
		return Estimate{}, fmt.Errorf("%w: %w", ErrQuery, err)
	}
	marg, err := marginals.get(nSub)
	if err != nil {
		return Estimate{}, err
	}
	// Count perturbed matches Y_L.
	var y float64
	for _, rec := range e.perturbed.Records {
		if filter.Supports(rec) {
			y++
		}
	}
	return Reconstruct(y, n, marg)
}

// CountAll answers many filters in one call, computing one marginal per
// distinct attribute set instead of one per filter.
func (e *Engine) CountAll(filters []mining.Itemset) ([]Estimate, error) {
	marginals := newMarginalCache(e.matrix)
	out := make([]Estimate, len(filters))
	for i, f := range filters {
		est, err := e.count(f, marginals)
		if err != nil {
			return nil, fmt.Errorf("filter %d (%s): %w", i, f.Key(), err)
		}
		out[i] = est
	}
	return out, nil
}
