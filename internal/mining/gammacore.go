package mining

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// CounterCore implementation for the gamma-diagonal scheme. The core is
// gammaCore (see materialized.go); this file adds the scheme-generic
// plumbing: item-list ingestion, the prepared-batch read
// path (validate/route once, fold only the subset histograms the batch
// touches one shard lock at a time, evaluate the Eq. 28 closed form
// across a worker pool), snapshot folding, joint-histogram extraction
// for replication deltas, and the persistence hooks.

// Compile-time check: gammaCore is the gamma core.
var _ CounterCore = (*gammaCore)(nil)

// Scheme names the core's perturbation scheme.
func (c *gammaCore) Scheme() string { return SchemeGamma }

// Ingest adds one perturbed record given as its item list. The gamma
// scheme perturbs within the categorical domain, so a valid perturbed
// record carries exactly one item per attribute.
func (c *gammaCore) Ingest(items []Item) error {
	p, err := c.prepareIngest([][]Item{items})
	if err != nil {
		return err
	}
	c.ingestPrepared(p, 0, 1)
	return nil
}

// gammaPrepared is a validated batch of n dense categorical records,
// record i at vals[i*M:(i+1)*M]. One array holds every record, so
// preparation costs one slice allocation per batch regardless of batch
// size.
type gammaPrepared struct {
	vals []int
	n    int
}

func (p gammaPrepared) recordCount() int { return p.n }

// prepareIngest validates each item-list record against the gamma
// contract (exactly one in-range item per attribute, no duplicates) and
// converts it to its dense record form, checking values against the
// core's cardinality table. No counter state is read or written —
// errors leave every shard untouched.
func (c *gammaCore) prepareIngest(records [][]Item) (preparedIngest, error) {
	m := c.schema.M()
	cards := c.cards[:m]
	vals := make([]int, len(records)*m)
	for i, items := range records {
		if len(items) != m {
			return nil, fmt.Errorf("%w: record %d: gamma record carries %d items, schema has %d attributes", ErrMining, i, len(items), m)
		}
		rec := vals[i*m : (i+1)*m]
		for j := range rec {
			rec[j] = -1
		}
		for _, it := range items {
			a, v := uint(it.Attr), uint(it.Value)
			if a >= uint(len(rec)) {
				return nil, fmt.Errorf("%w: record %d: attribute %d out of range", ErrMining, i, it.Attr)
			}
			if rec[a] != -1 {
				return nil, fmt.Errorf("%w: record %d: duplicate attribute %d in gamma record", ErrMining, i, it.Attr)
			}
			if v >= uint(cards[a]) {
				return nil, fmt.Errorf("%w: record %d: value %d out of range for attribute %q", ErrMining, i, it.Value, c.schema.Attrs[it.Attr].Name)
			}
			rec[a] = int(v)
		}
	}
	return gammaPrepared{vals: vals, n: len(records)}, nil
}

// ingestPrepared folds records [lo, hi) of a prepared batch into every
// subset histogram under one lock acquisition. The loop runs mask-major
// so each histogram (and its column list) stays hot across the whole
// span — the cache behavior a record-at-a-time loop cannot have. The
// top mask's index is the record's joint cell, which a journaling core
// logs.
func (c *gammaCore) ingestPrepared(p preparedIngest, lo, hi int) time.Duration {
	m := c.schema.M()
	vals := p.(gammaPrepared).vals[lo*m : hi*m]
	wait := lockTimed(&c.mu)
	defer c.mu.Unlock()
	top := len(c.hists) - 1
	for mask := 1; mask <= top; mask++ {
		cols, hist := c.cols[mask], c.hists[mask]
		logJoint := mask == top && c.jr.on
		for r := 0; r < len(vals); r += m {
			idx := 0
			for _, j := range cols {
				idx = idx*c.cards[j] + vals[r+j]
			}
			hist[idx]++
			if logJoint {
				c.jr.add(uint64(idx), 1)
			}
		}
	}
	c.n += hi - lo
	if c.jr.on {
		c.jr.settle()
	}
	return wait
}

// foldInto adds this core's state into dst (a fresh unshared core).
func (c *gammaCore) foldInto(dst CounterCore) {
	d := dst.(*gammaCore)
	c.mu.RLock()
	defer c.mu.RUnlock()
	d.n += c.n
	for mask := 1; mask < len(c.hists); mask++ {
		addInto(d.hists[mask], c.hists[mask])
	}
}

// cut reads the core at its journal position under one hold of the write
// lock, running edit on the journal first. The joint histogram is the top
// subset histogram, so its size bounds the distinct cells.
func (c *gammaCore) cut(read cutRead, edit func(*journal)) shardCut {
	c.mu.Lock()
	defer c.mu.Unlock()
	if edit != nil {
		edit(&c.jr)
	}
	full := c.hists[len(c.hists)-1]
	sc := c.jr.cutOf(c.n, min(c.n, len(full)))
	switch read {
	case cutJoint:
		for idx, v := range full {
			if v != 0 {
				sc.joint = append(sc.joint, DeltaCell{Idx: uint64(idx), Count: v})
			}
		}
	case cutState:
		hists := make([][]float64, len(c.hists))
		for mask := 1; mask < len(c.hists); mask++ {
			hists[mask] = append([]float64(nil), c.hists[mask]...)
		}
		sc.state = shardState{N: c.n, Hists: hists}
	}
	return sc
}

// addInto accumulates src into dst element-wise — the histogram fold
// shared by the snapshot, query-merge, and state-restore paths.
func addInto(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

// shardedCandidate is the per-candidate routing computed during the
// parallel validation pass.
type shardedCandidate struct {
	mask int
	idx  int
}

// gammaBatch is a prepared candidate batch over gamma cores: validated
// routings plus the merged subset histograms the batch touches.
type gammaBatch struct {
	schema   *dataset.Schema
	matrix   core.UniformMatrix
	subSizes []int
	routed   []shardedCandidate
	merged   map[int][]float64
	total    int
}

// prepare validates the batch and computes each candidate's (subset
// mask, histogram index) across a worker pool — candidate batches come
// from Apriori passes, which can be thousands of itemsets wide.
func (c *gammaCore) prepare(candidates []Itemset) (counterBatch, error) {
	b := &gammaBatch{
		schema:   c.schema,
		matrix:   c.matrix,
		subSizes: c.subSizes,
		routed:   make([]shardedCandidate, len(candidates)),
	}
	if err := forEachSpanPooled(len(candidates), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			cand := candidates[i]
			// Validate enforces canonical strictly-increasing attribute
			// order, so the mask below cannot alias two items.
			if err := cand.Validate(c.schema); err != nil {
				return err
			}
			mask := 0
			idx := 0
			for _, it := range cand {
				mask |= 1 << uint(it.Attr)
				idx = idx*c.schema.Attrs[it.Attr].Cardinality() + it.Value
			}
			b.routed[i] = shardedCandidate{mask: mask, idx: idx}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	b.merged = make(map[int][]float64)
	for _, rc := range b.routed {
		if rc.mask != 0 && b.merged[rc.mask] == nil {
			b.merged[rc.mask] = make([]float64, b.subSizes[rc.mask])
		}
	}
	return b, nil
}

// gather merges, under this core's lock, only the subset histograms the
// routed batch touches. Shard-local (n, hists) pairs are internally
// consistent, so their sum reconstructs counts for a valid record set.
func (c *gammaCore) gather(cb counterBatch) {
	b := cb.(*gammaBatch)
	c.mu.RLock()
	defer c.mu.RUnlock()
	b.total += c.n
	for mask, dst := range b.merged {
		addInto(dst, c.hists[mask])
	}
}

func (b *gammaBatch) records() int { return b.total }

// rawCount returns candidate i's perturbed match count Y_L. Mask 0 (the
// empty itemset) is supported by every record, so its Y_L is N itself.
func (b *gammaBatch) rawCount(i int) float64 {
	rc := b.routed[i]
	if rc.mask == 0 {
		return float64(b.total)
	}
	return b.merged[rc.mask][rc.idx]
}

// marginals computes one Eq. 28 marginal matrix per distinct touched
// subset mask.
func (b *gammaBatch) marginals() (map[int]core.UniformMatrix, error) {
	out := make(map[int]core.UniformMatrix)
	for _, rc := range b.routed {
		if rc.mask == 0 {
			continue
		}
		if _, ok := out[rc.mask]; ok {
			continue
		}
		marg, err := b.matrix.Marginal(b.subSizes[rc.mask])
		if err != nil {
			return nil, err
		}
		out[rc.mask] = marg
	}
	return out, nil
}

// supports evaluates the Eq. 28 closed form across a worker pool. The
// empty itemset is answered exactly.
func (b *gammaBatch) supports() ([]float64, error) {
	marginals, err := b.marginals()
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(b.routed))
	fn := float64(b.total)
	if err := forEachSpanPooled(len(b.routed), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			rc := b.routed[i]
			if rc.mask == 0 {
				out[i] = b.rawCount(i) // exact, no reconstruction noise
				continue
			}
			marg := marginals[rc.mask]
			out[i] = (b.rawCount(i) - marg.Off*fn) / (marg.Diag - marg.Off)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// estimates resolves each filter into (point estimate, stderr): the
// Eq. 28 inversion X̂ = (Y_L − ō·N)/(d̄ − ō) with the Poisson-binomial
// standard error √(N·p̂(1−p̂))/(d̄ − ō), p̂ = Y_L/N — the same estimator
// the record-scan query engine uses, so the two paths agree exactly.
func (b *gammaBatch) estimates() ([]PointEstimate, error) {
	if b.total <= 0 {
		return nil, fmt.Errorf("%w: empty counter", ErrMining)
	}
	marginals, err := b.marginals()
	if err != nil {
		return nil, err
	}
	out := make([]PointEstimate, len(b.routed))
	n := float64(b.total)
	for i, rc := range b.routed {
		if rc.mask == 0 {
			// Everything matches; no reconstruction noise.
			out[i] = PointEstimate{Count: n}
			continue
		}
		marg := marginals[rc.mask]
		a := marg.Diag - marg.Off
		if a == 0 {
			return nil, fmt.Errorf("%w: singular reconstruction matrix", ErrMining)
		}
		y := b.rawCount(i)
		est := (y - marg.Off*n) / a
		phat := y / n
		stderr := math.Sqrt(n*phat*(1-phat)) / a
		out[i] = PointEstimate{Count: est, StdErr: stderr}
	}
	return out, nil
}

// forEachSpanPooled runs fn over contiguous spans of [0, n) on a worker
// pool (core.ForEachSpan), capping the worker count so small batches run
// inline — goroutine scheduling would dominate the arithmetic.
func forEachSpanPooled(n int, fn func(lo, hi int) error) error {
	workers := runtime.GOMAXPROCS(0)
	const minSpan = 64
	if workers > n/minSpan {
		workers = n / minSpan
	}
	if workers <= 1 {
		return fn(0, n)
	}
	return core.ForEachSpan(n, workers, func(_, lo, hi int) error { return fn(lo, hi) })
}
