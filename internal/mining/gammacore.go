package mining

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
)

// CounterCore implementation for the gamma-diagonal scheme. The core is
// gammaCore (see materialized.go); this file adds the scheme-generic
// plumbing: item-list ingestion into the joint histogram, the
// prepared-batch read path (validate/route once, fold the joint one
// shard lock at a time, derive only the subset histograms the batch
// touches after the locks are released, evaluate the Eq. 28 closed
// form), snapshot folding, joint-cell extraction for
// replication deltas and saved states, and the one cell apply.

// Compile-time check: gammaCore is the gamma core.
var _ CounterCore = (*gammaCore)(nil)

// Scheme names the core's perturbation scheme.
func (c *gammaCore) Scheme() string { return SchemeGamma }

// Ingest adds one perturbed record given as its item list, through the
// batch path's validator and apply; the one-record batch stays on the
// stack.
func (c *gammaCore) Ingest(items []Item) error {
	idx, err := c.cellOf(0, items)
	if err != nil {
		return err
	}
	c.ingestPrepared(gammaPrepared{idx}, 0, 1)
	return nil
}

// gammaPrepared is a validated batch of records, each as its joint cell
// index — one slice allocation per batch regardless of batch size.
type gammaPrepared []int

func (p gammaPrepared) recordCount() int { return len(p) }

// prepareIngest converts each item-list record to its joint cell index.
// No counter state is read or written — errors leave every shard
// untouched.
func (c *gammaCore) prepareIngest(records [][]Item) (preparedIngest, error) {
	cells := make(gammaPrepared, len(records))
	for i, items := range records {
		idx, err := c.cellOf(i, items)
		if err != nil {
			return nil, err
		}
		cells[i] = idx
	}
	return cells, nil
}

// cellOf validates record i against the gamma contract — the scheme
// perturbs within the categorical domain, so exactly one in-range item
// per attribute, no duplicates — and returns its joint cell index.
func (c *gammaCore) cellOf(i int, items []Item) (int, error) {
	m := len(c.cards)
	if len(items) != m {
		return 0, fmt.Errorf("%w: record %d: gamma record carries %d items, schema has %d attributes", ErrMining, i, len(items), m)
	}
	seen, idx := 0, 0
	for _, it := range items {
		a, v := uint(it.Attr), uint(it.Value)
		if a >= uint(m) {
			return 0, fmt.Errorf("%w: record %d: attribute %d out of range", ErrMining, i, it.Attr)
		}
		if seen&(1<<a) != 0 {
			return 0, fmt.Errorf("%w: record %d: duplicate attribute %d in gamma record", ErrMining, i, it.Attr)
		}
		if v >= uint(c.cards[a]) {
			return 0, fmt.Errorf("%w: record %d: value %d out of range for attribute %q", ErrMining, i, it.Value, c.schema.Attrs[it.Attr].Name)
		}
		seen |= 1 << a
		idx += int(v) * c.radix[a]
	}
	return idx, nil
}

// ingestPrepared adds records [lo, hi) of a prepared batch to their
// joint cells, and to the journal when on, under one lock acquisition.
func (c *gammaCore) ingestPrepared(p preparedIngest, lo, hi int) time.Duration {
	cells := p.(gammaPrepared)[lo:hi]
	wait := lockTimed(&c.mu)
	defer c.mu.Unlock()
	for _, idx := range cells {
		c.joint[idx]++
	}
	c.n += len(cells)
	if c.jr.on {
		for _, idx := range cells {
			c.jr.add(uint64(idx), 1)
		}
		c.jr.settle()
	}
	return wait
}

// addCells validates a batch of joint cells — cell ranges, then
// checkCells — and adds each count to its cell, the records to the
// record count and, when on, the cells to the journal. The one apply of
// replication deltas, WAL replay and saved states.
func (c *gammaCore) addCells(cells []DeltaCell, records int) error {
	for _, cell := range cells {
		if cell.Idx >= uint64(len(c.joint)) {
			return fmt.Errorf("%w: cell index %d outside domain %d", ErrMining, cell.Idx, len(c.joint))
		}
	}
	if err := checkCells(cells, records); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cell := range cells {
		c.joint[cell.Idx] += cell.Count
	}
	c.n += records
	if c.jr.on {
		for _, cell := range cells {
			c.jr.add(cell.Idx, cell.Count)
		}
		c.jr.settle()
	}
	return nil
}

// foldInto adds this core's state into dst (a fresh unshared core).
func (c *gammaCore) foldInto(dst CounterCore) {
	d := dst.(*gammaCore)
	c.mu.RLock()
	defer c.mu.RUnlock()
	d.n += c.n
	addInto(d.joint, c.joint)
}

// cut reads the core at its journal position under one hold of the write
// lock, running edit on the journal first. A cutJoint or cutState read
// emits the non-zero joint cells in index order, which is the order a
// saved state keeps.
func (c *gammaCore) cut(read cutRead, edit func(*journal)) shardCut {
	c.mu.Lock()
	defer c.mu.Unlock()
	if edit != nil {
		edit(&c.jr)
	}
	sc := c.jr.cutOf(c.n, min(c.n, len(c.joint)))
	switch read {
	case cutJoint:
		sc.joint = denseCells(c.joint, sc.cells)
	case cutState:
		sc.state = shardState{N: c.n, Joint: denseCells(c.joint, sc.cells)}
	}
	return sc
}

// denseCells returns the non-zero cells of a dense histogram, in index
// order, in a list of capacity hint.
func denseCells(h []float64, hint int) []DeltaCell {
	cells := make([]DeltaCell, 0, hint)
	for idx, v := range h {
		if v != 0 {
			cells = append(cells, DeltaCell{Idx: uint64(idx), Count: v})
		}
	}
	return cells
}

// addInto accumulates src into dst element-wise — the histogram fold
// shared by the snapshot, read-batch and subset-derivation paths.
func addInto(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

// subsetLattice derives the perturbed histogram of any non-empty
// attribute subset (a bitmask) from the joint, as in a data cube: from a
// parent one attribute larger — one already derived if there is one,
// else the smallest — memoising every histogram on the way. The full
// mask holds the joint. A subset histogram uses the joint's mixed-radix
// order over its attributes, so summing out one attribute is a strided
// add.
type subsetLattice struct {
	cards []int
	memo  [][]float64
}

func newSubsetLattice(cards []int, joint []float64) *subsetLattice {
	memo := make([][]float64, 1<<len(cards))
	memo[len(memo)-1] = joint
	return &subsetLattice{cards: cards, memo: memo}
}

// hist returns the histogram of the non-empty subset mask.
func (l *subsetLattice) hist(mask int) []float64 {
	if h := l.memo[mask]; h != nil {
		return h
	}
	add, derived := -1, false
	for j, card := range l.cards {
		if mask&(1<<j) != 0 {
			continue
		}
		d := l.memo[mask|1<<j] != nil
		if add < 0 || (d && !derived) || (d == derived && card < l.cards[add]) {
			add, derived = j, d
		}
	}
	parent := l.hist(mask | 1<<add)
	// The parent's index is (outer, value of add, inner), where inner
	// spans the subset's attributes after add.
	card, inner := l.cards[add], 1
	for j := add + 1; j < len(l.cards); j++ {
		if mask&(1<<j) != 0 {
			inner *= l.cards[j]
		}
	}
	h := make([]float64, len(parent)/card)
	if inner == 1 {
		for o := range h {
			var sum float64
			for _, v := range parent[o*card : (o+1)*card] {
				sum += v
			}
			h[o] = sum
		}
	} else {
		for o, p := 0, 0; o < len(h); o += inner {
			dst := h[o : o+inner]
			for end := p + card*inner; p < end; p += inner {
				addInto(dst, parent[p:p+inner])
			}
		}
	}
	l.memo[mask] = h
	return h
}

// shardedCandidate is the per-candidate routing computed during the
// parallel validation pass.
type shardedCandidate struct {
	mask int
	idx  int
}

// gammaCount is one candidate's perturbed count Y_L, its Eq. 28
// estimate X̂ = (Y_L − ō·N)/a and the divisor a = d̄ − ō, from the
// diagonal d̄ and off-diagonal ō of its subset's marginal matrix.
type gammaCount struct{ y, est, a float64 }

// gammaBatch is a prepared candidate batch over gamma cores: validated
// routings plus the joint histogram folded from every gathered shard.
type gammaBatch struct {
	matrix core.UniformMatrix
	cards  []int
	routed []shardedCandidate
	joint  []float64
	total  int
}

// prepare validates the batch and computes each candidate's (subset
// mask, histogram index) across a worker pool — candidate batches come
// from Apriori passes, which can be thousands of itemsets wide.
func (c *gammaCore) prepare(candidates []Itemset) (counterBatch, error) {
	b := &gammaBatch{
		matrix: c.matrix,
		cards:  c.cards,
		routed: make([]shardedCandidate, len(candidates)),
		joint:  make([]float64, len(c.joint)),
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
				idx = idx*c.cards[it.Attr] + it.Value
			}
			b.routed[i] = shardedCandidate{mask: mask, idx: idx}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return b, nil
}

// gather folds this core's joint histogram and record count into the
// batch under the core's lock. Shard-local (n, joint) pairs are
// internally consistent, so their sum reconstructs counts for a valid
// record set.
func (c *gammaCore) gather(cb counterBatch) {
	b := cb.(*gammaBatch)
	c.mu.RLock()
	defer c.mu.RUnlock()
	b.total += c.n
	addInto(b.joint, c.joint)
}

func (b *gammaBatch) records() int { return b.total }

// counts derives, with no shard lock held, every candidate's Y_L from
// the subset histograms the batch touches. The empty itemset (mask 0) is
// supported by every record, so its Y_L and estimate are N exactly.
func (b *gammaBatch) counts() ([]gammaCount, error) {
	lat := newSubsetLattice(b.cards, b.joint)
	out := make([]gammaCount, len(b.routed))
	n := float64(b.total)
	for i, rc := range b.routed {
		if rc.mask == 0 {
			out[i] = gammaCount{y: n, est: n}
			continue
		}
		h := lat.hist(rc.mask)
		marg, err := b.matrix.Marginal(len(h))
		if err != nil {
			return nil, err
		}
		y, a := h[rc.idx], marg.Diag-marg.Off
		out[i] = gammaCount{y: y, est: (y - marg.Off*n) / a, a: a}
	}
	return out, nil
}

// supports evaluates the Eq. 28 closed form.
func (b *gammaBatch) supports() ([]float64, error) {
	counts, err := b.counts()
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(counts))
	for i, c := range counts {
		out[i] = c.est
	}
	return out, nil
}

// estimates resolves each filter into (point estimate, stderr): the
// Eq. 28 estimate with the Poisson-binomial standard error
// √(N·p̂(1−p̂))/(d̄ − ō), p̂ = Y_L/N — the same estimator the record-scan
// query engine uses, so the two paths agree exactly.
func (b *gammaBatch) estimates() ([]PointEstimate, error) {
	if b.total <= 0 {
		return nil, fmt.Errorf("%w: empty counter", ErrMining)
	}
	counts, err := b.counts()
	if err != nil {
		return nil, err
	}
	out := make([]PointEstimate, len(counts))
	n := float64(b.total)
	for i, c := range counts {
		switch {
		case b.routed[i].mask == 0:
			// Everything matches; no reconstruction noise.
			out[i] = PointEstimate{Count: n}
		case c.a == 0:
			return nil, fmt.Errorf("%w: singular reconstruction matrix", ErrMining)
		default:
			phat := c.y / n
			out[i] = PointEstimate{Count: c.est, StdErr: math.Sqrt(n*phat*(1-phat)) / c.a}
		}
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
