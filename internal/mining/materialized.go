package mining

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
)

// MaterializedGammaCounter is an incremental variant of GammaCounter: it
// maintains the marginal histogram of EVERY attribute subset as records
// arrive, so mining queries never rescan the database. Insertion costs
// O(M·2^M) per record (fine for the paper's M ≤ 7; capped at M ≤ 16);
// Supports then answers each candidate with a histogram lookup plus the
// Eq. 28 closed form. It is the gamma scheme's CounterCore — one shard
// of a ShardedCounter, or a frozen snapshot of one — and is safe for
// concurrent use.
type MaterializedGammaCounter struct {
	schema *dataset.Schema
	matrix core.UniformMatrix

	// cols[mask] lists the attribute positions of subset mask; hists and
	// subSizes are parallel. cards[j] is attribute j's cardinality.
	cols     [][]int
	subSizes []int
	cards    []int

	mu    sync.RWMutex
	n     int
	hists [][]float64
}

// maxMaterializedAttrs bounds the 2^M memory/insert blowup.
const maxMaterializedAttrs = 16

// NewMaterializedGammaCounter allocates every subset histogram.
func NewMaterializedGammaCounter(schema *dataset.Schema, m core.UniformMatrix) (*MaterializedGammaCounter, error) {
	if schema.M() > maxMaterializedAttrs {
		return nil, fmt.Errorf("%w: %d attributes exceeds materialization cap %d", ErrMining, schema.M(), maxMaterializedAttrs)
	}
	if m.N != schema.DomainSize() {
		return nil, fmt.Errorf("%w: matrix order %d vs domain %d", ErrMining, m.N, schema.DomainSize())
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	nMasks := 1 << uint(schema.M())
	c := &MaterializedGammaCounter{
		schema:   schema,
		matrix:   m,
		cols:     make([][]int, nMasks),
		subSizes: make([]int, nMasks),
		hists:    make([][]float64, nMasks),
		cards:    make([]int, schema.M()),
	}
	for j := range c.cards {
		c.cards[j] = schema.Attrs[j].Cardinality()
	}
	for mask := 1; mask < nMasks; mask++ {
		var cols []int
		for j := 0; j < schema.M(); j++ {
			if mask&(1<<uint(j)) != 0 {
				cols = append(cols, j)
			}
		}
		size, err := schema.SubdomainSize(cols)
		if err != nil {
			return nil, err
		}
		c.cols[mask] = cols
		c.subSizes[mask] = size
		c.hists[mask] = make([]float64, size)
	}
	return c, nil
}

// N returns the number of ingested records.
func (c *MaterializedGammaCounter) N() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.n
}

// Schema returns the counter's schema.
func (c *MaterializedGammaCounter) Schema() *dataset.Schema { return c.schema }

// Supports answers candidates from the materialized histograms with the
// Eq. 28 closed-form reconstruction, through the same prepared-batch
// read path a sharded counter uses.
func (c *MaterializedGammaCounter) Supports(candidates []Itemset) ([]float64, error) {
	b, err := c.prepare(candidates)
	if err != nil {
		return nil, err
	}
	c.gather(b)
	return b.supports()
}
