package mining

import (
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
)

// gammaCore is the gamma scheme's CounterCore — one shard of a
// ShardedCounter, or a frozen snapshot of one — and is safe for
// concurrent use. It keeps the record count and the dense perturbed
// joint histogram over S_U, indexed by the schema's record↔index
// bijection, so ingesting a record adds 1 to one cell. Every count the
// Eq. 28 estimator needs, the perturbed count Y_L of an itemset's
// attribute subset, is a projection of the joint: a read batch derives
// the subset histograms it touches at read time (see gammaBatch), and
// mining never rescans the database.
type gammaCore struct {
	schema *dataset.Schema
	matrix core.UniformMatrix
	// cards[j] is attribute j's cardinality, radix[j] its weight in a
	// joint cell index.
	cards, radix []int

	mu    sync.RWMutex
	n     int
	joint []float64
	// jr logs the joint cell of every record and delta cell applied, once
	// a replication token has been minted (see journal.go).
	jr journal
}

// maxMaterializedAttrs caps the gamma scheme's attribute count: a read
// batch memoises its derived subset histograms in a table of 2^M slots,
// and a legacy saved shard carries 2^M histograms.
const maxMaterializedAttrs = 16

// newGammaCore allocates an empty joint histogram for a validated scheme.
func newGammaCore(g *GammaScheme) *gammaCore {
	cards := g.schema.Cardinalities()
	radix := make([]int, len(cards))
	for j, r := len(cards)-1, 1; j >= 0; j-- {
		radix[j], r = r, r*cards[j]
	}
	return &gammaCore{schema: g.schema, matrix: g.matrix, cards: cards, radix: radix,
		joint: make([]float64, g.schema.DomainSize())}
}

// N returns the number of ingested records.
func (c *gammaCore) N() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.n
}

// Schema returns the counter's schema.
func (c *gammaCore) Schema() *dataset.Schema { return c.schema }

// Supports answers candidates with the Eq. 28 closed-form
// reconstruction.
func (c *gammaCore) Supports(candidates []Itemset) ([]float64, error) {
	return coreSupports(c, candidates)
}
