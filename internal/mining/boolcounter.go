package mining

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// boolCore is the live counting core shared by the MASK and
// cut-and-paste schemes: a sparse joint histogram over perturbed boolean
// rows (bitset → multiplicity). The joint histogram is the minimal
// sufficient state for both schemes — every observable either estimator
// needs (bit-combination pattern counts for MASK, partial supports for
// C&P) is a projection of it — and it is exactly the shape the
// replication-delta protocol speaks (cell index = row bitset), so MASK
// and C&P counters get sharding, persistence, and federation through the
// same plumbing as gamma. Safe for concurrent use.
//
// Beside the rows the core keeps their bit moments (see bitmoments.go),
// updated under the same lock, so a read batch resolves every candidate
// of length <= 2 in O(1) from N and the moment table; only candidates
// of length >= 3 cost one sweep over the distinct rows.
type boolCore struct {
	est boolEstimator

	mu   sync.RWMutex
	n    int
	rows map[uint64]float64
	// mom is the bit-moment table over the rows, nil until the first
	// write (an idle window bucket carries none).
	mom []float64
}

// boolEstimator is the per-scheme reconstruction behind a boolCore:
// MASK's tensor inverse or C&P's partial-support solve, plus the scheme
// identity for fingerprints and persistence.
type boolEstimator interface {
	name() string
	mapping() *core.BoolMapping
	fingerprint() string
	// reconstruct inverts the 2^l bit-combination pattern counts of one
	// length-l itemset into the estimated original support.
	reconstruct(counts []float64) (float64, error)
	// patternWeights returns w with estimate = Σ_idx w[idx]·counts[idx],
	// feeding the plug-in multinomial variance of Estimates.
	patternWeights(l int) ([]float64, error)
	// fillMeta / checkMeta are the scheme-parameter halves of the v3
	// persistence format.
	fillMeta(st *counterState)
	checkMeta(st *counterState) error
}

func newBoolCore(est boolEstimator) *boolCore {
	return &boolCore{est: est, rows: make(map[uint64]float64)}
}

// Schema returns the categorical schema behind the boolean encoding.
func (c *boolCore) Schema() *dataset.Schema { return c.est.mapping().Schema }

// Scheme names the core's perturbation scheme.
func (c *boolCore) Scheme() string { return c.est.name() }

// Fingerprint returns the compatibility fingerprint.
func (c *boolCore) Fingerprint() string { return c.est.fingerprint() }

// N returns the number of ingested records.
func (c *boolCore) N() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.n
}

// Ingest adds one perturbed boolean record given as its item list. Any
// set of distinct items is a valid perturbed record — MASK flips bits
// independently and C&P pastes arbitrary item sets — including the
// empty set.
func (c *boolCore) Ingest(items []Item) error {
	p, err := c.prepareIngest([][]Item{items})
	if err != nil {
		return err
	}
	c.ingestPrepared(p, 0, 1)
	return nil
}

// momentsLocked returns the moment table, allocating it on first use.
// The caller holds c.mu for writing.
func (c *boolCore) momentsLocked() []float64 {
	if c.mom == nil {
		c.mom = make([]float64, momentCount(c.est.mapping().Mb))
	}
	return c.mom
}

// addMomentsLocked adds a moment table into the core's. The caller
// holds c.mu for writing.
func (c *boolCore) addMomentsLocked(src []float64) {
	if src == nil {
		return
	}
	mom := c.momentsLocked()
	for i, v := range src {
		mom[i] += v
	}
}

// boolPrepared is a validated batch of perturbed rows, one bitset per
// record — a single slice allocation per batch.
type boolPrepared struct {
	rows []uint64
}

func (p boolPrepared) recordCount() int { return len(p.rows) }

// prepareIngest validates each item-list record (items in range, no
// duplicates) and packs it into its row bitset without touching counter
// state.
func (c *boolCore) prepareIngest(records [][]Item) (preparedIngest, error) {
	m := c.est.mapping()
	rows := make([]uint64, len(records))
	for i, items := range records {
		var row uint64
		for _, it := range items {
			b, err := m.Bit(it.Attr, it.Value)
			if err != nil {
				return nil, fmt.Errorf("%w: record %d: %v", ErrMining, i, err)
			}
			if row&(1<<uint(b)) != 0 {
				return nil, fmt.Errorf("%w: record %d: duplicate item (attr %d, value %d) in perturbed record", ErrMining, i, it.Attr, it.Value)
			}
			row |= 1 << uint(b)
		}
		rows[i] = row
	}
	return boolPrepared{rows: rows}, nil
}

// ingestPrepared folds rows [lo, hi) of a prepared batch into the joint
// histogram under one lock acquisition. A span of at least 64 rows has
// its moments computed by the transpose kernel into a stack-local table
// before the lock is taken, so the lock covers only the map increments
// and one table add; a shorter span adds its rows' moments one by one.
func (c *boolCore) ingestPrepared(p preparedIngest, lo, hi int) time.Duration {
	rows := p.(boolPrepared).rows[lo:hi]
	var local [maxMoments]uint64
	var tab []uint64
	if len(rows) >= 64 {
		mb := c.est.mapping().Mb
		tab = local[:momentCount(mb)]
		addRowsMoments(tab, rows, mb)
	}
	wait := lockTimed(&c.mu)
	defer c.mu.Unlock()
	for _, row := range rows {
		c.rows[row]++
	}
	c.n += len(rows)
	mom := c.momentsLocked()
	if tab != nil {
		for i, v := range tab {
			mom[i] += float64(v)
		}
	} else {
		for _, row := range rows {
			addRowMoment(mom, row, 1)
		}
	}
	return wait
}

// Supports returns scheme-reconstructed support estimates.
func (c *boolCore) Supports(candidates []Itemset) ([]float64, error) {
	b, err := c.prepare(candidates)
	if err != nil {
		return nil, err
	}
	c.gather(b)
	return b.supports()
}

// Merge additively combines another core of the same fingerprint.
func (c *boolCore) Merge(other CounterCore) error {
	if other == nil {
		return fmt.Errorf("%w: nil counter", ErrMining)
	}
	o, ok := other.(*boolCore)
	if !ok {
		return fmt.Errorf("%w: cannot merge a %s counter into a %s counter", ErrMining, other.Scheme(), c.Scheme())
	}
	if c == o {
		return fmt.Errorf("%w: cannot merge a counter into itself", ErrMining)
	}
	if c.Fingerprint() != o.Fingerprint() {
		return fmt.Errorf("%w: cannot merge counters with different schema or perturbation contract", ErrMining)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	o.mu.RLock()
	defer o.mu.RUnlock()
	for row, cnt := range o.rows {
		c.rows[row] += cnt
	}
	c.n += o.n
	c.addMomentsLocked(o.mom)
	return nil
}

// ApplyDelta folds a replication delta into the core: every cell is a
// batch of Count perturbed rows with bitset Idx.
func (c *boolCore) ApplyDelta(d *CounterDelta) error {
	if err := validateDelta(d, c.Fingerprint()); err != nil {
		return err
	}
	limit := uint64(1) << uint(c.est.mapping().Mb)
	for _, cell := range d.Cells {
		if cell.Idx >= limit {
			return fmt.Errorf("%w: delta cell index %d outside boolean domain 2^%d", ErrMining, cell.Idx, c.est.mapping().Mb)
		}
	}
	mom := cellMoments(d.Cells, c.est.mapping().Mb)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cell := range d.Cells {
		c.rows[cell.Idx] += cell.Count
	}
	c.n += d.Records
	c.addMomentsLocked(mom)
	return nil
}

// foldInto adds this core's state into dst (a fresh unshared core).
func (c *boolCore) foldInto(dst CounterCore) {
	d := dst.(*boolCore)
	c.mu.RLock()
	defer c.mu.RUnlock()
	for row, cnt := range c.rows {
		d.rows[row] += cnt
	}
	d.n += c.n
	d.addMomentsLocked(c.mom)
}

// addJointInto folds the sparse joint histogram into the accumulator.
func (c *boolCore) addJointInto(joint map[uint64]float64) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for row, cnt := range c.rows {
		joint[row] += cnt
	}
	return c.n
}

// saveShard deep-copies the core's state as sparse cells, sorted by
// index so saved states are deterministic.
func (c *boolCore) saveShard() shardState {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cells := make([]DeltaCell, 0, len(c.rows))
	for row, cnt := range c.rows {
		if cnt != 0 {
			cells = append(cells, DeltaCell{Idx: row, Count: cnt})
		}
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Idx < cells[j].Idx })
	return shardState{N: c.n, Cells: cells}
}

// restoreShard validates one saved shard payload — cell ranges,
// positivity, and the record-count sum — and folds it in. Callers
// restore into freshly built counters only.
func (c *boolCore) restoreShard(sh shardState) error {
	if sh.N < 0 {
		return fmt.Errorf("%w: negative record count %d", ErrMining, sh.N)
	}
	if len(sh.Hists) != 0 {
		return fmt.Errorf("%w: state carries dense histograms, not a boolean counter payload", ErrMining)
	}
	limit := uint64(1) << uint(c.est.mapping().Mb)
	var sum float64
	for _, cell := range sh.Cells {
		if cell.Idx >= limit {
			return fmt.Errorf("%w: state cell index %d outside boolean domain 2^%d", ErrMining, cell.Idx, c.est.mapping().Mb)
		}
		if cell.Count <= 0 {
			return fmt.Errorf("%w: non-positive state cell count %v at index %d", ErrMining, cell.Count, cell.Idx)
		}
		sum += cell.Count
	}
	if diff := sum - float64(sh.N); diff > 1e-6 || diff < -1e-6 {
		return fmt.Errorf("%w: state cells total %v, want %d records", ErrMining, sum, sh.N)
	}
	mom := cellMoments(sh.Cells, c.est.mapping().Mb)
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.rows) == 0 {
		// Size the map once instead of growing it cell by cell.
		c.rows = make(map[uint64]float64, len(sh.Cells))
	}
	for _, cell := range sh.Cells {
		c.rows[cell.Idx] += cell.Count
	}
	c.n += sh.N
	c.addMomentsLocked(mom)
	return nil
}

// checkState validates decoded state metadata against this core's
// contract.
func (c *boolCore) checkState(st *counterState) error {
	schema := c.Schema()
	if st.SchemaName != schema.Name || st.M != schema.M() || st.DomainSize != schema.DomainSize() {
		return fmt.Errorf("%w: state was saved for schema %q (M=%d, |S_U|=%d), not %q (M=%d, |S_U|=%d)",
			ErrMining, st.SchemaName, st.M, st.DomainSize, schema.Name, schema.M(), schema.DomainSize())
	}
	if st.Mb != c.est.mapping().Mb {
		return fmt.Errorf("%w: state was saved under a %d-bit boolean encoding, counter uses %d", ErrMining, st.Mb, c.est.mapping().Mb)
	}
	return c.est.checkMeta(st)
}

// stateMeta fills the v3 scheme-tagged state header.
func (c *boolCore) stateMeta() counterState {
	schema := c.Schema()
	st := counterState{
		Version:    schemeStateVersion,
		Scheme:     c.Scheme(),
		SchemaName: schema.Name,
		M:          schema.M(),
		DomainSize: schema.DomainSize(),
		Mb:         c.est.mapping().Mb,
	}
	c.est.fillMeta(&st)
	return st
}

// boolBatch is a prepared candidate batch over boolean cores: per
// candidate, the bit positions of its items and the accumulated counts
// of every observed bit-combination pattern.
type boolBatch struct {
	est    boolEstimator
	cands  []Itemset
	bitPos [][]int     // item bit positions, nil for the empty itemset
	counts [][]float64 // 2^l pattern counts, nil for the empty itemset
	long   []int       // indices of the candidates of length >= 3
	total  int
}

// prepare validates the batch against the schema and precomputes each
// candidate's bit positions.
func (c *boolCore) prepare(candidates []Itemset) (counterBatch, error) {
	m := c.est.mapping()
	b := &boolBatch{
		est:    c.est,
		cands:  candidates,
		bitPos: make([][]int, len(candidates)),
		counts: make([][]float64, len(candidates)),
	}
	for i, cand := range candidates {
		// Validate enforces canonical strictly-increasing attribute
		// order, exactly as the gamma routing does.
		if err := cand.Validate(m.Schema); err != nil {
			return nil, err
		}
		l := cand.Len()
		if l == 0 {
			continue
		}
		if l > 20 {
			return nil, fmt.Errorf("%w: itemset length %d too large", ErrMining, l)
		}
		pos := make([]int, l)
		for k, it := range cand {
			bit, err := m.Bit(it.Attr, it.Value)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrMining, err)
			}
			pos[k] = bit
		}
		b.bitPos[i] = pos
		b.counts[i] = make([]float64, 1<<uint(l))
		if l >= 3 {
			b.long = append(b.long, i)
		}
	}
	return b, nil
}

// gather folds this core's pattern counts into the batch under the
// core's read lock. Candidates of length 1 and 2 resolve in O(1) from N
// and the moment table; one sweep over the distinct perturbed rows
// serves all longer candidates, and is skipped when there are none. The
// counts are exact integers either way, so the estimates are those of a
// full sweep.
func (c *boolCore) gather(cb counterBatch) {
	b := cb.(*boolBatch)
	c.mu.RLock()
	defer c.mu.RUnlock()
	b.total += c.n
	n := float64(c.n)
	// moment returns S(xy) for bits x <= y (candidate bits ascend with
	// the canonical attribute order).
	moment := func(x, y int) float64 {
		if c.mom == nil {
			return 0
		}
		return c.mom[tri(x, y)]
	}
	for i, pos := range b.bitPos {
		cnt := b.counts[i]
		switch len(pos) {
		case 1:
			sa := moment(pos[0], pos[0])
			cnt[0] += n - sa
			cnt[1] += sa
		case 2:
			sa, sb, sab := moment(pos[0], pos[0]), moment(pos[1], pos[1]), moment(pos[0], pos[1])
			cnt[0] += n - sa - sb + sab
			cnt[1] += sa - sab
			cnt[2] += sb - sab
			cnt[3] += sab
		}
	}
	if len(b.long) == 0 {
		return
	}
	for row, cnt := range c.rows {
		for _, i := range b.long {
			pos := b.bitPos[i]
			idx := 0
			for k, bit := range pos {
				if row&(1<<uint(bit)) != 0 {
					idx |= 1 << uint(k)
				}
			}
			b.counts[i][idx] += cnt
		}
	}
}

func (b *boolBatch) records() int { return b.total }

// supports resolves each candidate with the scheme's reconstruction;
// the empty itemset is answered exactly.
func (b *boolBatch) supports() ([]float64, error) {
	out := make([]float64, len(b.cands))
	for i := range b.cands {
		if b.bitPos[i] == nil {
			out[i] = float64(b.total)
			continue
		}
		est, err := b.est.reconstruct(b.counts[i])
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrMining, err)
		}
		out[i] = est
	}
	return out, nil
}

// estimates resolves each candidate into (point estimate, stderr). The
// point estimate is the scheme's exact reconstruction — bit-identical to
// the offline counters given the same rows — and the standard error is
// the plug-in multinomial variance of the linear estimator
// Σ w·Y: Var ≈ Σ w²·Y − X̂²/n.
func (b *boolBatch) estimates() ([]PointEstimate, error) {
	if b.total <= 0 {
		return nil, fmt.Errorf("%w: empty counter", ErrMining)
	}
	out := make([]PointEstimate, len(b.cands))
	weights := make(map[int][]float64)
	for i := range b.cands {
		pos := b.bitPos[i]
		if pos == nil {
			// Every record matches; exact, no reconstruction noise.
			out[i] = PointEstimate{Count: float64(b.total)}
			continue
		}
		est, err := b.est.reconstruct(b.counts[i])
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrMining, err)
		}
		l := len(pos)
		w, ok := weights[l]
		if !ok {
			w, err = b.est.patternWeights(l)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrMining, err)
			}
			weights[l] = w
		}
		var sumW2Y float64
		for idx, y := range b.counts[i] {
			sumW2Y += w[idx] * w[idx] * y
		}
		variance := sumW2Y - est*est/float64(b.total)
		if variance < 0 {
			variance = 0
		}
		out[i] = PointEstimate{Count: est, StdErr: math.Sqrt(variance)}
	}
	return out, nil
}

// maskEstimator adapts core.MaskScheme to the boolCore contract.
type maskEstimator struct {
	s *core.MaskScheme
}

func (e maskEstimator) name() string               { return SchemeMask }
func (e maskEstimator) mapping() *core.BoolMapping { return e.s.Mapping }

func (e maskEstimator) fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "scheme=%s;", SchemeMask)
	fingerprintSchema(h, e.s.Mapping.Schema)
	fmt.Fprintf(h, "p=%g;Mb=%d", e.s.P, e.s.Mapping.Mb)
	return hex.EncodeToString(h.Sum(nil))
}

func (e maskEstimator) reconstruct(counts []float64) (float64, error) {
	return e.s.ReconstructPatternCounts(counts)
}

func (e maskEstimator) patternWeights(l int) ([]float64, error) {
	return e.s.PatternWeights(l)
}

func (e maskEstimator) fillMeta(st *counterState) { st.MaskP = e.s.P }

func (e maskEstimator) checkMeta(st *counterState) error {
	if st.MaskP != e.s.P {
		return fmt.Errorf("%w: state was saved under MASK p=%g, counter uses p=%g", ErrMining, st.MaskP, e.s.P)
	}
	return nil
}

// cutPasteEstimator adapts core.CutPasteScheme to the boolCore
// contract. Pattern counts are folded to partial supports (counts per
// number of present itemset items) before the solve, so the estimate is
// computed by exactly the arithmetic of the offline CutPasteCounter.
type cutPasteEstimator struct {
	s *core.CutPasteScheme
}

func (e cutPasteEstimator) name() string               { return SchemeCutPaste }
func (e cutPasteEstimator) mapping() *core.BoolMapping { return e.s.Mapping }

func (e cutPasteEstimator) fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "scheme=%s;", SchemeCutPaste)
	fingerprintSchema(h, e.s.Mapping.Schema)
	fmt.Fprintf(h, "K=%d;rho=%g;Mb=%d", e.s.K, e.s.Rho, e.s.Mapping.Mb)
	return hex.EncodeToString(h.Sum(nil))
}

func (e cutPasteEstimator) reconstruct(counts []float64) (float64, error) {
	l := bits.TrailingZeros(uint(len(counts)))
	y := make([]float64, l+1)
	for idx, cnt := range counts {
		y[bits.OnesCount(uint(idx))] += cnt
	}
	return e.s.ReconstructPartialCounts(y)
}

func (e cutPasteEstimator) patternWeights(l int) ([]float64, error) {
	// The C&P estimate is linear in the partial supports; lifted to
	// pattern space, every pattern with q set bits carries the q-th
	// partial weight.
	v, err := e.s.PartialWeights(l)
	if err != nil {
		return nil, err
	}
	w := make([]float64, 1<<uint(l))
	for idx := range w {
		w[idx] = v[bits.OnesCount(uint(idx))]
	}
	return w, nil
}

func (e cutPasteEstimator) fillMeta(st *counterState) {
	st.CutK = e.s.K
	st.CutRho = e.s.Rho
}

func (e cutPasteEstimator) checkMeta(st *counterState) error {
	if st.CutK != e.s.K || st.CutRho != e.s.Rho {
		return fmt.Errorf("%w: state was saved under C&P K=%d rho=%g, counter uses K=%d rho=%g",
			ErrMining, st.CutK, st.CutRho, e.s.K, e.s.Rho)
	}
	return nil
}

// fingerprintSchema writes the schema identity — name plus every
// attribute with its ordered category list — into a fingerprint hash,
// shared by every scheme's fingerprint.
func fingerprintSchema(h io.Writer, schema *dataset.Schema) {
	fmt.Fprintf(h, "schema=%s;M=%d;", schema.Name, schema.M())
	for _, a := range schema.Attrs {
		fmt.Fprintf(h, "attr=%s:%s;", a.Name, strings.Join(a.Categories, "\x1f"))
	}
}
