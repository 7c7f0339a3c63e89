package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"

	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/stats"
)

// CutPasteScheme is the Cut-and-Paste randomization baseline (Evfimievski
// et al., KDD 2002) applied to the boolean encoding of a categorical
// database, where every transaction contains exactly M items (one per
// attribute) drawn from a universe of Mb boolean items.
//
// Operator (parameters K, ρ): for each transaction t,
//  1. draw j uniformly from {0,…,K} and set w = min(j, M) — the
//     "select-a-size" choice, whose mass function is the paper's p_M[z]
//     after folding in step 3;
//  2. "cut": keep a uniformly random w-subset of t;
//  3. "paste within": include each unselected item of t independently
//     with probability ρ;
//  4. "paste outside": include each item of the universe outside t
//     independently with probability ρ.
type CutPasteScheme struct {
	Mapping *BoolMapping
	K       int
	Rho     float64

	// partialLU caches the LU factorization of PartialSupportMatrix(l)
	// by l (int → *linalg.LU): the matrix depends only on the operator
	// parameters, so every reconstruction of a length-l itemset reuses
	// one factorization.
	partialLU sync.Map
}

// NewCutPasteScheme validates the operator parameters.
func NewCutPasteScheme(m *BoolMapping, k int, rho float64) (*CutPasteScheme, error) {
	if k < 0 {
		return nil, fmt.Errorf("%w: C&P K = %d negative", ErrPerturb, k)
	}
	if !(rho > 0 && rho < 1) {
		return nil, fmt.Errorf("%w: C&P rho = %v not in (0,1)", ErrPerturb, rho)
	}
	return &CutPasteScheme{Mapping: m, K: k, Rho: rho}, nil
}

// SelectSizePMF returns p_M[z] for z = 0..M: the distribution of the
// number of t's items that survive into the perturbed transaction
// (Equation 12's inner distribution). It combines the truncated-uniform
// cut size w with binomial ρ-insertions from the unselected items.
func (s *CutPasteScheme) SelectSizePMF() []float64 {
	m := s.Mapping.Schema.M()
	pmf := make([]float64, m+1)
	for w := 0; w <= min(m, s.K); w++ {
		var weight float64
		if w == m && m < s.K {
			// Uniform j ≥ M all truncate to w = M.
			weight = 1 - float64(m)/float64(s.K+1)
		} else {
			weight = 1 / float64(s.K+1)
		}
		for z := w; z <= m; z++ {
			pmf[z] += weight * stats.BinomialPMF(m-w, s.Rho, z-w)
		}
	}
	return pmf
}

// TransitionProb returns the exact probability that transaction t (with
// exactly M items) is perturbed to the specific item set v, as a function
// of s = |v∩t| and o = |v\t|: p_M[s]/C(M,s) · ρ^o (1−ρ)^(Mb−M−o).
// Given the survivor count z, the surviving subset is uniform among
// z-subsets by exchangeability, which yields the 1/C(M,s) factor.
func (s *CutPasteScheme) TransitionProb(overlap, outside int) (float64, error) {
	m := s.Mapping.Schema.M()
	mb := s.Mapping.Mb
	if overlap < 0 || overlap > m {
		return 0, fmt.Errorf("%w: overlap %d out of [0,%d]", ErrPerturb, overlap, m)
	}
	if outside < 0 || outside > mb-m {
		return 0, fmt.Errorf("%w: outside count %d out of [0,%d]", ErrPerturb, outside, mb-m)
	}
	pmf := s.SelectSizePMF()
	pIn := pmf[overlap] / stats.Choose(m, overlap)
	pOut := math.Pow(s.Rho, float64(outside)) * math.Pow(1-s.Rho, float64(mb-m-outside))
	return pIn * pOut, nil
}

// Amplification returns the worst-case ratio of transition probabilities
// across two possible originals for any observable output — the quantity
// Equation 2 bounds by γ. For fixed v, the ratio between originals with
// overlaps s1 and s2 reduces to g(s1)/g(s2) with
// g(s) = p_M[s]/C(M,s) · ((1−ρ)/ρ)^s, so the amplification is
// max g / min g over s = 0..M.
func (s *CutPasteScheme) Amplification() float64 {
	m := s.Mapping.Schema.M()
	pmf := s.SelectSizePMF()
	ratio := (1 - s.Rho) / s.Rho
	mn, mx := math.Inf(1), 0.0
	for k := 0; k <= m; k++ {
		g := pmf[k] / stats.Choose(m, k) * math.Pow(ratio, float64(k))
		if g < mn {
			mn = g
		}
		if g > mx {
			mx = g
		}
	}
	if mn == 0 {
		return math.Inf(1)
	}
	return mx / mn
}

// FindRhoForGamma scans ρ on a fine grid and returns the feasible ρ
// closest to the requested target (pass the paper's 0.494 to reproduce
// its operating point, or 0 to get the smallest feasible ρ). It returns
// an error if no ρ satisfies the γ constraint for this K.
func FindRhoForGamma(m *BoolMapping, k int, gamma, target float64) (float64, error) {
	best, bestDist := -1.0, math.Inf(1)
	for i := 1; i < 2000; i++ {
		rho := float64(i) / 2000
		s, err := NewCutPasteScheme(m, k, rho)
		if err != nil {
			return 0, err
		}
		if s.Amplification() <= gamma+1e-9 {
			d := math.Abs(rho - target)
			if target == 0 {
				// Smallest feasible ρ wins.
				if best < 0 {
					best = rho
				}
				continue
			}
			if d < bestDist {
				best, bestDist = rho, d
			}
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("%w: no rho satisfies gamma=%v for K=%d", ErrPerturb, gamma, k)
	}
	return best, nil
}

// PerturbRecord applies the operator to one categorical record — the
// client-side unit of C&P perturbation.
func (s *CutPasteScheme) PerturbRecord(rec dataset.Record, rng *rand.Rand) (uint64, error) {
	m := s.Mapping.Schema.M()
	t, err := s.Mapping.Encode(rec)
	if err != nil {
		return 0, err
	}
	// Enumerate t's items.
	items := make([]int, 0, m)
	for b := t; b != 0; b &= b - 1 {
		items = append(items, bits.TrailingZeros64(b))
	}
	// Cut: keep a uniform w-subset, w = min(uniform{0..K}, M).
	w := rng.Intn(s.K + 1)
	if w > m {
		w = m
	}
	var v uint64
	// Partial Fisher–Yates for the w kept items.
	for x := 0; x < w; x++ {
		y := x + rng.Intn(len(items)-x)
		items[x], items[y] = items[y], items[x]
		v |= 1 << uint(items[x])
	}
	// Paste within: unselected items of t.
	for _, it := range items[w:] {
		if rng.Float64() < s.Rho {
			v |= 1 << uint(it)
		}
	}
	// Paste outside: items of the universe not in t.
	for b := 0; b < s.Mapping.Mb; b++ {
		if t&(1<<uint(b)) == 0 && rng.Float64() < s.Rho {
			v |= 1 << uint(b)
		}
	}
	return v, nil
}

// PerturbDatabase applies the operator to every record.
func (s *CutPasteScheme) PerturbDatabase(db *dataset.Database, rng *rand.Rand) (*BoolDatabase, error) {
	rows := make([]uint64, 0, db.N())
	for i, rec := range db.Records {
		v, err := s.PerturbRecord(rec, rng)
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		rows = append(rows, v)
	}
	return &BoolDatabase{Mapping: s.Mapping, Rows: rows}, nil
}

// PartialSupportMatrix returns the (l+1)×(l+1) transition matrix over
// "number of itemset items present" used for support reconstruction of a
// length-l itemset (the KDD 2002 partial-support method): entry [q][q']
// is the probability that the perturbed transaction contains exactly q of
// the itemset's items given the original contained q'. With z survivors
// from t, the overlap with the q' in-transaction itemset items is
// hypergeometric; the l−q' out-of-transaction items each paste in with
// probability ρ.
func (s *CutPasteScheme) PartialSupportMatrix(l int) (*linalg.Dense, error) {
	m := s.Mapping.Schema.M()
	if l < 0 || l > m {
		return nil, fmt.Errorf("%w: itemset length %d out of [0,%d]", ErrPerturb, l, m)
	}
	pmf := s.SelectSizePMF()
	a := linalg.NewDense(l+1, l+1)
	for qPrime := 0; qPrime <= l; qPrime++ {
		for q := 0; q <= l; q++ {
			var p float64
			for z := 0; z <= m; z++ {
				if pmf[z] == 0 {
					continue
				}
				var inner float64
				for h := 0; h <= q && h <= qPrime; h++ {
					inner += stats.HypergeomPMF(m, qPrime, z, h) *
						stats.BinomialPMF(l-qPrime, s.Rho, q-h)
				}
				p += pmf[z] * inner
			}
			a.Set(q, qPrime, p)
		}
	}
	return a, nil
}

// Cond returns the 1-norm condition number of the length-l partial
// support matrix (it is not symmetric, so the 2-norm closed forms do not
// apply). This is the quantity whose exponential growth explains C&P's
// collapse beyond 3-itemsets in Figures 1, 2 and 4.
func (s *CutPasteScheme) Cond(l int) (float64, error) {
	a, err := s.PartialSupportMatrix(l)
	if err != nil {
		return 0, err
	}
	return linalg.Cond1(a)
}

// EstimateSupport reconstructs the original support count of the itemset
// whose boolean items are itemBits: count the perturbed partial supports
// Y[q] = #records containing exactly q itemset items, solve A·X̂ = Y, and
// return X̂[l].
func (s *CutPasteScheme) EstimateSupport(db *BoolDatabase, itemBits []int) (float64, error) {
	l := len(itemBits)
	if l == 0 {
		return float64(db.N()), nil
	}
	var mask uint64
	for _, b := range itemBits {
		if b < 0 || b >= s.Mapping.Mb {
			return 0, fmt.Errorf("%w: bit %d out of range", ErrPerturb, b)
		}
		mask |= 1 << uint(b)
	}
	y := make([]float64, l+1)
	for _, row := range db.Rows {
		y[bits.OnesCount64(row&mask)]++
	}
	return s.ReconstructPartialCounts(y)
}

// ReconstructPartialCounts inverts the observed partial-support counts of
// one length-l itemset — y[q] is the number of perturbed records
// containing exactly q of the itemset's items, so len(y) must be l+1 —
// and returns the estimated original support X̂[l]. This is the estimator
// core shared by the record-scan EstimateSupport and the live
// materialized counter, which accumulates the same partial supports
// incrementally.
func (s *CutPasteScheme) ReconstructPartialCounts(y []float64) (float64, error) {
	l := len(y) - 1
	if l < 1 || l > s.Mapping.Schema.M() {
		return 0, fmt.Errorf("%w: partial support vector length %d out of [2,%d]", ErrPerturb, len(y), s.Mapping.Schema.M()+1)
	}
	f, ok := s.partialLU.Load(l)
	if !ok {
		a, err := s.PartialSupportMatrix(l)
		if err != nil {
			return 0, err
		}
		lu, err := linalg.Factor(a)
		if err != nil {
			return 0, err
		}
		f, _ = s.partialLU.LoadOrStore(l, lu)
	}
	x, err := f.(*linalg.LU).Solve(y)
	if err != nil {
		return 0, err
	}
	return x[l], nil
}

// PartialWeights returns the linear-estimator weights of
// ReconstructPartialCounts for a length-l itemset: the estimate is
// Σ_q w[q]·y[q] with w the last row of the partial-support matrix's
// inverse, obtained by solving Aᵀ·w = e_l. The weights feed the plug-in
// multinomial variance of the live query estimator.
func (s *CutPasteScheme) PartialWeights(l int) ([]float64, error) {
	a, err := s.PartialSupportMatrix(l)
	if err != nil {
		return nil, err
	}
	at := linalg.NewDense(l+1, l+1)
	for i := 0; i <= l; i++ {
		for j := 0; j <= l; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	e := make([]float64, l+1)
	e[l] = 1
	return linalg.Solve(at, e)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
