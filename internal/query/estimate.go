package query

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Estimate is a reconstructed count with its uncertainty.
type Estimate struct {
	// Count is the point estimate of the number of ORIGINAL records
	// matching the filter (may be negative under heavy noise; Clamped
	// reports the max(0, ·) version).
	Count float64
	// StdErr is the standard error of the estimator.
	StdErr float64
	// Lo and Hi bound the 95% confidence interval (normal
	// approximation, unclamped).
	Lo, Hi float64
	// N is the number of perturbed records the estimate is based on.
	N int
}

// Clamped returns the point estimate clamped to [0, N].
func (e Estimate) Clamped() float64 {
	c := e.Count
	if c < 0 {
		c = 0
	}
	if c > float64(e.N) {
		c = float64(e.N)
	}
	return c
}

// Proportion returns the estimate as a fraction of N, with scaled bounds.
func (e Estimate) Proportion() (p, lo, hi float64) {
	n := float64(e.N)
	if n == 0 {
		return 0, 0, 0
	}
	return e.Count / n, e.Lo / n, e.Hi / n
}

// z95 is the two-sided 95% normal quantile.
const z95 = 1.959963984540054

// Interval attaches the 95% confidence interval count ± z95·stderr
// (normal approximation, unclamped) to a point estimate based on n
// records. It is the one place intervals are built: the scan engine,
// the counter engine and the collection service all answer through
// it, so their intervals are directly comparable. A zero stderr (the
// exact zero-arity case) yields a zero-width interval.
func Interval(count, stderr float64, n int) Estimate {
	return Estimate{Count: count, StdErr: stderr, Lo: count - z95*stderr, Hi: count + z95*stderr, N: n}
}

// Reconstruct is the record-scan Engine's estimator core (the gamma
// counter in internal/mining evaluates the same closed form from its
// histograms, which the counter-vs-scan tests hold to 1e-9): given the
// PERTURBED match count y
// among n submitted records and the marginal perturbation matrix for the
// filter's attribute subset, it inverts the marginal in closed form,
//
//	X̂ = (Y_L − ō·N) / (d̄ − ō),
//
// and attaches the standard error √(N·p̂(1−p̂))/(d̄−ō) with p̂ = Y_L/N —
// Y_L is a sum of N independent Bernoulli indicators (the
// Poisson-Binomial of the paper's Section 2.2, whose variance is bounded
// by the binomial at the same mean) — plus the 95% z-interval.
func Reconstruct(y float64, n int, marg core.UniformMatrix) (Estimate, error) {
	if n <= 0 {
		return Estimate{}, fmt.Errorf("%w: empty database", ErrQuery)
	}
	a := marg.Diag - marg.Off
	if a == 0 {
		return Estimate{}, fmt.Errorf("%w: singular reconstruction matrix", ErrQuery)
	}
	est := (y - marg.Off*float64(n)) / a
	phat := y / float64(n)
	stderr := math.Sqrt(float64(n)*phat*(1-phat)) / a
	return Interval(est, stderr, n), nil
}

// exactEstimate is the zero-arity case: an empty filter matches every
// record, so the count is n with no reconstruction noise and a
// zero-width interval.
func exactEstimate(n int) Estimate { return Interval(float64(n), 0, n) }

// marginalCache memoizes core.UniformMatrix.Marginal per sub-domain
// size within one batch, so CountAll computes one marginal per distinct
// attribute set instead of one per filter. (The marginal depends on the
// attribute set only through its sub-domain size, so keying by size
// reuses at least as much as keying by the set itself.)
type marginalCache struct {
	matrix core.UniformMatrix
	sub    map[int]core.UniformMatrix
	misses int
}

func newMarginalCache(m core.UniformMatrix) *marginalCache {
	return &marginalCache{matrix: m, sub: make(map[int]core.UniformMatrix)}
}

func (mc *marginalCache) get(nSub int) (core.UniformMatrix, error) {
	if marg, ok := mc.sub[nSub]; ok {
		return marg, nil
	}
	marg, err := mc.matrix.Marginal(nSub)
	if err != nil {
		return core.UniformMatrix{}, fmt.Errorf("%w: %w", ErrQuery, err)
	}
	mc.misses++
	mc.sub[nSub] = marg
	return marg, nil
}
