package mining

import "sort"

// Lattice utilities over a mining result: maximal and closed frequent
// itemsets, the standard condensed representations of the frequent-set
// lattice. Both operate purely on the Result, so they apply equally to
// exact and reconstructed mining output.

// Maximal returns the frequent itemsets that have no frequent proper
// superset, sorted by key. The maximal sets compactly describe the
// frequent lattice's boundary — for reconstructed results they are the
// longest patterns the perturbation mechanism could recover.
func Maximal(res *Result) []FrequentItemset {
	var out []FrequentItemset
	for _, level := range res.ByLength {
		for _, f := range level {
			if !hasFrequentSuperset(f.Items, res) {
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Items.Key() < out[j].Items.Key() })
	return out
}

// hasFrequentSuperset reports whether any frequent itemset one longer
// extends s. Supersets are found by scanning the next level (cheap: the
// levels are small relative to subset enumeration).
func hasFrequentSuperset(s Itemset, res *Result) bool {
	nextLen := s.Len() + 1
	if nextLen > len(res.ByLength) {
		return false
	}
	for _, cand := range res.ByLength[nextLen-1] {
		if isSubset(s, cand.Items) {
			return true
		}
	}
	// Guard against gaps (possible under relaxation/noise): also check
	// any longer itemset.
	for l := nextLen; l < len(res.ByLength); l++ {
		for _, cand := range res.ByLength[l] {
			if isSubset(s, cand.Items) {
				return true
			}
		}
	}
	return false
}

// isSubset reports whether every item of a appears in b. Both are in
// canonical attribute order, allowing a linear merge scan.
func isSubset(a, b Itemset) bool {
	i := 0
	for _, item := range b {
		if i == len(a) {
			return true
		}
		if a[i] == item {
			i++
		} else if a[i].Attr < item.Attr {
			return false
		}
	}
	return i == len(a)
}

// Closed returns the frequent itemsets with no frequent superset of the
// SAME support, sorted by key — the classic closed-itemset condensation
// (supports compared with a small tolerance, since reconstructed
// supports are floats).
func Closed(res *Result, tol float64) []FrequentItemset {
	var out []FrequentItemset
	for li, level := range res.ByLength {
		for _, f := range level {
			closed := true
			for l := li + 1; l < len(res.ByLength) && closed; l++ {
				for _, cand := range res.ByLength[l] {
					if isSubset(f.Items, cand.Items) && abs(cand.Support-f.Support) <= tol {
						closed = false
						break
					}
				}
			}
			if closed {
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Items.Key() < out[j].Items.Key() })
	return out
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
