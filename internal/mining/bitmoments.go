package mining

import (
	"math"
	"math/bits"
)

// Bit moments of a boolean core: the first and second moments of the
// perturbed bit vector, kept as a triangular table over the Mb item
// bits. Entry tri(a, b) (a <= b) counts the rows with bits a and b both
// set; the diagonal holds the per-bit marginals. Together with the
// record count N they determine the 2^l bit-pattern counts of every
// itemset of length l <= 2 — for items at bits a, b the rows with
//
//	both items:   S(ab)
//	only a:       S(a) − S(ab)
//	only b:       S(b) − S(ab)
//	neither:      N − S(a) − S(b) + S(ab)
//
// which is all MASK and cut-and-paste need to reconstruct it. The table
// is derived state: it is rebuilt from the joint histogram on restore
// and never persisted.

// maxMoments is the table size at the live counters' Mb cap of 62 — the
// bound of the stack-local table the batched ingest kernel fills.
const maxMoments = 62 * 63 / 2

// momentCount is the triangular table size over mb bits.
func momentCount(mb int) int { return mb * (mb + 1) / 2 }

// tri is the table index of bits a <= b.
func tri(a, b int) int { return b*(b+1)/2 + a }

// transpose64 transposes a 64×64 bit matrix in place (Hacker's Delight
// §7-3, widened to 64 bits). The layout is mirrored: bit a of word r
// ends up as bit 63−r of word 63−a, so after the transpose word 63−a
// holds bit a of every row.
func transpose64(m *[64]uint64) {
	transposeStage(m, 32, 0x00000000FFFFFFFF)
	transposeStage(m, 16, 0x0000FFFF0000FFFF)
	transposeStage(m, 8, 0x00FF00FF00FF00FF)
	transposeStage(m, 4, 0x0F0F0F0F0F0F0F0F)
	transposeStage(m, 2, 0x3333333333333333)
	transposeStage(m, 1, 0x5555555555555555)
}

// transposeStage swaps the off-diagonal j×j blocks of every 2j×2j
// diagonal block: the 32 word pairs (k, k+j) with bit j of k clear.
func transposeStage(m *[64]uint64, j uint, mask uint64) {
	for i := uint(0); i < 32; i++ {
		k := (i&^(j-1))<<1 | i&(j-1)
		t := (m[k&63] ^ m[(k|j)&63]>>j) & mask
		m[k&63] ^= t
		m[(k|j)&63] ^= t << j
	}
}

// momentGroup is how many 64-row chunks the kernel transposes before it
// folds their popcounts into the table, so each table entry is written
// once per 512 rows rather than once per chunk.
const momentGroup = 8

// allRows selects every row of a group.
var allRows = [momentGroup]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0),
	^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}

// momentKernel is the scratch space of the transpose kernel: one chunk
// being transposed, and per bit the transposed words of a group of
// chunks.
type momentKernel struct {
	chunk [64]uint64
	cols  [64][momentGroup]uint64
}

// load transposes up to 64·momentGroup rows (zero-padded) into cols:
// afterwards bit 63−r of cols[a][g] is bit a of row 64g+r.
func (k *momentKernel) load(rows []uint64, mb int) {
	for g := 0; g < momentGroup; g++ {
		n := copy(k.chunk[:], rows)
		clear(k.chunk[n:])
		rows = rows[n:]
		if n > 0 {
			transpose64(&k.chunk)
		}
		for a := 0; a < mb; a++ {
			k.cols[a][g] = k.chunk[63-a]
		}
	}
}

// fold adds the moments of the loaded rows that sel selects (in the
// transposed layout), each weighted by 2^shift, into tab, a table over
// mb bits: popcount(col[a] & col[b] & sel) for every bit pair a <= b.
func (k *momentKernel) fold(tab []uint64, mb int, sel *[momentGroup]uint64, shift int) {
	tab = tab[:momentCount(mb)]
	i := 0
	for b := 0; b < mb; b++ {
		var cb [momentGroup]uint64
		for g := range cb {
			cb[g] = k.cols[b][g] & sel[g]
		}
		for a := 0; a <= b; a++ {
			ca := &k.cols[a]
			s := bits.OnesCount64(ca[0]&cb[0]) + bits.OnesCount64(ca[1]&cb[1]) +
				bits.OnesCount64(ca[2]&cb[2]) + bits.OnesCount64(ca[3]&cb[3]) +
				bits.OnesCount64(ca[4]&cb[4]) + bits.OnesCount64(ca[5]&cb[5]) +
				bits.OnesCount64(ca[6]&cb[6]) + bits.OnesCount64(ca[7]&cb[7])
			tab[i] += uint64(s) << shift
			i++
		}
	}
}

// addRowsMoments adds the moments of rows into tab through the
// transpose kernel.
func addRowsMoments(tab []uint64, rows []uint64, mb int) {
	var k momentKernel
	for len(rows) > 0 {
		n := min(len(rows), 64*momentGroup)
		k.load(rows[:n], mb)
		k.fold(tab, mb, &allRows, 0)
		rows = rows[n:]
	}
}

// addRowMoment adds w to every moment of one row: one increment per
// pair of its set bits.
func addRowMoment(mom []float64, row uint64, w float64) {
	for r := row; r != 0; r &= r - 1 {
		b := bits.TrailingZeros64(r)
		base := b * (b + 1) / 2
		for s := row & (2<<uint(b) - 1); s != 0; s &= s - 1 {
			mom[base+bits.TrailingZeros64(s)] += w
		}
	}
}

// cellMoments returns the moment table of weighted rows. Rows with
// integer counts are transposed 512 at a time and folded once per bit
// plane of their counts (a row counted 5 times is selected in planes 0
// and 2); any other count takes the per-row loop.
func cellMoments(cells []DeltaCell, mb int) []float64 {
	const group = 64 * momentGroup
	mom := make([]float64, momentCount(mb))
	tab := make([]uint64, len(mom))
	var k momentKernel
	var rows, counts [group]uint64
	for lo := 0; lo < len(cells); {
		n := 0
		var planes uint64
		for ; lo < len(cells) && n < group; lo++ {
			cell := cells[lo]
			if cell.Count < 0 || cell.Count >= 1<<53 || cell.Count != math.Trunc(cell.Count) {
				addRowMoment(mom, cell.Idx, cell.Count)
				continue
			}
			rows[n], counts[n] = cell.Idx, uint64(cell.Count)
			planes |= counts[n]
			n++
		}
		k.load(rows[:n], mb)
		for ; planes != 0; planes &= planes - 1 {
			p := bits.TrailingZeros64(planes)
			var sel [momentGroup]uint64
			for r, c := range counts[:n] {
				sel[r/64] |= (c >> p & 1) << (63 - r%64)
			}
			k.fold(tab, mb, &sel, p)
		}
	}
	for i, v := range tab {
		mom[i] += float64(v)
	}
	return mom
}
