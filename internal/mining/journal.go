package mining

import "math/bits"

// Change journal. Every write a live counter takes — an ingested record,
// a replayed WAL delta, an applied replication delta — only adds positive
// counts to joint cells, so the change between two replication positions
// is exactly the sum of the cells applied in between. Each core logs those
// cells, under the lock it already holds for the write, into its journal;
// DeltaSince cuts every shard's journal in O(1) and aggregates the entries
// between two cuts with no shard lock held, so a WAL append or a
// replication pull costs O(new records), never a fold of the whole joint
// histogram.
//
// Journaling is off until the first DeltaSince (or checkpoint cut) mints a
// token: a counter nobody pulls from pays one branch per write and holds
// no entries.

const (
	// Journal chunks start small (an idle collection holds one tiny
	// chunk per shard) and double up to journalChunkMax entries.
	journalChunkMin = 256
	journalChunkMax = 8192

	// journalFloorCells is the floor of the retention budget's
	// distinct-cell term, so a counter over a small domain still keeps a
	// few flush intervals of entries (see ShardedCounter.retain).
	journalFloorCells = 1 << 16
)

// journalChunk holds the entries at positions [start, start+len(cells)).
// Its fields never change after creation and an entry is never rewritten,
// so a reader below a cut shares the chunk with the writer appending past
// the cut.
type journalChunk struct {
	start uint64
	cells []DeltaCell
}

// journal is one core's change log, guarded by the core's lock. Positions
// are absolute and only move forward; the retained entries occupy
// [start, end).
type journal struct {
	on         bool
	start, end uint64
	// mark is the position of the newest cut, limit the entries allowed
	// past it before the journal drops itself (see settle).
	mark, limit uint64
	chunks      []*journalChunk
}

// enable turns journaling on at a cut, allowing limit entries past it
// until the retention pass sets the counter's own limit. A journal that
// was off restarts past every position it ever held, so no token cut
// before it can cover it. The caller holds the core's write lock.
func (j *journal) enable(limit uint64) {
	if !j.on {
		j.on = true
		j.end = max(j.end, j.start) + 1
		j.start = j.end
		j.limit = limit
	}
	j.mark = j.end
}

// add logs one applied cell. The caller holds the core's write lock and
// has checked j.on.
func (j *journal) add(idx uint64, count float64) {
	k := len(j.chunks) - 1
	if k < 0 || j.end-j.chunks[k].start == uint64(len(j.chunks[k].cells)) {
		size := journalChunkMin
		if k >= 0 {
			size = min(2*len(j.chunks[k].cells), journalChunkMax)
		}
		j.chunks = append(j.chunks, &journalChunk{start: j.end, cells: make([]DeltaCell, size)})
		k++
	}
	ch := j.chunks[k]
	ch.cells[j.end-ch.start] = DeltaCell{Idx: idx, Count: count}
	j.end++
}

// settle drops the journal once the entries past the newest cut exceed
// the limit — the mark of an abandoned puller — so its memory stays
// bounded without one; the next cut re-enables it past every old token,
// and that pull is served full. Writers call it after each logged span.
func (j *journal) settle() {
	if j.end-j.mark > j.limit {
		j.on = false
		j.chunks = nil
		j.start = j.end + 1 // no token covers a dropped journal
	}
}

// trim releases every chunk that ends at or before pos, the oldest
// retained token's cut; the chunk the writer appends to always stays.
func (j *journal) trim(pos uint64) {
	k := 0
	for k+1 < len(j.chunks) && j.chunks[k+1].start <= pos {
		k++
	}
	if k > 0 {
		j.chunks = append([]*journalChunk(nil), j.chunks[k:]...)
	}
	j.start = max(j.start, pos)
}

// addRange adds the entries at positions [from, to) of a chunk list
// captured at a cut at or after to.
func addRange(sum *cellSum, chunks []*journalChunk, from, to uint64) {
	for _, ch := range chunks {
		lo, hi := max(from, ch.start), min(to, ch.start+uint64(len(ch.cells)))
		if lo < hi {
			sum.add(ch.cells[lo-ch.start : hi-ch.start])
		}
	}
}

// cellSumBlock bounds the entries a cellSum sorts at once.
const cellSumBlock = 1 << 19

// cellSum aggregates cells into one cell per index, sorted by index,
// without hashing: cells gather in a block that is radix-sorted on the
// index and run-length merged, then merged into the running sum, so the
// transient memory is one block plus the result. cells hands the sum
// out and keeps the block for the next aggregation.
type cellSum struct {
	block, tmp, sum []DeltaCell
	size            int
}

// newCellSum sizes the block for an expected number of cells.
func newCellSum(expect int) *cellSum {
	return &cellSum{size: max(1, min(expect, cellSumBlock))}
}

func (s *cellSum) add(cells []DeltaCell) {
	for len(cells) > 0 {
		if s.block == nil {
			s.block = make([]DeltaCell, 0, s.size)
		}
		n := min(len(cells), cap(s.block)-len(s.block))
		s.block = append(s.block, cells[:n]...)
		cells = cells[n:]
		if len(s.block) == cap(s.block) {
			s.flush()
		}
	}
}

func (s *cellSum) flush() {
	if cap(s.tmp) < len(s.block) {
		s.tmp = make([]DeltaCell, len(s.block))
	}
	s.sum = mergeCells(s.sum, sortCells(s.block, s.tmp[:len(s.block)]))
	s.block = s.block[:0]
}

// cells returns the aggregated cells, sorted by index, and starts a new
// sum.
func (s *cellSum) cells() []DeltaCell {
	if len(s.block) > 0 {
		s.flush()
	}
	out := s.sum
	s.sum = nil
	return out
}

// sortCells sorts a by index with an LSD radix sort of at most 12-bit
// digits over the indices' bit width, using tmp (len(a)) as scratch, and
// merges equal indices, returning the unique run (which aliases a or
// tmp).
func sortCells(a, tmp []DeltaCell) []DeltaCell {
	var or uint64
	for _, c := range a {
		or |= c.Idx
	}
	width := bits.Len64(or)
	passes := (width + 11) / 12
	var count [1 << 12]int
	for p := 0; p < passes; p++ {
		digit := (width + passes - 1) / passes
		shift, mask := uint(p*digit), uint64(1)<<uint(digit)-1
		clear(count[:])
		for _, c := range a {
			count[c.Idx>>shift&mask]++
		}
		total := 0
		for i, k := range count[:mask+1] {
			count[i], total = total, total+k
		}
		for _, c := range a {
			k := c.Idx >> shift & mask
			tmp[count[k]] = c
			count[k]++
		}
		a, tmp = tmp, a
	}
	out := a[:0]
	for _, c := range a {
		if n := len(out); n > 0 && out[n-1].Idx == c.Idx {
			out[n-1].Count += c.Count
		} else {
			out = append(out, c)
		}
	}
	return out
}

// mergeCells merges two index-sorted unique cell lists, summing equal
// indices.
func mergeCells(a, b []DeltaCell) []DeltaCell {
	out := make([]DeltaCell, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0].Idx < b[0].Idx:
			out, a = append(out, a[0]), a[1:]
		case a[0].Idx > b[0].Idx:
			out, b = append(out, b[0]), b[1:]
		default:
			out = append(out, DeltaCell{Idx: a[0].Idx, Count: a[0].Count + b[0].Count})
			a, b = a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// cutRead selects what a shard cut reads besides the journal position.
type cutRead int

const (
	cutJournal cutRead = iota // record count, distinct cells, journal
	cutJoint                  // ... plus the joint histogram's cells
	cutState                  // ... plus the full shard state
)

// shardCut is one core's state at a journal position, read in a single
// hold of the core's write lock: the record count, an upper bound on its
// distinct joint cells, the retained journal range [start, pos) with the
// chunks holding it, and, per cutRead, its joint cells or shard state.
type shardCut struct {
	n, cells   int
	start, pos uint64
	chunks     []*journalChunk
	joint      []DeltaCell
	state      shardState
}

// cutOf fills the journal half of a shard cut. The caller holds the
// core's write lock.
func (j *journal) cutOf(n, cells int) shardCut {
	return shardCut{n: n, cells: cells, start: j.start, pos: j.end, chunks: j.chunks}
}
