package mining

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The cell codec is the one on-disk form of joint cells: the boolean
// schemes' saved shard states, a checkpoint's journal tail and the
// store's WAL records all write their cells through CellList, whose gob
// form it is. The layout is the number of cells as a uvarint, then per
// cell
//
//   - the zig-zag varint of its index minus the previous cell's index
//     (the first against 0, the difference wrapping modulo 2^64), and
//   - its count: the uvarint 2c when the count c is a non-negative
//     integer below 2^53, otherwise the uvarint 1 followed by the
//     count's float64 bits, little-endian.
//
// Every index and every float64 bit pattern round-trips exactly. A
// saved histogram is sorted by index with small integer counts, so a
// cell costs two to four bytes, against about ten for gob's reflected
// DeltaCell structs.

// exactCountLimit bounds the counts written as integers: every integer
// below it is exact in a float64.
const exactCountLimit = 1 << 53

// floatCountTag marks a count written as its float64 bits.
const floatCountTag = 1

// errCellCodec marks a cell list that does not decode.
var errCellCodec = fmt.Errorf("%w: malformed cell list", ErrCorruptState)

// appendCells encodes cells, appending to dst.
func appendCells(dst []byte, cells []DeltaCell) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(cells)))
	var prev uint64
	for _, c := range cells {
		dst = binary.AppendVarint(dst, int64(c.Idx-prev))
		prev = c.Idx
		if n := c.Count; n >= 0 && n < exactCountLimit && n == math.Trunc(n) && !math.Signbit(n) {
			dst = binary.AppendUvarint(dst, uint64(n)<<1)
		} else {
			dst = binary.AppendUvarint(dst, floatCountTag)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(n))
		}
	}
	return dst
}

// decodeCells decodes one encoded cell list that fills b exactly. The
// cell count is checked against the bytes left before the cells are
// allocated, so a hostile count cannot force an allocation beyond eight
// times the input.
func decodeCells(b []byte) ([]DeltaCell, error) {
	n, off := binary.Uvarint(b)
	if off <= 0 {
		return nil, fmt.Errorf("%w: bad cell count", errCellCodec)
	}
	// Each cell takes at least two bytes: its index step and its count.
	if n > uint64(len(b)-off)/2 {
		return nil, fmt.Errorf("%w: %d cells in %d bytes", errCellCodec, n, len(b)-off)
	}
	cells := make([]DeltaCell, n)
	var idx uint64
	for i := range cells {
		step, k := binary.Varint(b[off:])
		if k <= 0 {
			return nil, fmt.Errorf("%w: cell %d: bad index step at offset %d", errCellCodec, i, off)
		}
		off += k
		idx += uint64(step)
		u, k := binary.Uvarint(b[off:])
		if k <= 0 {
			return nil, fmt.Errorf("%w: cell %d: bad count at offset %d", errCellCodec, i, off)
		}
		off += k
		var count float64
		switch {
		case u&1 == 0 && u>>1 < exactCountLimit:
			count = float64(u >> 1)
		case u == floatCountTag && len(b)-off >= 8:
			count = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
			off += 8
		default:
			return nil, fmt.Errorf("%w: cell %d: bad count at offset %d", errCellCodec, i, off-k)
		}
		cells[i] = DeltaCell{Idx: idx, Count: count}
	}
	if off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes after %d cells", errCellCodec, len(b)-off, n)
	}
	return cells, nil
}

// CellList is a list of joint cells that gob writes in the cell codec.
// Every persisted cell list has this type; CounterDelta keeps plain
// DeltaCells, so the /v1/replicate wire is gob's reflected form.
type CellList []DeltaCell

// GobEncode encodes the cells in the cell codec.
func (l CellList) GobEncode() ([]byte, error) {
	return appendCells(make([]byte, 0, binary.MaxVarintLen64+3*len(l)), l), nil
}

// GobDecode decodes cells written by GobEncode.
func (l *CellList) GobDecode(b []byte) error {
	cells, err := decodeCells(b)
	if err != nil {
		return err
	}
	*l = cells
	return nil
}
