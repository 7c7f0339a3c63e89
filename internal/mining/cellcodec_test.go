package mining

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"runtime"
	"testing"
)

// codecEdgeCells covers every branch of the count encoding and index
// steps in both directions, including wrap-around.
var codecEdgeCells = []DeltaCell{
	{Idx: 0, Count: 0},
	{Idx: 5, Count: 1},
	{Idx: 3, Count: 2},
	{Idx: math.MaxUint64, Count: exactCountLimit - 1},
	{Idx: 1, Count: exactCountLimit},
	{Idx: 1 << 40, Count: 0.5},
	{Idx: 7, Count: math.Copysign(0, -1)},
	{Idx: 7, Count: -3},
	{Idx: 8, Count: math.Inf(1)},
	{Idx: 9, Count: math.NaN()},
	{Idx: 10, Count: math.Float64frombits(0x7ff8dead00000001)},
	{Idx: 11, Count: math.SmallestNonzeroFloat64},
}

// sameCells compares cell lists bit for bit (NaN payloads and the sign
// of zero included).
func sameCells(a, b []DeltaCell) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Idx != b[i].Idx || math.Float64bits(a[i].Count) != math.Float64bits(b[i].Count) {
			return false
		}
	}
	return true
}

func TestCellCodecRoundTrip(t *testing.T) {
	for _, cells := range [][]DeltaCell{nil, codecEdgeCells, codecEdgeCells[:1]} {
		enc := appendCells(nil, cells)
		got, err := decodeCells(enc)
		if err != nil {
			t.Fatalf("%v: %v", cells, err)
		}
		if !sameCells(got, cells) {
			t.Fatalf("round trip %v, want %v", got, cells)
		}
	}
	// A sorted histogram of small integer counts, the shape every saved
	// shard has, costs at most three bytes a cell here.
	hist := make([]DeltaCell, 1000)
	for i := range hist {
		hist[i] = DeltaCell{Idx: uint64(3*i + 1<<20), Count: float64(1 + i%40)}
	}
	if enc := appendCells(nil, hist); len(enc) > 3*len(hist)+8 {
		t.Fatalf("%d cells took %d bytes", len(hist), len(enc))
	}
}

func TestCellCodecRejects(t *testing.T) {
	valid := appendCells(nil, codecEdgeCells)
	cases := map[string][]byte{
		"empty":            nil,
		"trailing byte":    append(append([]byte(nil), valid...), 0),
		"truncated":        valid[:len(valid)-1],
		"count too large":  binary.AppendUvarint(nil, 1<<40),
		"odd count tag":    {1, 0, 3},
		"integer too wide": binary.AppendUvarint([]byte{1, 0}, exactCountLimit<<1),
		"short float":      {1, 0, floatCountTag, 0, 0, 0},
		"overlong varint":  {1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0},
	}
	for name, b := range cases {
		if cells, err := decodeCells(b); !errors.Is(err, ErrCorruptState) {
			t.Errorf("%s: decoded %v (err %v), want a corrupt-state error", name, cells, err)
		}
	}
}

// TestCellCodecBoundsAllocation: a header claiming 2^62 cells in a few
// bytes is refused before anything is sized by it.
func TestCellCodecBoundsAllocation(t *testing.T) {
	hostile := binary.AppendUvarint(nil, 1<<62)
	hostile = append(hostile, make([]byte, 64)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeCells(hostile)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("hostile count accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Fatalf("decoding %d bytes allocated %d bytes", len(hostile), grew)
	}
}

// TestCellListGob: CellList fields travel through gob in the codec, and
// an empty list decodes as no cells.
func TestCellListGob(t *testing.T) {
	type holder struct {
		Before int
		Cells  CellList
		After  string
	}
	for _, cells := range []CellList{nil, codecEdgeCells} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(holder{Before: 1, Cells: cells, After: "x"}); err != nil {
			t.Fatal(err)
		}
		var got holder
		if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
			t.Fatal(err)
		}
		if got.Before != 1 || got.After != "x" || !sameCells(got.Cells, cells) {
			t.Fatalf("gob round trip %+v, want cells %v", got, cells)
		}
	}
}

// cellsOf reads 16-byte chunks of b as cells: the index, then the
// count's float64 bits, little-endian.
func cellsOf(b []byte) []DeltaCell {
	cells := make([]DeltaCell, len(b)/16)
	for i := range cells {
		cells[i] = DeltaCell{
			Idx:   binary.LittleEndian.Uint64(b[16*i:]),
			Count: math.Float64frombits(binary.LittleEndian.Uint64(b[16*i+8:])),
		}
	}
	return cells
}

// FuzzCellCodec: arbitrary bytes never panic the decoder, which accepts
// at most one cell per two input bytes and nothing with trailing bytes;
// every accepted input re-encodes to the same cells; and any cell list,
// any float64 bit pattern as a count, round-trips exactly.
func FuzzCellCodec(f *testing.F) {
	f.Add(appendCells(nil, nil))
	f.Add(appendCells(nil, codecEdgeCells))
	f.Add(appendCells(nil, []DeltaCell{{Idx: 1 << 20, Count: 3}, {Idx: 1<<20 + 1, Count: 1}, {Idx: 1<<20 + 9, Count: 12}}))
	f.Add([]byte{2, 0, 2, 0})
	f.Add([]byte{1, 0, floatCountTag, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Fuzz(func(t *testing.T, b []byte) {
		if cells, err := decodeCells(b); err == nil {
			if len(cells) > len(b)/2 {
				t.Fatalf("%d cells from %d bytes", len(cells), len(b))
			}
			again, err := decodeCells(appendCells(nil, cells))
			if err != nil || !sameCells(again, cells) {
				t.Fatalf("re-encoding %v decoded to %v (err %v)", cells, again, err)
			}
		}
		cells := cellsOf(b)
		got, err := decodeCells(appendCells(nil, cells))
		if err != nil || !sameCells(got, cells) {
			t.Fatalf("cells %v round-tripped to %v (err %v)", cells, got, err)
		}
	})
}
