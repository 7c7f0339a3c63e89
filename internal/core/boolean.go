package core

import (
	"fmt"
	"math/bits"

	"repro/internal/dataset"
)

// BoolMapping is the categorical→boolean conversion used by the MASK and
// C&P baselines (Section 7): each category of each attribute becomes one
// boolean item, so a record with M attributes maps to a boolean vector of
// length Mb = Σ_j |S_j| containing exactly M ones. Vectors are packed into
// uint64 bitsets, which caps Mb at 64 — ample for the paper's schemas
// (CENSUS Mb=23, HEALTH Mb=27).
type BoolMapping struct {
	Schema  *dataset.Schema
	Offsets []int // bit position of (attribute j, value 0)
	Cards   []int // cardinality of attribute j
	Mb      int
}

// NewBoolMapping precomputes bit offsets and cardinalities.
func NewBoolMapping(s *dataset.Schema) (*BoolMapping, error) {
	offsets := make([]int, s.M())
	cards := make([]int, s.M())
	total := 0
	for j, a := range s.Attrs {
		offsets[j] = total
		cards[j] = a.Cardinality()
		total += cards[j]
	}
	if total > 64 {
		return nil, fmt.Errorf("%w: Mb = %d exceeds 64-bit bitset capacity", ErrPerturb, total)
	}
	return &BoolMapping{Schema: s, Offsets: offsets, Cards: cards, Mb: total}, nil
}

// Bit returns the bit position of (attribute, value).
func (m *BoolMapping) Bit(attr, value int) (int, error) {
	if attr < 0 || attr >= m.Schema.M() {
		return 0, fmt.Errorf("%w: attribute %d out of range", ErrPerturb, attr)
	}
	if value < 0 || value >= m.Schema.Attrs[attr].Cardinality() {
		return 0, fmt.Errorf("%w: value %d out of range for attribute %d", ErrPerturb, value, attr)
	}
	return m.Offsets[attr] + value, nil
}

// Encode converts a categorical record to its bitset.
func (m *BoolMapping) Encode(rec dataset.Record) (uint64, error) {
	if err := m.Schema.Validate(rec); err != nil {
		return 0, err
	}
	var b uint64
	for j, v := range rec {
		b |= 1 << uint(m.Offsets[j]+v)
	}
	return b, nil
}

// Decode converts a bitset with exactly one bit per attribute back to a
// categorical record; it errors if any attribute has zero or multiple
// bits set (which perturbed boolean records generally do — only original
// records round-trip).
func (m *BoolMapping) Decode(b uint64) (dataset.Record, error) {
	rec := make(dataset.Record, m.Schema.M())
	for j, a := range m.Schema.Attrs {
		card := a.Cardinality()
		seg := (b >> uint(m.Offsets[j])) & (1<<uint(card) - 1)
		if bits.OnesCount64(seg) != 1 {
			return nil, fmt.Errorf("%w: attribute %d has %d bits set", ErrPerturb, j, bits.OnesCount64(seg))
		}
		rec[j] = bits.TrailingZeros64(seg)
	}
	return rec, nil
}

// BoolDatabase is a perturbed boolean database: one bitset per record.
// Unlike categorical databases, rows may contain any number of ones —
// MASK flips bits independently and C&P pastes arbitrary item sets.
type BoolDatabase struct {
	Mapping *BoolMapping
	Rows    []uint64
}

// N returns the number of rows.
func (db *BoolDatabase) N() int { return len(db.Rows) }

// EncodeDatabase converts an entire categorical database to boolean form
// (without perturbation).
func EncodeDatabase(db *dataset.Database) (*BoolDatabase, error) {
	m, err := NewBoolMapping(db.Schema)
	if err != nil {
		return nil, err
	}
	rows := make([]uint64, 0, db.N())
	for i, rec := range db.Records {
		b, err := m.Encode(rec)
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		rows = append(rows, b)
	}
	return &BoolDatabase{Mapping: m, Rows: rows}, nil
}

// ItemsetMask converts an itemset — a list of (attribute, value) pairs —
// into the bitset of its boolean items.
func (m *BoolMapping) ItemsetMask(attrs, values []int) (uint64, error) {
	if len(attrs) != len(values) {
		return 0, fmt.Errorf("%w: %d attributes vs %d values", ErrPerturb, len(attrs), len(values))
	}
	var mask uint64
	for k := range attrs {
		bit, err := m.Bit(attrs[k], values[k])
		if err != nil {
			return 0, err
		}
		if mask&(1<<uint(bit)) != 0 {
			return 0, fmt.Errorf("%w: duplicate item in itemset", ErrPerturb)
		}
		mask |= 1 << uint(bit)
	}
	return mask, nil
}
