package service

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"mime"
	"slices"
	"sync"

	"repro/internal/mining"
)

// Binary wire form for POST /v1/submit-batch, negotiated via
// Content-Type. JSON (the default) names categories by string, so one
// submitted item costs tens of bytes and a map allocation to decode;
// the binary form ships the already-perturbed records as varint
// (attr, value) index pairs — the exact shape the counter ingests — so
// decoding is a single linear scan into pooled scratch that allocates
// O(1) per batch regardless of batch size.
//
// Layout (all integers unsigned varints):
//
//	magic "FRB1"
//	record count
//	per record: item count, then per item: attr index, value index
//
// Indexes are positions in the published schema (attribute order,
// category order), which both sides derive from the same contract. The
// submission must carry the scheme's compatibility fingerprint in the
// X-Frapp-Fingerprint header; a mismatch is a 400 before any byte of
// the body is parsed, so records perturbed under a stale or foreign
// contract can never be counted.
const (
	// BatchContentTypeJSON is the default submit-batch wire form: a JSON
	// array of per-scheme record objects.
	BatchContentTypeJSON = "application/json"
	// BatchContentTypeBinary selects the binary submit-batch wire form.
	BatchContentTypeBinary = "application/x-frapp-batch"
	// FingerprintHeader carries the client's scheme compatibility
	// fingerprint on binary submissions.
	FingerprintHeader = "X-Frapp-Fingerprint"
	// batchMagic leads every binary batch so a misrouted JSON body (or
	// truncated proxy garbage) fails fast with a clear error.
	batchMagic = "FRB1"
)

// maxWireIndex bounds decoded attr/value indexes: far above any legal
// schema position, low enough that int conversion can never wrap.
const maxWireIndex = math.MaxInt32

// mediaType extracts the bare media type from a Content-Type header,
// tolerating parameters and case per RFC 9110. Unparseable or absent
// values return "" (the caller treats that as the JSON default).
func mediaType(ct string) string {
	if ct == "" {
		return ""
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return ""
	}
	return mt
}

// appendBinaryBatch encodes records in the binary wire form, appending
// to dst. The client-side encoder half of the codec.
func appendBinaryBatch(dst []byte, records [][]mining.Item) []byte {
	dst = append(dst, batchMagic...)
	dst = binary.AppendUvarint(dst, uint64(len(records)))
	for _, items := range records {
		dst = binary.AppendUvarint(dst, uint64(len(items)))
		for _, it := range items {
			dst = binary.AppendUvarint(dst, uint64(it.Attr))
			dst = binary.AppendUvarint(dst, uint64(it.Value))
		}
	}
	return dst
}

// batchScratch is the pooled decode state for one binary batch: the
// body buffer, one flat item arena, and the per-record views into it.
// All four slices retain capacity across uses, so a steady stream of
// similar-size batches decodes with zero per-batch heap growth.
type batchScratch struct {
	body    []byte
	items   []mining.Item
	lens    []int
	records [][]mining.Item
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// release returns the scratch to the pool. The caller must not hold on
// to the record views after release — the counter has already copied
// the batch into its own prepared form by then.
func (b *batchScratch) release() { batchPool.Put(b) }

// readBody reads r to EOF into b.body, reusing its capacity.
func (b *batchScratch) readBody(r io.Reader) error {
	buf := b.body[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			b.body = buf
			return nil
		}
		if err != nil {
			b.body = buf
			return err
		}
	}
}

// errWire marks a malformed binary batch, or one whose body would not
// read (a tripped -max-body limit stays in the chain for statusOf).
var errWire = fmt.Errorf("%w: bad binary batch", errInvalid)

// uvarint decodes one varint at off, rejecting truncation and values
// above maxWireIndex (indexes and counts alike — a batch can never
// legitimately carry more records than it has bytes).
func (b *batchScratch) uvarint(off int) (int, int, error) {
	v, n := binary.Uvarint(b.body[off:])
	if n <= 0 || v > maxWireIndex {
		return 0, 0, fmt.Errorf("%w: bad varint at offset %d", errWire, off)
	}
	return int(v), off + n, nil
}

// decode reads and parses one binary batch from r into the scratch,
// returning per-record item views into the flat arena. The views stay
// valid until release. Structural validation only — attribute and
// value ranges are the counter's prepare step — but every count is
// bounded by the remaining body size before any allocation sized by
// it, so a hostile header cannot force a huge allocation.
func (b *batchScratch) decode(r io.Reader) ([][]mining.Item, error) {
	if err := b.readBody(r); err != nil {
		return nil, fmt.Errorf("%w: %w", errWire, err)
	}
	body := b.body
	if len(body) < len(batchMagic) || string(body[:len(batchMagic)]) != batchMagic {
		return nil, fmt.Errorf("%w: missing %q magic", errWire, batchMagic)
	}
	count, off, err := b.uvarint(len(batchMagic))
	if err != nil {
		return nil, err
	}
	// Each record costs at least one byte (its item count), each item at
	// least two (attr + value), so counts are bounded by bytes remaining.
	if count > len(body)-off {
		return nil, fmt.Errorf("%w: %d records in a %d-byte body", errWire, count, len(body))
	}
	b.items = b.items[:0]
	b.lens = b.lens[:0]
	// Almost every item count, attr and value of a real batch is below
	// 128, a one-byte varint: those are read inline, and anything longer
	// goes through uvarint with its checks.
	for i := 0; i < count; i++ {
		var m int
		if off < len(body) && body[off] < 0x80 {
			m, off = int(body[off]), off+1
		} else if m, off, err = b.uvarint(off); err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		if m > (len(body)-off)/2 {
			return nil, fmt.Errorf("%w: record %d claims %d items with %d bytes left", errWire, i, m, len(body)-off)
		}
		lo := len(b.items)
		b.items = slices.Grow(b.items, m)[:lo+m]
		rec := b.items[lo:]
		for j := range rec {
			if off+1 < len(body) && body[off]|body[off+1] < 0x80 {
				rec[j] = mining.Item{Attr: int(body[off]), Value: int(body[off+1])}
				off += 2
				continue
			}
			var attr, value int
			if attr, off, err = b.uvarint(off); err != nil {
				return nil, fmt.Errorf("record %d item %d: %w", i, j, err)
			}
			if value, off, err = b.uvarint(off); err != nil {
				return nil, fmt.Errorf("record %d item %d: %w", i, j, err)
			}
			rec[j] = mining.Item{Attr: attr, Value: value}
		}
		b.lens = append(b.lens, m)
	}
	if off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes after %d records", errWire, len(body)-off, count)
	}
	// Build the record views only after the arena stopped growing —
	// subslices taken mid-append would dangle after a realloc.
	b.records = b.records[:0]
	lo := 0
	for _, n := range b.lens {
		b.records = append(b.records, b.items[lo:lo+n:lo+n])
		lo += n
	}
	return b.records, nil
}
