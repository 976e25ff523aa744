package ddsketch

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/ddsketch-go/ddsketch/internal/storeops"
	"github.com/ddsketch-go/ddsketch/mapping"
	"github.com/ddsketch-go/ddsketch/store"
)

// This file implements the DataDog sketches-go proto3 wire format as a
// Codec, hand-rolled on the proto wire grammar so the module stays
// dependency-free. The schema (sketches-go pb/ddsketch.proto):
//
//	message DDSketch {
//	  IndexMapping mapping        = 1;  // len-delimited
//	  Store        positiveValues = 2;  // len-delimited
//	  Store        negativeValues = 3;  // len-delimited
//	  double       zeroCount      = 4;  // fixed64
//	}
//	message IndexMapping {
//	  double        gamma         = 1;  // fixed64
//	  double        indexOffset   = 2;  // fixed64
//	  Interpolation interpolation = 3;  // varint: NONE 0, LINEAR 1,
//	                                    //   QUADRATIC 2, CUBIC 3
//	}
//	message Store {
//	  map<sint32, double> binCounts               = 1;  // len-delimited entries
//	  repeated double     contiguousBinCounts     = 2 [packed = true];
//	  sint32              contiguousBinIndexOffset = 3;  // varint (zigzag)
//	}
//
// The interpolation enum maps one-to-one onto this module's four
// mappings: NONE ↔ LogarithmicMapping, LINEAR/QUADRATIC/CUBIC ↔ the
// interpolated mappings of the same degree.
//
// Lossiness rules (normative; docs/WIRE_FORMAT.md §DataDog):
//
//   - Uniform-collapse lineage flattens on export: only the *current*
//     (coarsened) γ is written, so a decoded sketch has collapse epoch
//     0, no uniform bin budget, and a freshly constructed mapping at
//     that γ. Bin counts and indexes are preserved exactly; quantile
//     estimates stay within the coarsened accuracy α' = (γ−1)/(γ+1).
//   - min/max/sum are not representable in the schema. Decoding
//     reconstructs min and max from the extreme buckets'
//     α-accurate representative values and sum as Σ count·Value(index),
//     so each is within the relative accuracy of the exact statistic.
//   - Store types flatten: both stores decode as unbounded DenseStores
//     regardless of the encoder's store policy (the span limit below
//     bounds memory instead).
//   - DataDog's reference mapping rounds log_γ to the nearest index
//     where this module takes the ceiling, so foreign payloads may
//     place values one bucket away from where this module would —
//     still within the γ-bucket relative-error guarantee. A non-zero
//     integral indexOffset is folded into the bin indexes; a
//     non-integral one is rejected.
const (
	ddFieldMapping   = 1
	ddFieldPositive  = 2
	ddFieldNegative  = 3
	ddFieldZeroCount = 4

	ddMappingFieldGamma         = 1
	ddMappingFieldIndexOffset   = 2
	ddMappingFieldInterpolation = 3

	ddStoreFieldBinCounts        = 1
	ddStoreFieldContiguousCounts = 2
	ddStoreFieldContiguousOffset = 3

	ddInterpolationNone      = 0
	ddInterpolationLinear    = 1
	ddInterpolationQuadratic = 2
	ddInterpolationCubic     = 3

	// Proto wire types. Groups (3, 4) are obsolete and rejected.
	ddWireVarint  = 0
	ddWireFixed64 = 1
	ddWireBytes   = 2
	ddWireFixed32 = 5

	// ddMaxIndexSpan bounds the index spread a decoded store may claim,
	// mirroring the native store decoder's limit: a hostile payload can
	// declare two distant sparse bins in a handful of bytes, and the
	// DenseStore the decoder builds allocates the full span.
	ddMaxIndexSpan = 1 << 22
	// ddMaxIndexOffset bounds the mapping-level indexOffset (and with
	// it the shifted bin indexes), mirroring the native decoder's
	// per-index magnitude limit.
	ddMaxIndexOffset = 1 << 40
)

// dataDogCodec implements Codec for the sketches-go proto3 format.
type dataDogCodec struct{}

// DataDogCodec is the proto3 wire format of DataDog's reference
// DDSketch implementation (sketches-go), the interchange format real
// DataDog agents emit. Encoding is deterministic (fields in schema
// order, bins in ascending index order) so identical sketches encode to
// identical bytes; decoding accepts any field order and skips unknown
// fields. See the lossiness rules above and docs/WIRE_FORMAT.md.
var DataDogCodec Codec = dataDogCodec{}

func (dataDogCodec) Name() string        { return "datadog" }
func (dataDogCodec) ContentType() string { return "application/x-protobuf" }

// Sniff accepts payloads opening with a tag byte the DDSketch message
// can legally start with: field 1–3 len-delimited (0x0a, 0x12, 0x1a) or
// field 4 fixed64 (0x21). All four are disjoint from the native magic's
// leading 'D' (0x44).
func (dataDogCodec) Sniff(data []byte) bool {
	if len(data) == 0 {
		return false
	}
	switch data[0] {
	case 0x0a, 0x12, 0x1a, 0x21:
		return true
	}
	return false
}

// --- proto wire-format primitives -----------------------------------
//
// These are the standard proto base-128 varints (up to 10 bytes for a
// uint64), deliberately distinct from the encoding package's 9-byte
// scheme used by the native format.

func ddAppendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func ddAppendTag(b []byte, field, wire int) []byte {
	return ddAppendUvarint(b, uint64(field)<<3|uint64(wire))
}

func ddAppendDouble(b []byte, field int, v float64) []byte {
	b = ddAppendTag(b, field, ddWireFixed64)
	bits := math.Float64bits(v)
	return append(b,
		byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
		byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
}

func ddAppendBytes(b []byte, field int, sub []byte) []byte {
	b = ddAppendTag(b, field, ddWireBytes)
	b = ddAppendUvarint(b, uint64(len(sub)))
	return append(b, sub...)
}

// ddZigzag32 encodes a signed index as proto sint32.
func ddZigzag32(v int32) uint64 {
	return uint64(uint32(v<<1) ^ uint32(v>>31))
}

// ddUnzigzag32 decodes a proto sint32 varint payload. Values beyond 32
// bits are rejected: no conforming encoder emits them for a sint32.
func ddUnzigzag32(u uint64) (int32, error) {
	if u > math.MaxUint32 {
		return 0, fmt.Errorf("sint32 varint %d overflows 32 bits", u)
	}
	v := uint32(u)
	return int32(v>>1) ^ -int32(v&1), nil
}

// ddReader is a cursor over a proto message body. All reads bound-check
// against the slice, so truncated or hostile payloads fail with an
// error, never a panic or an oversized allocation.
type ddReader struct {
	data []byte
	pos  int
}

func (r *ddReader) done() bool { return r.pos >= len(r.data) }

func (r *ddReader) uvarint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if r.pos >= len(r.data) {
			return 0, fmt.Errorf("truncated varint")
		}
		b := r.data[r.pos]
		r.pos++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			// The 10th byte may only contribute the top bit of a uint64.
			if shift == 63 && b > 1 {
				return 0, fmt.Errorf("varint overflows uint64")
			}
			return v, nil
		}
	}
	return 0, fmt.Errorf("varint longer than 10 bytes")
}

func (r *ddReader) fixed64() (uint64, error) {
	if len(r.data)-r.pos < 8 {
		return 0, fmt.Errorf("truncated fixed64")
	}
	b := r.data[r.pos:]
	r.pos += 8
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56, nil
}

func (r *ddReader) double() (float64, error) {
	bits, err := r.fixed64()
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(bits), nil
}

// bytes reads a length-delimited field body. The declared length is
// validated against the remaining input before any slicing.
func (r *ddReader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.data)-r.pos) {
		return nil, fmt.Errorf("length %d exceeds remaining %d bytes", n, len(r.data)-r.pos)
	}
	b := r.data[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b, nil
}

// field reads the next field tag. Group wire types are rejected — the
// schema never uses them, and skipping them needs unbounded recursion.
func (r *ddReader) field() (num, wire int, err error) {
	tag, err := r.uvarint()
	if err != nil {
		return 0, 0, err
	}
	num, wire = int(tag>>3), int(tag&7)
	if num == 0 {
		return 0, 0, fmt.Errorf("field number 0")
	}
	switch wire {
	case ddWireVarint, ddWireFixed64, ddWireBytes, ddWireFixed32:
		return num, wire, nil
	default:
		return 0, 0, fmt.Errorf("unsupported wire type %d (field %d)", wire, num)
	}
}

// skip discards an unknown field's payload, preserving forward
// compatibility with schema additions.
func (r *ddReader) skip(wire int) error {
	switch wire {
	case ddWireVarint:
		_, err := r.uvarint()
		return err
	case ddWireFixed64:
		_, err := r.fixed64()
		return err
	case ddWireBytes:
		_, err := r.bytes()
		return err
	case ddWireFixed32:
		if len(r.data)-r.pos < 4 {
			return fmt.Errorf("truncated fixed32")
		}
		r.pos += 4
		return nil
	}
	return fmt.Errorf("unsupported wire type %d", wire)
}

// --- encoding ---------------------------------------------------------

// Encode serializes the sketch as a sketches-go DDSketch message.
// Output is deterministic: fields in schema order, bins ascending.
func (dataDogCodec) Encode(s *DDSketch) ([]byte, error) {
	mappingMsg, err := ddEncodeMapping(s.mapping)
	if err != nil {
		return nil, err
	}
	positive, err := ddEncodeStore(s.positive)
	if err != nil {
		return nil, fmt.Errorf("ddsketch: datadog codec: positive store: %w", err)
	}
	negative, err := ddEncodeStore(s.negative)
	if err != nil {
		return nil, fmt.Errorf("ddsketch: datadog codec: negative store: %w", err)
	}
	out := make([]byte, 0, len(mappingMsg)+len(positive)+len(negative)+16)
	out = ddAppendBytes(out, ddFieldMapping, mappingMsg)
	if len(positive) > 0 {
		out = ddAppendBytes(out, ddFieldPositive, positive)
	}
	if len(negative) > 0 {
		out = ddAppendBytes(out, ddFieldNegative, negative)
	}
	if s.zeroCount != 0 {
		out = ddAppendDouble(out, ddFieldZeroCount, s.zeroCount)
	}
	return out, nil
}

// ddEncodeMapping builds the IndexMapping message. The *current* γ is
// written — for a uniform-collapsed sketch that is the coarsened γ, and
// the collapse lineage is deliberately not representable (the
// documented flattening lossiness). indexOffset is always 0 for
// sketches this module built, so the field is omitted (proto3 default).
func ddEncodeMapping(m mapping.IndexMapping) ([]byte, error) {
	var interpolation int
	switch m.(type) {
	case *mapping.LogarithmicMapping:
		interpolation = ddInterpolationNone
	case *mapping.LinearlyInterpolatedMapping:
		interpolation = ddInterpolationLinear
	case *mapping.QuadraticallyInterpolatedMapping:
		interpolation = ddInterpolationQuadratic
	case *mapping.CubicallyInterpolatedMapping:
		interpolation = ddInterpolationCubic
	default:
		return nil, fmt.Errorf("ddsketch: datadog codec: unsupported mapping %v", m)
	}
	msg := ddAppendDouble(nil, ddMappingFieldGamma, m.Gamma())
	if interpolation != ddInterpolationNone {
		msg = ddAppendTag(msg, ddMappingFieldInterpolation, ddWireVarint)
		msg = ddAppendUvarint(msg, uint64(interpolation))
	}
	return msg, nil
}

// ddEncodeStore builds a Store message, or nil for an empty store. The
// denser of the two schema encodings is chosen deterministically:
// contiguousBinCounts (8 bytes per array slot) when the occupied span
// is at most twice the bin count, sparse binCounts map entries (13–17
// bytes per bin) otherwise. Bins are emitted in ascending index order
// either way, so equal stores encode to equal bytes regardless of the
// backing store type.
func ddEncodeStore(st store.Store) ([]byte, error) {
	type bin struct {
		index int
		count float64
	}
	var bins []bin
	st.ForEach(func(index int, count float64) bool {
		bins = append(bins, bin{index, count})
		return true
	})
	if len(bins) == 0 {
		return nil, nil
	}
	sort.Slice(bins, func(i, j int) bool { return bins[i].index < bins[j].index })
	lo, hi := bins[0].index, bins[len(bins)-1].index
	if lo < math.MinInt32 || hi > math.MaxInt32 {
		return nil, fmt.Errorf("bin index range [%d, %d] overflows sint32", lo, hi)
	}
	span := hi - lo + 1
	if span <= 2*len(bins) {
		// Contiguous: packed doubles indexed from contiguousBinIndexOffset.
		packed := make([]byte, 0, 8*span)
		next := 0
		for i := lo; i <= hi; i++ {
			c := 0.0
			if next < len(bins) && bins[next].index == i {
				c = bins[next].count
				next++
			}
			bits := math.Float64bits(c)
			packed = append(packed,
				byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
				byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
		}
		msg := ddAppendBytes(nil, ddStoreFieldContiguousCounts, packed)
		msg = ddAppendTag(msg, ddStoreFieldContiguousOffset, ddWireVarint)
		msg = ddAppendUvarint(msg, ddZigzag32(int32(lo)))
		return msg, nil
	}
	// Sparse: one map entry per bin, ascending.
	var msg []byte
	for _, b := range bins {
		entry := ddAppendTag(nil, 1, ddWireVarint)
		entry = ddAppendUvarint(entry, ddZigzag32(int32(b.index)))
		entry = ddAppendDouble(entry, 2, b.count)
		msg = ddAppendBytes(msg, ddStoreFieldBinCounts, entry)
	}
	return msg, nil
}

// --- decoding ---------------------------------------------------------

// ddBin is a validated (index, count) pair collected during store
// decoding, before any DenseStore allocation.
type ddBin struct {
	index int
	count float64
}

// Decode reconstructs a sketch from a sketches-go DDSketch message.
// Malformed, truncated, or hostile payloads fail with an error wrapping
// ErrInvalidEncoding; valid payloads from any conforming encoder are
// accepted regardless of field order or encoding choice.
func (dataDogCodec) Decode(data []byte) (*DDSketch, error) { return decodeFresh(dataDogCodec{}, data) }

// decodeInto is Decode into a scratch sketch. The whole payload is
// validated first, and each store's bins are collected, sorted and
// coalesced; the store's array is then sized once for their index
// range and filled.
func (dataDogCodec) decodeInto(dst *scratchSketch, data []byte) error {
	r := ddReader{data: data}
	fields := &dst.ddFields
	fields[0], fields[1] = fields[0][:0], fields[1][:0]
	// The bodies point into data, which the caller may reuse; do not
	// keep them past this call.
	defer func() {
		clear(fields[0])
		clear(fields[1])
	}()
	var (
		zeroCount  float64
		sawMapping bool
	)
	for !r.done() {
		num, wire, err := r.field()
		if err != nil {
			return fmt.Errorf("%w: datadog: %v", ErrInvalidEncoding, err)
		}
		switch {
		case num == ddFieldMapping && wire == ddWireBytes:
			body, err := r.bytes()
			if err != nil {
				return fmt.Errorf("%w: datadog: mapping: %v", ErrInvalidEncoding, err)
			}
			if !dst.ddMapping.hit(body) {
				m, indexOffset, err := ddDecodeMapping(body)
				if err != nil {
					return fmt.Errorf("%w: datadog: mapping: %v", ErrInvalidEncoding, err)
				}
				dst.ddMapping.set(body, mappingCache{mapping: m, indexOffset: indexOffset})
			}
			sawMapping = true
		case num == ddFieldPositive && wire == ddWireBytes:
			body, err := r.bytes()
			if err != nil {
				return fmt.Errorf("%w: datadog: positive store: %v", ErrInvalidEncoding, err)
			}
			fields[0] = append(fields[0], body)
		case num == ddFieldNegative && wire == ddWireBytes:
			body, err := r.bytes()
			if err != nil {
				return fmt.Errorf("%w: datadog: negative store: %v", ErrInvalidEncoding, err)
			}
			fields[1] = append(fields[1], body)
		case num == ddFieldZeroCount && wire == ddWireFixed64:
			v, err := r.double()
			if err != nil {
				return fmt.Errorf("%w: datadog: zero count: %v", ErrInvalidEncoding, err)
			}
			zeroCount = v
		default:
			if err := r.skip(wire); err != nil {
				return fmt.Errorf("%w: datadog: field %d: %v", ErrInvalidEncoding, num, err)
			}
		}
	}
	if !sawMapping {
		return fmt.Errorf("%w: datadog: payload carries no index mapping", ErrInvalidEncoding)
	}
	if math.IsNaN(zeroCount) || math.IsInf(zeroCount, 0) || zeroCount < 0 {
		return fmt.Errorf("%w: datadog: zero count %v", ErrInvalidEncoding, zeroCount)
	}
	c := &dst.ddMapping
	// Non-contiguous encoders may split a store across repeated fields;
	// proto semantics merge them, so bins accumulate across bodies.
	for side, bodies := range fields {
		bins := dst.ddBins[side][:0]
		var err error
		for _, body := range bodies {
			if bins, err = ddDecodeStore(body, bins, c.indexOffset); err != nil {
				return fmt.Errorf("%w: datadog: %s store: %v", ErrInvalidEncoding, storeSides[side], err)
			}
		}
		if dst.ddBins[side], err = ddCoalesce(bins); err != nil {
			return fmt.Errorf("%w: datadog: %s store: %v", ErrInvalidEncoding, storeSides[side], err)
		}
	}
	for side, bins := range dst.ddBins {
		lo, hi := 0, -1
		if len(bins) > 0 {
			lo, hi = bins[0].index, bins[len(bins)-1].index
		}
		st := storeops.ResetDense(dst.ddStores[side], lo, hi)
		dst.ddStores[side] = st
		for _, b := range bins {
			st.AddWithCount(b.index, b.count)
		}
	}
	positive, negative := dst.ddStores[0], dst.ddStores[1]
	// Every bin is finite, but their total can still overflow while the
	// reconstructed sum stays finite (bins valued below 1), and an
	// aggregate that merged an infinite count would keep it for good.
	if count := zeroCount + positive.TotalCount() + negative.TotalCount(); math.IsInf(count, 0) {
		return fmt.Errorf("%w: datadog: total weight overflows to %v", ErrInvalidEncoding, count)
	}
	min, max, sum, err := ddReconstructStatistics(c.mapping, dst.ddBins[0], dst.ddBins[1], zeroCount)
	if err != nil {
		return err
	}
	dst.sketch = DDSketch{
		mapping:   c.mapping,
		positive:  positive,
		negative:  negative,
		zeroCount: zeroCount,
		min:       min,
		max:       max,
		sum:       sum,
	}
	return nil
}

// ddDecodeMapping parses an IndexMapping message into one of the four
// mappings plus the integral index offset to fold into bin indexes.
func ddDecodeMapping(body []byte) (mapping.IndexMapping, int, error) {
	r := &ddReader{data: body}
	var (
		gamma         float64
		offset        float64
		interpolation uint64
	)
	for !r.done() {
		num, wire, err := r.field()
		if err != nil {
			return nil, 0, err
		}
		switch {
		case num == ddMappingFieldGamma && wire == ddWireFixed64:
			if gamma, err = r.double(); err != nil {
				return nil, 0, err
			}
		case num == ddMappingFieldIndexOffset && wire == ddWireFixed64:
			if offset, err = r.double(); err != nil {
				return nil, 0, err
			}
		case num == ddMappingFieldInterpolation && wire == ddWireVarint:
			if interpolation, err = r.uvarint(); err != nil {
				return nil, 0, err
			}
		default:
			if err := r.skip(wire); err != nil {
				return nil, 0, err
			}
		}
	}
	if math.IsNaN(gamma) || math.IsInf(gamma, 0) || gamma <= 1 {
		return nil, 0, fmt.Errorf("gamma %v out of range (need finite > 1)", gamma)
	}
	// This module's mappings have no index offset; an integral offset is
	// equivalent to shifting every bin index, so it is folded in below.
	// A fractional offset shifts bucket *boundaries* and has no lossless
	// translation, so it is rejected rather than silently mis-binned.
	if offset != math.Trunc(offset) || math.IsNaN(offset) ||
		offset > ddMaxIndexOffset || offset < -ddMaxIndexOffset {
		return nil, 0, fmt.Errorf("index offset %v unsupported (need integral, |offset| ≤ 2^40)", offset)
	}
	alpha := (gamma - 1) / (gamma + 1)
	var (
		m   mapping.IndexMapping
		err error
	)
	switch interpolation {
	case ddInterpolationNone:
		m, err = mapping.NewLogarithmic(alpha)
	case ddInterpolationLinear:
		m, err = mapping.NewLinearlyInterpolated(alpha)
	case ddInterpolationQuadratic:
		m, err = mapping.NewQuadraticallyInterpolated(alpha)
	case ddInterpolationCubic:
		m, err = mapping.NewCubicallyInterpolated(alpha)
	default:
		return nil, 0, fmt.Errorf("unknown interpolation %d", interpolation)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("gamma %v: %v", gamma, err)
	}
	return m, int(offset), nil
}

// ddDecodeStore parses one Store message body, appending validated bins
// (shifted by -indexOffset) to dst. Counts must be finite and
// non-negative; zero counts are skipped, as proto3 encoders emit them
// only as contiguous-run padding. Repeated contiguousBinCounts fields
// concatenate into one run (proto packed-repeated semantics), and the
// run's contiguousBinIndexOffset may appear anywhere in the message, so
// contiguous bins resolve to indexes only once the message has been
// read: a second pass appends them after the map entries.
func ddDecodeStore(body []byte, dst []ddBin, indexOffset int) ([]ddBin, error) {
	r := ddReader{data: body}
	var (
		contiguousLen    int
		contiguousOffset int32
	)
	for !r.done() {
		num, wire, err := r.field()
		if err != nil {
			return nil, err
		}
		switch {
		case num == ddStoreFieldBinCounts && wire == ddWireBytes:
			entry, err := r.bytes()
			if err != nil {
				return nil, err
			}
			index, count, err := ddDecodeMapEntry(entry)
			if err != nil {
				return nil, err
			}
			if err := ddCheckCount(count); err != nil {
				return nil, err
			}
			if count > 0 {
				dst = append(dst, ddBin{int(index) - indexOffset, count})
			}
		case num == ddStoreFieldContiguousCounts && wire == ddWireBytes:
			packed, err := r.bytes()
			if err != nil {
				return nil, err
			}
			if len(packed)%8 != 0 {
				return nil, fmt.Errorf("packed double run of %d bytes (need multiple of 8)", len(packed))
			}
			if contiguousLen+len(packed)/8 > ddMaxIndexSpan {
				return nil, fmt.Errorf("contiguous run of %d bins exceeds span limit %d",
					contiguousLen+len(packed)/8, ddMaxIndexSpan)
			}
			for i := 0; i+8 <= len(packed); i += 8 {
				if err := ddCheckCount(ddPackedDouble(packed[i:])); err != nil {
					return nil, err
				}
			}
			contiguousLen += len(packed) / 8
		case num == ddStoreFieldContiguousOffset && wire == ddWireVarint:
			u, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if contiguousOffset, err = ddUnzigzag32(u); err != nil {
				return nil, err
			}
		default:
			if err := r.skip(wire); err != nil {
				return nil, err
			}
		}
	}
	if contiguousLen == 0 {
		return dst, nil
	}
	r = ddReader{data: body}
	i := 0
	for !r.done() {
		// The first pass read every field, so none of these reads fails.
		num, wire, _ := r.field()
		if num != ddStoreFieldContiguousCounts || wire != ddWireBytes {
			_ = r.skip(wire)
			continue
		}
		packed, _ := r.bytes()
		for j := 0; j+8 <= len(packed); j += 8 {
			if count := ddPackedDouble(packed[j:]); count > 0 {
				dst = append(dst, ddBin{int(contiguousOffset) + i - indexOffset, count})
			}
			i++
		}
	}
	return dst, nil
}

// ddPackedDouble reads the little-endian double at the start of b.
func ddPackedDouble(b []byte) float64 {
	return math.Float64frombits(uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 |
		uint64(b[3])<<24 | uint64(b[4])<<32 | uint64(b[5])<<40 |
		uint64(b[6])<<48 | uint64(b[7])<<56)
}

// ddDecodeMapEntry parses one binCounts map entry: {sint32 key = 1,
// double value = 2}. Proto map entries may omit either field (zero
// default) and the decoder accepts any order.
func ddDecodeMapEntry(entry []byte) (int32, float64, error) {
	r := &ddReader{data: entry}
	var (
		key   int32
		value float64
	)
	for !r.done() {
		num, wire, err := r.field()
		if err != nil {
			return 0, 0, err
		}
		switch {
		case num == 1 && wire == ddWireVarint:
			u, err := r.uvarint()
			if err != nil {
				return 0, 0, err
			}
			if key, err = ddUnzigzag32(u); err != nil {
				return 0, 0, err
			}
		case num == 2 && wire == ddWireFixed64:
			if value, err = r.double(); err != nil {
				return 0, 0, err
			}
		default:
			if err := r.skip(wire); err != nil {
				return 0, 0, err
			}
		}
	}
	return key, value, nil
}

// ddCheckCount rejects the count values no encoder legitimately emits.
func ddCheckCount(count float64) error {
	if math.IsNaN(count) || math.IsInf(count, 0) || count < 0 {
		return fmt.Errorf("bin count %v (need finite ≥ 0)", count)
	}
	return nil
}

// ddCoalesce sorts bins by index, keeping the payload order of equal
// indexes, and sums each index's counts in that order: the sums a loop
// of AddWithCount calls in payload order would leave. It then checks
// the index range, before any store is sized for it.
func ddCoalesce(bins []ddBin) ([]ddBin, error) {
	if len(bins) == 0 {
		return bins, nil
	}
	byIndex := func(a, b ddBin) int { return cmp.Compare(a.index, b.index) }
	if !slices.IsSortedFunc(bins, byIndex) {
		slices.SortStableFunc(bins, byIndex)
	}
	out := bins[:1]
	for _, b := range bins[1:] {
		if last := &out[len(out)-1]; b.index == last.index {
			last.count += b.count
		} else {
			out = append(out, b)
		}
	}
	lo, hi := out[0].index, out[len(out)-1].index
	if lo < -ddMaxIndexOffset || hi > ddMaxIndexOffset {
		return nil, fmt.Errorf("bucket index out of range [%d, %d]", lo, hi)
	}
	if hi-lo > ddMaxIndexSpan {
		return nil, fmt.Errorf("index span [%d, %d] too wide", lo, hi)
	}
	return out, nil
}

// ddReconstructStatistics derives the statistics the DataDog schema
// cannot carry from the coalesced bins, each store's in ascending index
// order: min and max from the extreme buckets' representative values,
// sum as Σ count·Value(index). Each is within the mapping's relative
// accuracy of the exact statistic — which keeps every quantile estimate
// of the decoded sketch within α, since the statistics only participate
// as the output clamp. Non-finite reconstructions (buckets beyond the
// mapping's indexable range) are rejected, mirroring the native
// decoder's hostile-statistics checks.
func ddReconstructStatistics(m mapping.IndexMapping, positive, negative []ddBin, zeroCount float64) (min, max, sum float64, err error) {
	for _, b := range positive {
		sum += b.count * m.Value(b.index)
	}
	for _, b := range negative {
		sum -= b.count * m.Value(b.index)
	}
	min, max = math.Inf(1), math.Inf(-1)
	if zeroCount == 0 && len(positive) == 0 && len(negative) == 0 {
		return min, max, sum, nil
	}
	// min: most negative value first, then zero, then smallest positive.
	switch {
	case len(negative) > 0:
		min = -m.Value(negative[len(negative)-1].index)
	case zeroCount > 0:
		min = 0
	default:
		min = m.Value(positive[0].index)
	}
	switch {
	case len(positive) > 0:
		max = m.Value(positive[len(positive)-1].index)
	case zeroCount > 0:
		max = 0
	default:
		max = -m.Value(negative[0].index)
	}
	if math.IsNaN(sum) || math.IsInf(sum, 0) ||
		math.IsNaN(min) || math.IsInf(min, 0) ||
		math.IsNaN(max) || math.IsInf(max, 0) || min > max {
		return 0, 0, 0, fmt.Errorf("%w: datadog: unreconstructable statistics (min %v, max %v, sum %v)",
			ErrInvalidEncoding, min, max, sum)
	}
	return min, max, sum, nil
}
