package ddsketch

import (
	"errors"
	"fmt"
	"math"

	"github.com/ddsketch-go/ddsketch/encoding"
	"github.com/ddsketch-go/ddsketch/internal/storeops"
	"github.com/ddsketch-go/ddsketch/mapping"
	"github.com/ddsketch-go/ddsketch/store"
)

// The binary format is self-describing and versioned:
//
//	magic  "DDS"  (3 bytes)
//	version       (1 byte)
//	[v2 only] uniform bin budget (uvarint), collapse epoch (uvarint)
//	mapping       (type tag + parameters)
//	zeroCount     (varfloat64)
//	min, max, sum (varfloat64 ×3)
//	positive store (type tag + parameters + bins)
//	negative store (type tag + parameters + bins)
//
// Version 1 is the epoch-less format; sketches with no uniform-collapse
// state still emit it, so agents that never collapse interoperate with
// version-1 peers byte for byte. Version 2 carries the uniform-collapse
// lineage: the encoded mapping is the *base* (epoch-0) mapping, and the
// decoder re-derives the current mapping by coarsening it epoch times —
// the same float path every collapse takes, so mixed-epoch round-trips
// land on bit-identical mappings and merge exactly.
//
// Bucket counts round-trip exactly; decoding reconstructs the original
// mapping and store configurations, so a decoded sketch keeps both its
// accuracy guarantee and its collapsing behaviour.

const (
	serializationVersion        = 1
	serializationVersionUniform = 2

	// maxDecodedEpoch bounds the coarsening loop a hostile payload can
	// request. Real epochs stay tiny: every collapse at least halves the
	// index span, and γ squares per epoch, overflowing float64 long
	// before 64 epochs for any indexable data.
	maxDecodedEpoch = 255
	// maxDecodedUniformBins bounds the decoded bin budget, mirroring the
	// store decoder's index-span limit.
	maxDecodedUniformBins = 1 << 22
)

var serializationMagic = [3]byte{'D', 'D', 'S'}

// Errors returned by Decode.
var (
	// ErrInvalidEncoding is returned when the input is not a serialized
	// DDSketch.
	ErrInvalidEncoding = errors.New("ddsketch: invalid encoding")
	// ErrUnsupportedVersion is returned for serialization versions this
	// library does not understand.
	ErrUnsupportedVersion = errors.New("ddsketch: unsupported serialization version")
)

// Encode returns a compact binary serialization of the sketch, suitable
// for shipping to an aggregation service and decoding with Decode.
func (s *DDSketch) Encode() []byte {
	w := encoding.NewWriter(64 + 4*s.NumBins())
	w.Byte(serializationMagic[0])
	w.Byte(serializationMagic[1])
	w.Byte(serializationMagic[2])
	if s.uniformMaxBins > 0 || s.epoch > 0 {
		w.Byte(serializationVersionUniform)
		w.Uvarint(uint64(s.uniformMaxBins))
		w.Uvarint(uint64(s.epoch))
		base := s.baseMapping
		if base == nil {
			base = s.mapping
		}
		base.Encode(w)
	} else {
		w.Byte(serializationVersion)
		s.mapping.Encode(w)
	}
	w.Varfloat64(s.zeroCount)
	w.Varfloat64(s.min)
	w.Varfloat64(s.max)
	w.Varfloat64(s.sum)
	s.positive.Encode(w)
	s.negative.Encode(w)
	return w.Bytes()
}

// Decode reconstructs a sketch from any registered wire format,
// auto-detecting the codec from the payload's leading bytes: the
// native format (magic "DDS") decodes losslessly; a DataDog
// sketches-go proto3 payload decodes under the documented lossiness
// rules (see docs/WIRE_FORMAT.md). Unrecognized leading bytes fail
// with an error wrapping ErrInvalidEncoding that names the candidate
// codecs.
func Decode(data []byte) (*DDSketch, error) {
	c, err := DetectCodec(data)
	if err != nil {
		return nil, err
	}
	return c.Decode(data)
}

// decodeInto reconstructs a sketch serialized with Encode into dst:
// the same mapping, store types, contents, and statistics as the
// original. Each store is validated in full before its array is sized,
// once, for the decoded index range.
func (nativeCodec) decodeInto(dst *scratchSketch, data []byte) error {
	dst.reader = *encoding.NewReader(data)
	defer func() { dst.reader = encoding.Reader{} }() // do not keep data past this call
	r := &dst.reader
	for _, want := range serializationMagic {
		got, err := r.Byte()
		if err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidEncoding, err)
		}
		if got != want {
			return fmt.Errorf("%w: bad magic", ErrInvalidEncoding)
		}
	}
	// The version byte, the uniform-collapse header and the mapping
	// decode as one unit, cached across payloads.
	c := &dst.nativeMapping
	header := data[len(serializationMagic):]
	if c.hitPrefix(header) {
		for range c.key {
			_, _ = r.Byte() // skip the header bytes the cache matched
		}
	} else {
		m, err := decodeNativeHeader(r)
		if err != nil {
			return err
		}
		c.set(header[:len(header)-r.Remaining()], m)
	}
	zeroCount, err := r.Varfloat64()
	if err != nil {
		return fmt.Errorf("%w: decoding zero count: %w", ErrInvalidEncoding, err)
	}
	min, err := r.Varfloat64()
	if err != nil {
		return fmt.Errorf("%w: decoding min: %w", ErrInvalidEncoding, err)
	}
	max, err := r.Varfloat64()
	if err != nil {
		return fmt.Errorf("%w: decoding max: %w", ErrInvalidEncoding, err)
	}
	sum, err := r.Varfloat64()
	if err != nil {
		return fmt.Errorf("%w: decoding sum: %w", ErrInvalidEncoding, err)
	}
	// Validate the statistics before decoding the stores: a NaN statistic
	// (or a negative or non-finite zero count, or an infinite sum) would
	// poison every Quantile through the min/max clamp and every Count and
	// Avg through the counters. Infinite sums and zero counts are
	// technically reachable by float64 overflow of legal insertions, but
	// only past ~1.8e308 of accumulated weight — outside the wire
	// format's domain, so they are treated as hostile rather than carried
	// into an aggregate they would silently saturate.
	if math.IsNaN(zeroCount) || math.IsInf(zeroCount, 0) || zeroCount < 0 {
		return fmt.Errorf("%w: zero count %v", ErrInvalidEncoding, zeroCount)
	}
	if math.IsNaN(min) || math.IsNaN(max) || math.IsNaN(sum) || math.IsInf(sum, 0) {
		return fmt.Errorf("%w: non-finite statistics (min %v, max %v, sum %v)",
			ErrInvalidEncoding, min, max, sum)
	}
	for side, st := range dst.nativeStores {
		decoded, err := storeops.DecodeInto(r, st)
		if err != nil {
			return fmt.Errorf("%w: decoding %s store: %w", ErrInvalidEncoding, storeSides[side], err)
		}
		dst.nativeStores[side] = decoded
	}
	positive, negative := dst.nativeStores[0], dst.nativeStores[1]
	// Every bin is finite, but their total can still overflow, and an
	// aggregate that merged an infinite count would keep it for good.
	count := zeroCount + positive.TotalCount() + negative.TotalCount()
	if math.IsInf(count, 0) {
		return fmt.Errorf("%w: total weight overflows to %v", ErrInvalidEncoding, count)
	}
	// A sketch holding weight has finite, ordered extremes: only finite
	// values can be inserted, and every insertion updates min and max.
	// (An empty sketch legitimately carries min = +Inf, max = −Inf.)
	if count > 0 {
		if math.IsInf(min, 0) || math.IsInf(max, 0) || min > max {
			return fmt.Errorf("%w: extremes [%v, %v] with count %v",
				ErrInvalidEncoding, min, max, count)
		}
	}
	if c.uniformBins > 0 {
		// A uniform bin budget owns unbounded dense stores (the
		// sketch-level fold is what bounds them); a budget paired with any
		// other store type is a configuration NewSketch can never build.
		// An epoch alone is legal on any store: the public
		// CollapseUniformly pre-coarsens budget-less sketches in place.
		for side, st := range dst.nativeStores {
			if _, ok := st.(*store.DenseStore); !ok {
				return fmt.Errorf("%w: uniform bin budget %d with a non-dense %s store %T",
					ErrInvalidEncoding, c.uniformBins, storeSides[side], st)
			}
		}
	}
	dst.sketch = DDSketch{
		mapping:        c.mapping,
		positive:       positive,
		negative:       negative,
		zeroCount:      zeroCount,
		min:            min,
		max:            max,
		sum:            sum,
		uniformMaxBins: c.uniformBins,
		epoch:          c.epoch,
		baseMapping:    c.base,
	}
	return nil
}

// decodeNativeHeader decodes the version byte, the version-2
// uniform-collapse header and the mapping, re-deriving the current
// mapping of a collapsed lineage.
func decodeNativeHeader(r *encoding.Reader) (mappingCache, error) {
	version, err := r.Byte()
	if err != nil {
		return mappingCache{}, fmt.Errorf("%w: %v", ErrInvalidEncoding, err)
	}
	if version != serializationVersion && version != serializationVersionUniform {
		return mappingCache{}, fmt.Errorf("%w: got version %d", ErrUnsupportedVersion, version)
	}
	var uniformMaxBins, epoch int
	if version == serializationVersionUniform {
		bins, err := r.Uvarint()
		if err != nil {
			return mappingCache{}, fmt.Errorf("%w: decoding uniform bin budget: %v", ErrInvalidEncoding, err)
		}
		e, err := r.Uvarint()
		if err != nil {
			return mappingCache{}, fmt.Errorf("%w: decoding collapse epoch: %v", ErrInvalidEncoding, err)
		}
		// Mirror WithUniformCollapse's validation: a budget of 1 can
		// never fit two non-empty stores and would spin the collapse
		// loop on every insertion.
		if bins == 1 || bins > uint64(maxDecodedUniformBins) {
			return mappingCache{}, fmt.Errorf("%w: uniform bin budget %d out of range", ErrInvalidEncoding, bins)
		}
		if e > maxDecodedEpoch {
			return mappingCache{}, fmt.Errorf("%w: collapse epoch %d out of range", ErrInvalidEncoding, e)
		}
		uniformMaxBins, epoch = int(bins), int(e)
	}
	m, err := mapping.Decode(r)
	if err != nil {
		return mappingCache{}, fmt.Errorf("%w: decoding mapping: %w", ErrInvalidEncoding, err)
	}
	baseMapping := m
	if uniformMaxBins > 0 || epoch > 0 {
		// Uniform-collapse state requires a coarsenable mapping, exactly
		// as WithUniformCollapse enforces at construction. Any of the
		// mapping package's four mappings qualifies, so v2 payloads carry
		// interpolated lineages as readily as logarithmic ones.
		if _, ok := m.(mapping.Coarsenable); !ok {
			return mappingCache{}, fmt.Errorf("%w: uniform-collapse state on a non-coarsenable mapping %v",
				ErrInvalidEncoding, m)
		}
	}
	if epoch > 0 {
		// Re-derive the current mapping by coarsening the base epoch
		// times — the exact float path a live collapse takes, so decoded
		// sketches merge bit-identically with their originals.
		c := m.(mapping.Coarsenable)
		for i := 0; i < epoch; i++ {
			next, cerr := c.Coarsen()
			if cerr != nil {
				return mappingCache{}, fmt.Errorf("%w: coarsening mapping to epoch %d: %v", ErrInvalidEncoding, epoch, cerr)
			}
			var ok bool
			c, ok = next.(mapping.Coarsenable)
			if !ok {
				return mappingCache{}, fmt.Errorf("%w: mapping %v lost coarsenability at epoch %d",
					ErrInvalidEncoding, next, i+1)
			}
		}
		m = c
	}
	if uniformMaxBins == 0 && epoch == 0 {
		baseMapping = nil
	}
	return mappingCache{mapping: m, base: baseMapping, uniformBins: uniformMaxBins, epoch: epoch}, nil
}

// DecodeAndMergeWith decodes a serialized sketch and merges it into s in
// one step, the common operation of an aggregation service consuming
// sketches from many agents. Like Decode, it auto-detects the wire
// format, so a single aggregate can consume native and DataDog payloads
// interchangeably. It is all or nothing: a payload Decode rejects, or
// whose mapping cannot merge with s's, leaves s unchanged.
//
// The built-in codecs decode into a pooled scratch sketch whose stores
// keep their arrays between calls, so after warm-up a payload costs no
// allocation; payloads of custom codecs go through their Decode.
func (s *DDSketch) DecodeAndMergeWith(data []byte) error {
	c, err := DetectCodec(data)
	if err != nil {
		return err
	}
	return mergeEncoded(s, c, data)
}
