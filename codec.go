package ddsketch

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"

	"github.com/ddsketch-go/ddsketch/encoding"
	"github.com/ddsketch-go/ddsketch/mapping"
	"github.com/ddsketch-go/ddsketch/store"
)

// A Codec is one wire format a sketch can be serialized to and
// reconstructed from. Two codecs ship with the package:
//
//   - NativeCodec: this module's self-describing binary format
//     (versions 1 and 2, magic "DDS"), the format Encode/Decode have
//     always spoken. Lossless: mapping, store types, collapse lineage,
//     bucket counts, and the exact min/max/sum statistics all
//     round-trip.
//   - DataDogCodec: the proto3 schema defined by DataDog's reference
//     implementation (sketches-go), the de-facto public interchange
//     format real DataDog agents emit. Bucket counts round-trip
//     exactly; store types, collapse lineage, and the exact statistics
//     do not (see codec_datadog.go and docs/WIRE_FORMAT.md for the
//     precise lossiness rules).
//
// Both formats are specified byte-by-byte in docs/WIRE_FORMAT.md, with
// hex examples pinned to the code by TestWireFormatDocExamples.
//
// Codecs are consulted in registration order by Decode and
// DecodeAndMergeWith, which auto-detect the format through Sniff; the
// ddserver ingest path additionally negotiates on the HTTP
// Content-Type using ContentType.
type Codec interface {
	// Name is the codec's short selector ("native", "datadog"), used
	// by EncodeAs and command-line flags.
	Name() string

	// ContentType is the MIME media type the codec answers to in HTTP
	// content negotiation.
	ContentType() string

	// Sniff reports whether data plausibly starts a payload of this
	// codec's format. Sniffing inspects only leading bytes — a true
	// return does not promise Decode will succeed, only that the
	// payload is this codec's to reject.
	Sniff(data []byte) bool

	// Encode serializes the sketch in this codec's wire format.
	Encode(s *DDSketch) ([]byte, error)

	// Decode reconstructs a sketch from this codec's wire format.
	// Malformed or hostile input fails with an error wrapping
	// ErrInvalidEncoding (or ErrUnsupportedVersion), never a panic.
	Decode(data []byte) (*DDSketch, error)
}

// ErrUnknownCodec is returned by EncodeAs (and codec lookups) for a
// format name no registered codec answers to.
var ErrUnknownCodec = errors.New("ddsketch: unknown codec")

// codecs holds the registered codecs in registration (and therefore
// sniffing) order. The two built-in codecs have disjoint sniffs: a
// native payload always starts with the magic 'D' (0x44), which is not
// a valid leading proto3 tag of the DataDog schema.
var codecs = []Codec{NativeCodec, DataDogCodec}

// RegisterCodec adds a codec to the registry consulted by Decode,
// DecodeAndMergeWith, and DetectCodec. Registration is not safe for
// concurrent use with decoding; register custom codecs during program
// initialization. The codec's name and content type must not collide
// with an already-registered codec's.
func RegisterCodec(c Codec) error {
	for _, existing := range codecs {
		if existing.Name() == c.Name() {
			return fmt.Errorf("ddsketch: codec %q already registered", c.Name())
		}
		if existing.ContentType() == c.ContentType() {
			return fmt.Errorf("ddsketch: content type %q already registered (codec %q)",
				c.ContentType(), existing.Name())
		}
	}
	codecs = append(codecs, c)
	return nil
}

// Codecs returns the registered codecs in sniffing order. The returned
// slice is a copy; mutating it does not affect the registry.
func Codecs() []Codec {
	return append([]Codec(nil), codecs...)
}

// CodecByName returns the registered codec with the given name, or nil
// if none has it.
func CodecByName(name string) Codec {
	for _, c := range codecs {
		if c.Name() == name {
			return c
		}
	}
	return nil
}

// CodecByContentType returns the registered codec answering to the
// given MIME media type, ignoring any parameters ("; charset=..."),
// or nil if none does.
func CodecByContentType(contentType string) Codec {
	mediaType, _, _ := strings.Cut(contentType, ";")
	mediaType = strings.ToLower(strings.TrimSpace(mediaType))
	for _, c := range codecs {
		if c.ContentType() == mediaType {
			return c
		}
	}
	return nil
}

// DetectCodec returns the first registered codec whose Sniff accepts
// data. When no codec recognizes the leading bytes, it returns an
// error wrapping ErrInvalidEncoding that names the candidates that
// were consulted, so a caller shipping the wrong format gets a
// diagnosable rejection instead of a bare "bad magic".
func DetectCodec(data []byte) (Codec, error) {
	for _, c := range codecs {
		if c.Sniff(data) {
			return c, nil
		}
	}
	names := make([]string, len(codecs))
	for i, c := range codecs {
		names[i] = c.Name()
	}
	prefix := data
	if len(prefix) > 8 {
		prefix = prefix[:8]
	}
	return nil, fmt.Errorf("%w: leading bytes [% x] match no registered codec (candidates: %s)",
		ErrInvalidEncoding, prefix, strings.Join(names, ", "))
}

// EncodeAs serializes the sketch in the named codec's wire format:
// "native" for this module's lossless binary format (what Encode
// emits), "datadog" for the DataDog sketches-go proto3 interchange
// format. It fails with ErrUnknownCodec for unregistered names.
func (s *DDSketch) EncodeAs(format string) ([]byte, error) {
	c := CodecByName(format)
	if c == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownCodec, format)
	}
	return c.Encode(s)
}

// nativeCodec is the Codec face of the module's own binary format; the
// encode/decode implementations live in serialize.go.
type nativeCodec struct{}

// NativeCodec is the module's self-describing binary format (magic
// "DDS", versions 1 and 2). It is the default and only lossless codec:
// mapping, store types, uniform-collapse lineage, bucket counts, and
// the exact statistics all round-trip bit-compatibly.
var NativeCodec Codec = nativeCodec{}

func (nativeCodec) Name() string        { return "native" }
func (nativeCodec) ContentType() string { return "application/x-ddsketch" }

// Sniff accepts payloads opening with the native magic "DDS".
func (nativeCodec) Sniff(data []byte) bool {
	return len(data) >= len(serializationMagic) &&
		data[0] == serializationMagic[0] &&
		data[1] == serializationMagic[1] &&
		data[2] == serializationMagic[2]
}

func (nativeCodec) Encode(s *DDSketch) ([]byte, error) { return s.Encode(), nil }

func (nativeCodec) Decode(data []byte) (*DDSketch, error) { return decodeFresh(nativeCodec{}, data) }

// scratchDecoder is implemented by the built-in codecs. decodeInto
// resets every field of dst.sketch from data — mapping and collapse
// lineage, store types and bin limits, bins and statistics — and
// reuses dst's stores and buffers, so that decoding a payload shaped
// like the previous one allocates nothing. It accepts and rejects
// exactly the payloads Decode does, with the same errors. After an
// error dst.sketch is not a usable sketch, but dst may be decoded into
// again.
type scratchDecoder interface {
	decodeInto(dst *scratchSketch, data []byte) error
}

// scratchSketch is a sketch the built-in codecs decode into, together
// with the state they keep between payloads.
type scratchSketch struct {
	sketch DDSketch
	// reader is the native decoder's cursor, kept here so that handing
	// it to the store decoder does not allocate one per payload.
	reader encoding.Reader
	// Each codec caches its own mapping, so that a scratch alternating
	// between native and DataDog payloads keeps both.
	nativeMapping, ddMapping mappingCache
	// Each codec keeps its own stores, positive first, so that a
	// scratch alternating between native payloads (often collapsing
	// stores) and DataDog ones (always dense) reuses both sets.
	nativeStores [2]store.Store
	ddStores     [2]*store.DenseStore
	// ddFields and ddBins are the DataDog decoder's store bodies and
	// collected bins, positive store first.
	ddFields [2][][]byte
	ddBins   [2][]ddBin
}

// storeSides names the stores in decoder errors, positive first.
var storeSides = [2]string{"positive", "negative"}

// decodeFresh decodes data into a new sketch. It borrows a pooled
// scratch sketch for the decoder's buffers and cached mappings, but
// decodes into new stores, which the returned sketch owns.
func decodeFresh(d scratchDecoder, data []byte) (*DDSketch, error) {
	sc := scratchPool.Get().(*scratchSketch)
	native, dd := sc.nativeStores, sc.ddStores
	sc.nativeStores, sc.ddStores = [2]store.Store{}, [2]*store.DenseStore{}
	err := d.decodeInto(sc, data)
	s := sc.sketch
	sc.sketch = DDSketch{}
	sc.nativeStores, sc.ddStores = native, dd
	sc.release()
	if err != nil {
		return nil, err
	}
	return &s, nil
}

// scratchPool holds scratch sketches for mergeEncoded and decodeFresh.
var scratchPool = sync.Pool{New: func() any { return new(scratchSketch) }}

// mergeEncoded decodes payload with c and merges it into dst. The
// built-in codecs decode into a pooled scratch sketch; other codecs
// fall back to their Decode. dst's MergeWith is the only merge, so a
// rejected payload or a mapping conflict leaves dst unchanged.
func mergeEncoded(dst Sketch, c Codec, payload []byte) error {
	d, ok := c.(scratchDecoder)
	if !ok {
		other, err := c.Decode(payload)
		if err != nil {
			return err
		}
		return dst.MergeWith(other)
	}
	sc := scratchPool.Get().(*scratchSketch)
	err := d.decodeInto(sc, payload)
	if err == nil {
		err = dst.MergeWith(&sc.sketch)
	}
	sc.release()
	return err
}

// release returns sc to the pool unless it grew past what an honest
// payload needs.
func (sc *scratchSketch) release() {
	if sc.poolable() {
		scratchPool.Put(sc)
	}
}

// scratchBins is the bin limit a pooled scratch sketch is sized for:
// the paper's default bound (§2.2), which covers 80 µs to a year at
// α = 0.01. It is a constant, not a limit read from the payload, which
// an attacker writes.
const scratchBins = 2048

// poolable reports whether sc may go back to the pool: each store array
// holds at most twice scratchBins buckets plus padding, and each
// DataDog buffer at most twice scratchBins entries. A hostile payload
// can grow them far past that; such a scratch is left to the garbage
// collector, as is one that decoded an honest payload of more bins,
// whose next payload then allocates as Decode does.
func (sc *scratchSketch) poolable() bool {
	// 8 bytes a bin, plus the array padding and the fixed fields.
	const maxStoreBytes = 16*scratchBins + 1024
	for i := range 2 {
		if st := sc.nativeStores[i]; st != nil && st.SizeBytes() > maxStoreBytes {
			return false
		}
		if st := sc.ddStores[i]; st != nil && st.SizeBytes() > maxStoreBytes {
			return false
		}
		if cap(sc.ddBins[i]) > 2*scratchBins+64 || cap(sc.ddFields[i]) > 2*scratchBins+64 {
			return false
		}
	}
	return true
}

// mappingCache remembers the payload bytes the last decoded mapping
// came from. Decoding a mapping is a pure function of those bytes, so
// a payload repeating them reuses the decoded mapping instead of
// building (and, for a collapsed lineage, re-coarsening) a new one.
// Mappings are immutable, so the sketches Decode returns may share one.
type mappingCache struct {
	key         []byte
	mapping     mapping.IndexMapping
	base        mapping.IndexMapping
	uniformBins int
	epoch       int
	indexOffset int // DataDog only
}

// maxMappingKey bounds the cached key. Real mapping encodings take
// well under 32 bytes; a longer one (unknown DataDog fields, say) is
// decoded every time rather than kept.
const maxMappingKey = 64

// set caches m, decoded from key; keys longer than maxMappingKey
// are not kept.
func (c *mappingCache) set(key []byte, m mappingCache) {
	m.key = c.key[:0]
	if len(key) <= maxMappingKey {
		m.key = append(m.key, key...)
	}
	*c = m
}

// hitPrefix reports whether data starts with the cached key.
func (c *mappingCache) hitPrefix(data []byte) bool {
	return len(c.key) > 0 && bytes.HasPrefix(data, c.key)
}

// hit reports whether data is the cached key.
func (c *mappingCache) hit(data []byte) bool {
	return len(c.key) > 0 && bytes.Equal(data, c.key)
}
