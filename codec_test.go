package ddsketch

import (
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/ddsketch-go/ddsketch/encoding"
	"github.com/ddsketch-go/ddsketch/mapping"
	"github.com/ddsketch-go/ddsketch/store"
)

// --- registry ---------------------------------------------------------

func TestCodecRegistryLookup(t *testing.T) {
	if got := CodecByName("native"); got != NativeCodec {
		t.Errorf("CodecByName(native) = %v", got)
	}
	if got := CodecByName("datadog"); got != DataDogCodec {
		t.Errorf("CodecByName(datadog) = %v", got)
	}
	if got := CodecByName("msgpack"); got != nil {
		t.Errorf("CodecByName(msgpack) = %v, want nil", got)
	}
	if got := CodecByContentType("application/x-ddsketch"); got != NativeCodec {
		t.Errorf("CodecByContentType(x-ddsketch) = %v", got)
	}
	// Parameters and case must not defeat the lookup.
	if got := CodecByContentType("Application/X-Protobuf; charset=utf-8"); got != DataDogCodec {
		t.Errorf("CodecByContentType with parameters = %v", got)
	}
	if got := CodecByContentType("application/json"); got != nil {
		t.Errorf("CodecByContentType(json) = %v, want nil", got)
	}
	names := make([]string, 0, 2)
	for _, c := range Codecs() {
		names = append(names, c.Name())
	}
	if len(names) < 2 || names[0] != "native" || names[1] != "datadog" {
		t.Errorf("Codecs() order = %v", names)
	}
}

// stubCodec lets registration tests exercise collision rules without
// perturbing the global registry permanently.
type stubCodec struct{ name, contentType string }

func (c stubCodec) Name() string                          { return c.name }
func (c stubCodec) ContentType() string                   { return c.contentType }
func (c stubCodec) Sniff(data []byte) bool                { return false }
func (c stubCodec) Encode(s *DDSketch) ([]byte, error)    { return nil, nil }
func (c stubCodec) Decode(data []byte) (*DDSketch, error) { return nil, ErrInvalidEncoding }

func TestRegisterCodec(t *testing.T) {
	saved := codecs
	defer func() { codecs = saved }()

	if err := RegisterCodec(stubCodec{"native", "application/x-other"}); err == nil {
		t.Error("registering a duplicate name succeeded")
	}
	if err := RegisterCodec(stubCodec{"other", "application/x-protobuf"}); err == nil {
		t.Error("registering a duplicate content type succeeded")
	}
	if err := RegisterCodec(stubCodec{"other", "application/x-other"}); err != nil {
		t.Fatalf("registering a fresh codec: %v", err)
	}
	if got := CodecByName("other"); got == nil {
		t.Error("registered codec not found by name")
	}
}

func TestEncodeAsUnknownFormat(t *testing.T) {
	s, err := New(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.EncodeAs("msgpack"); !errors.Is(err, ErrUnknownCodec) {
		t.Errorf("EncodeAs(msgpack) error = %v, want ErrUnknownCodec", err)
	}
}

func TestDetectCodec(t *testing.T) {
	s, err := New(0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := s.Add(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	native := s.Encode()
	datadog, err := s.EncodeAs("datadog")
	if err != nil {
		t.Fatal(err)
	}
	if c, err := DetectCodec(native); err != nil || c != NativeCodec {
		t.Errorf("DetectCodec(native payload) = %v, %v", c, err)
	}
	if c, err := DetectCodec(datadog); err != nil || c != DataDogCodec {
		t.Errorf("DetectCodec(datadog payload) = %v, %v", c, err)
	}
}

// TestDecodeUnknownLeadingBytes is the regression test for the sniffing
// bugfix: Decode used to fail on non-native bytes with a bare "bad
// magic"; it must now name the codec candidates it tried.
func TestDecodeUnknownLeadingBytes(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		{},
		{0xff},
		{0x00, 0x01, 0x02},
		[]byte("{\"not\": \"a sketch\"}"),
		[]byte("DXS\x01"), // near-native magic
	} {
		_, err := Decode(data)
		if !errors.Is(err, ErrInvalidEncoding) {
			t.Fatalf("Decode(% x) error = %v, want ErrInvalidEncoding", data, err)
		}
		for _, name := range []string{"native", "datadog"} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("Decode(% x) error %q does not name candidate codec %q", data, err, name)
			}
		}
	}
}

// --- DataDog round trips ---------------------------------------------

// sketchBins flattens a sketch's stores into signed-index → count maps
// (negative store indexes negated and offset to avoid colliding with
// positive ones) for exact bin-level comparison.
func sketchBins(s *DDSketch) map[[2]int]float64 {
	bins := make(map[[2]int]float64)
	s.positive.ForEach(func(index int, count float64) bool {
		bins[[2]int{1, index}] = count
		return true
	})
	s.negative.ForEach(func(index int, count float64) bool {
		bins[[2]int{-1, index}] = count
		return true
	})
	return bins
}

func assertSameBins(t *testing.T, got, want *DDSketch) {
	t.Helper()
	gotBins, wantBins := sketchBins(got), sketchBins(want)
	if len(gotBins) != len(wantBins) {
		t.Fatalf("bin count %d != %d", len(gotBins), len(wantBins))
	}
	for k, wc := range wantBins {
		if gc, ok := gotBins[k]; !ok || gc != wc {
			t.Errorf("bin %v: count %v, want %v", k, gotBins[k], wc)
		}
	}
	if got.zeroCount != want.zeroCount {
		t.Errorf("zero count %v, want %v", got.zeroCount, want.zeroCount)
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// TestDataDogRoundTripBins: native→DataDog→native preserves every bin
// count exactly, for every mapping kind, both stores, the zero bucket,
// and both schema store encodings (dense data → contiguous, scattered
// data → sparse map entries).
func TestDataDogRoundTripBins(t *testing.T) {
	builds := map[string]func() (*DDSketch, error){
		"log":       func() (*DDSketch, error) { return New(0.01) },
		"coarse":    func() (*DDSketch, error) { return New(0.05) },
		"collapsed": func() (*DDSketch, error) { return NewCollapsing(0.02, 64) },
		"linear": func() (*DDSketch, error) {
			m, err := mapping.NewLinearlyInterpolated(0.01)
			if err != nil {
				return nil, err
			}
			return NewWithConfig(m, store.DenseStoreProvider(), store.DenseStoreProvider()), nil
		},
		"quadratic": func() (*DDSketch, error) {
			m, err := mapping.NewQuadraticallyInterpolated(0.02)
			if err != nil {
				return nil, err
			}
			return NewWithConfig(m, store.DenseStoreProvider(), store.DenseStoreProvider()), nil
		},
		"cubic": func() (*DDSketch, error) {
			m, err := mapping.NewCubicallyInterpolated(0.01)
			if err != nil {
				return nil, err
			}
			return NewWithConfig(m, store.DenseStoreProvider(), store.DenseStoreProvider()), nil
		},
	}
	fills := map[string]func(s *DDSketch) error{
		"dense-positive": func(s *DDSketch) error {
			for i := 1; i <= 500; i++ {
				if err := s.Add(1 + float64(i)/100); err != nil {
					return err
				}
			}
			return nil
		},
		"scattered-mixed": func(s *DDSketch) error {
			for _, v := range []float64{1e-6, 3.5, 42, 1e4, 2e8, -7, -1e5} {
				if err := s.AddWithCount(v, 2.5); err != nil {
					return err
				}
			}
			return s.AddWithCount(0, 3)
		},
		"empty": func(s *DDSketch) error { return nil },
	}
	for buildName, build := range builds {
		for fillName, fill := range fills {
			t.Run(buildName+"/"+fillName, func(t *testing.T) {
				s, err := build()
				if err != nil {
					t.Fatal(err)
				}
				if err := fill(s); err != nil {
					t.Fatal(err)
				}
				data, err := s.EncodeAs("datadog")
				if err != nil {
					t.Fatal(err)
				}
				decoded, err := Decode(data)
				if err != nil {
					t.Fatal(err)
				}
				assertSameBins(t, decoded, s)
				if relDiff(decoded.Count(), s.Count()) > 1e-12 {
					t.Errorf("count %v, want %v", decoded.Count(), s.Count())
				}
				if s.IsEmpty() {
					if !decoded.IsEmpty() {
						t.Fatal("decoded sketch not empty")
					}
					return
				}
				// The schema cannot carry exact sum/min/max; the documented
				// reconstruction rule is sum = Σ ±count·Value(index) over the
				// bins (which is within α of the exact sum unless a store has
				// collapsed, in which case folded weight is revalued at its
				// folded bucket). Assert the rule itself, computed from the
				// original's bins.
				wantSum := 0.0
				s.positive.ForEach(func(index int, count float64) bool {
					wantSum += count * s.mapping.Value(index)
					return true
				})
				s.negative.ForEach(func(index int, count float64) bool {
					wantSum -= count * s.mapping.Value(index)
					return true
				})
				gotSum, _ := decoded.Sum()
				if relDiff(gotSum, wantSum) > 1e-9 {
					t.Errorf("sum %v, want reconstructed %v", gotSum, wantSum)
				}
				alpha := s.mapping.RelativeAccuracy()
				for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
					want, err := s.Quantile(q)
					if err != nil {
						t.Fatal(err)
					}
					got, err := decoded.Quantile(q)
					if err != nil {
						t.Fatal(err)
					}
					if relDiff(got, want) > 2*alpha {
						t.Errorf("q%g: %v, want %v (±%g)", q, got, want, 2*alpha)
					}
				}
				// A second export must be byte-identical: the encoding is
				// deterministic regardless of backing store type.
				again, err := decoded.EncodeAs("datadog")
				if err != nil {
					t.Fatal(err)
				}
				if string(again) != string(data) {
					t.Error("re-encoding a decoded sketch changed the bytes")
				}
			})
		}
	}
}

// TestDataDogUniformCollapseFlattens asserts the documented lossiness
// rule exactly: exporting a uniform-collapsed sketch writes only the
// coarsened γ, so the decoded sketch has no collapse lineage — epoch 0,
// no bin budget, no base mapping — while bins and γ survive intact and
// quantiles stay within the coarsened accuracy α'.
func TestDataDogUniformCollapseFlattens(t *testing.T) {
	s, err := NewUniformCollapsing(0.01, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5000; i++ {
		if err := s.Add(float64(i) * float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.CollapseEpoch() == 0 {
		t.Fatal("test sketch never collapsed; widen the data")
	}
	data, err := s.EncodeAs("datadog")
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.epoch != 0 {
		t.Errorf("decoded epoch = %d, want 0 (lineage must flatten)", decoded.epoch)
	}
	if decoded.uniformMaxBins != 0 {
		t.Errorf("decoded uniform bin budget = %d, want 0", decoded.uniformMaxBins)
	}
	if decoded.baseMapping != nil {
		t.Errorf("decoded base mapping = %v, want nil", decoded.baseMapping)
	}
	if g, w := decoded.mapping.Gamma(), s.mapping.Gamma(); relDiff(g, w) > 1e-12 {
		t.Errorf("decoded γ = %v, want %v", g, w)
	}
	assertSameBins(t, decoded, s)
	alphaPrime := s.mapping.RelativeAccuracy()
	for _, q := range []float64{0.1, 0.5, 0.99} {
		want, _ := s.Quantile(q)
		got, _ := decoded.Quantile(q)
		if relDiff(got, want) > 2*alphaPrime {
			t.Errorf("q%g: %v, want %v within α'=%g", q, got, want, alphaPrime)
		}
	}
	// The flattened sketch is a plain sketch: native round trip restores
	// it bit-compatibly, with no v2 lineage resurrected.
	renative, err := Decode(decoded.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if renative.epoch != 0 || renative.uniformMaxBins != 0 {
		t.Errorf("native re-round-trip resurrected lineage: epoch %d, budget %d",
			renative.epoch, renative.uniformMaxBins)
	}
}

// --- retired store tags ----------------------------------------------

// legacyStorePayload hand-builds a native v1 payload — α = 1%
// logarithmic mapping, values 1, 2, 4 and a weight-2 −3 — writing the
// given type tags for the positive and negative store. Tags 4 (sparse)
// and 5 (buffered paginated) carry no parameters, so the bytes differ
// from the dense-tagged (1) payload only in the tag bytes.
func legacyStorePayload(t *testing.T, positiveTag, negativeTag byte) []byte {
	t.Helper()
	m, err := mapping.NewLogarithmic(0.01)
	if err != nil {
		t.Fatal(err)
	}
	w := encoding.NewWriter(64)
	for _, b := range []byte("DDS\x01") { // magic, version 1
		w.Byte(b)
	}
	m.Encode(w)
	w.Varfloat64(0)  // zeroCount
	w.Varfloat64(-3) // min
	w.Varfloat64(4)  // max
	w.Varfloat64(1)  // sum: 1 + 2 + 4 − 2·3
	w.Byte(positiveTag)
	w.Uvarint(3)
	prev := 0
	for _, v := range []float64{1, 2, 4} {
		w.Varint(int64(m.Index(v) - prev))
		w.Varfloat64(1)
		prev = m.Index(v)
	}
	w.Byte(negativeTag)
	w.Uvarint(1)
	w.Varint(int64(m.Index(3)))
	w.Varfloat64(2)
	return w.Bytes()
}

// TestDecodeRetiredStoreTags: payloads written with the retired sparse
// (4) and buffered-paginated (5) store tags, on either store, still
// decode — into dense stores holding exactly the bins, and answering
// exactly the quantiles, of the dense-tagged payload.
func TestDecodeRetiredStoreTags(t *testing.T) {
	const dense, sparse, paginated = 1, 4, 5
	want, err := Decode(legacyStorePayload(t, dense, dense))
	if err != nil {
		t.Fatal(err)
	}
	qs := []float64{0, 0.2, 0.5, 0.8, 1}
	wantQuantiles, err := want.Quantiles(qs)
	if err != nil {
		t.Fatal(err)
	}
	for name, tags := range map[string][2]byte{
		"sparse-positive":    {sparse, dense},
		"sparse-negative":    {dense, sparse},
		"paginated-positive": {paginated, dense},
		"paginated-negative": {dense, paginated},
	} {
		t.Run(name, func(t *testing.T) {
			got, err := Decode(legacyStorePayload(t, tags[0], tags[1]))
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			for side, st := range map[string]store.Store{"positive": got.positive, "negative": got.negative} {
				if _, ok := st.(*store.DenseStore); !ok {
					t.Errorf("%s store decoded to %T, want *store.DenseStore", side, st)
				}
			}
			assertSameBins(t, got, want)
			gotQuantiles, err := got.Quantiles(qs)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range qs {
				if gotQuantiles[i] != wantQuantiles[i] {
					t.Errorf("q=%g: %g, want %g", q, gotQuantiles[i], wantQuantiles[i])
				}
			}
		})
	}
}

// --- truncation and hostile inputs -----------------------------------

// mappingLastPayload reorders a canonical encoding so the mapping is
// the final field. Proto decoders accept any field order, and with the
// mapping last, *every* strict prefix of the payload is invalid — it
// either cuts a field mid-byte or lacks the mapping — which is what
// makes exhaustive prefix assertions possible.
func mappingLastPayload(t *testing.T, s *DDSketch) []byte {
	t.Helper()
	mappingMsg, err := ddEncodeMapping(s.mapping)
	if err != nil {
		t.Fatal(err)
	}
	positive, err := ddEncodeStore(s.positive)
	if err != nil {
		t.Fatal(err)
	}
	negative, err := ddEncodeStore(s.negative)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	if len(positive) > 0 {
		out = ddAppendBytes(out, ddFieldPositive, positive)
	}
	if len(negative) > 0 {
		out = ddAppendBytes(out, ddFieldNegative, negative)
	}
	if s.zeroCount != 0 {
		out = ddAppendDouble(out, ddFieldZeroCount, s.zeroCount)
	}
	return ddAppendBytes(out, ddFieldMapping, mappingMsg)
}

// TestDataDogTruncatedPayloads: every strict prefix of a valid DataDog
// encoding with a trailing mapping errors with ErrInvalidEncoding —
// never panics, never half-decodes. Prefixes of the canonical
// (mapping-first) encoding are additionally asserted total: they either
// error or decode to a sketch that answers queries without panicking
// (a prefix that cuts exactly at a field boundary is a smaller valid
// message; proto offers no framing to detect that).
func TestDataDogTruncatedPayloads(t *testing.T) {
	s, err := New(0.02)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 200; i++ {
		if err := s.Add(float64(i)); err != nil {
			t.Fatal(err)
		}
		if err := s.Add(-1 / float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddWithCount(0, 2); err != nil {
		t.Fatal(err)
	}

	strict := mappingLastPayload(t, s)
	if _, err := Decode(strict); err != nil {
		t.Fatalf("mapping-last payload must decode: %v", err)
	}
	for cut := 0; cut < len(strict); cut++ {
		if _, err := Decode(strict[:cut]); !errors.Is(err, ErrInvalidEncoding) {
			t.Fatalf("prefix [:%d] error = %v, want ErrInvalidEncoding", cut, err)
		}
	}

	canonical, err := s.EncodeAs("datadog")
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(canonical); cut++ {
		decoded, err := Decode(canonical[:cut])
		if err != nil {
			if !errors.Is(err, ErrInvalidEncoding) {
				t.Fatalf("prefix [:%d] error = %v, want ErrInvalidEncoding", cut, err)
			}
			continue
		}
		_ = decoded.Count()
		_ = decoded.NumBins()
		if !decoded.IsEmpty() {
			if _, err := decoded.Quantile(0.5); err != nil {
				t.Fatalf("prefix [:%d]: decoded sketch cannot answer: %v", cut, err)
			}
		}
	}
}

// validMappingMsg is a well-formed IndexMapping submessage (γ of
// α=0.01, logarithmic) for composing hostile payloads around.
func validMappingMsg(t *testing.T) []byte {
	t.Helper()
	m, err := mapping.NewLogarithmic(0.01)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := ddEncodeMapping(m)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// TestDataDogHostileInputs: every grammar-level and semantics-level
// attack the decoder guards against must be rejected with
// ErrInvalidEncoding. None may panic or trigger a large allocation.
func TestDataDogHostileInputs(t *testing.T) {
	mappingField := func(t *testing.T, body []byte) []byte {
		return ddAppendBytes(nil, ddFieldMapping, body)
	}
	double := func(v float64) []byte {
		b := ddAppendDouble(nil, 1, v)
		return b[1:] // strip the tag; caller re-tags
	}
	_ = double

	sparseBin := func(index int32, count float64) []byte {
		entry := ddAppendTag(nil, 1, ddWireVarint)
		entry = ddAppendUvarint(entry, ddZigzag32(index))
		entry = ddAppendDouble(entry, 2, count)
		return ddAppendBytes(nil, ddStoreFieldBinCounts, entry)
	}
	gammaMsg := func(gamma float64) []byte {
		return ddAppendDouble(nil, ddMappingFieldGamma, gamma)
	}

	cases := map[string][]byte{
		"no mapping at all":               ddAppendDouble(nil, ddFieldZeroCount, 1),
		"empty mapping message (gamma 0)": mappingField(t, nil),
		"gamma NaN":                       mappingField(t, gammaMsg(math.NaN())),
		"gamma 1":                         mappingField(t, gammaMsg(1)),
		"gamma -2":                        mappingField(t, gammaMsg(-2)),
		"gamma +Inf":                      mappingField(t, gammaMsg(math.Inf(1))),
		"unknown interpolation": mappingField(t, append(gammaMsg(1.02),
			ddAppendUvarint(ddAppendTag(nil, ddMappingFieldInterpolation, ddWireVarint), 7)...)),
		"fractional index offset": mappingField(t, append(gammaMsg(1.02),
			ddAppendDouble(nil, ddMappingFieldIndexOffset, 0.5)...)),
		"huge index offset": mappingField(t, append(gammaMsg(1.02),
			ddAppendDouble(nil, ddMappingFieldIndexOffset, 1e300)...)),
		"NaN index offset": mappingField(t, append(gammaMsg(1.02),
			ddAppendDouble(nil, ddMappingFieldIndexOffset, math.NaN())...)),
		"negative zero count": append(mappingField(t, validMappingMsg(t)),
			ddAppendDouble(nil, ddFieldZeroCount, -1)...),
		"NaN zero count": append(mappingField(t, validMappingMsg(t)),
			ddAppendDouble(nil, ddFieldZeroCount, math.NaN())...),
		"Inf zero count": append(mappingField(t, validMappingMsg(t)),
			ddAppendDouble(nil, ddFieldZeroCount, math.Inf(1))...),
		"NaN bin count": append(mappingField(t, validMappingMsg(t)),
			ddAppendBytes(nil, ddFieldPositive, sparseBin(3, math.NaN()))...),
		"negative bin count": append(mappingField(t, validMappingMsg(t)),
			ddAppendBytes(nil, ddFieldPositive, sparseBin(3, -5))...),
		"Inf bin count": append(mappingField(t, validMappingMsg(t)),
			ddAppendBytes(nil, ddFieldPositive, sparseBin(3, math.Inf(1)))...),
		// Two sparse bins 2^30 apart: 12 bytes of payload that would
		// demand a multi-gigabyte dense array without the span check.
		"hostile span": append(mappingField(t, validMappingMsg(t)),
			ddAppendBytes(nil, ddFieldPositive,
				append(sparseBin(0, 1), sparseBin(1<<30, 1)...))...),
		"packed run not multiple of 8": append(mappingField(t, validMappingMsg(t)),
			ddAppendBytes(nil, ddFieldPositive,
				ddAppendBytes(nil, ddStoreFieldContiguousCounts, []byte{1, 2, 3}))...),
		"declared length beyond input": {0x0a, 0xff, 0x01},
		"field number zero":            {0x00},
		"group wire type":              {0x0b},
		"varint longer than 10 bytes": {0x08, 0xff, 0xff, 0xff, 0xff, 0xff,
			0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"sint32 overflowing 32 bits": append(mappingField(t, validMappingMsg(t)),
			ddAppendBytes(nil, ddFieldPositive,
				ddAppendBytes(nil, ddStoreFieldBinCounts,
					append(ddAppendUvarint(ddAppendTag(nil, 1, ddWireVarint), 1<<40),
						ddAppendDouble(nil, 2, 1)...)))...),
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := DataDogCodec.Decode(payload); !errors.Is(err, ErrInvalidEncoding) {
				t.Errorf("Decode = %v, want ErrInvalidEncoding", err)
			}
		})
	}
}

// TestDataDogForeignEncodings: shapes this module's encoder never emits
// but conforming proto encoders may — out-of-order fields, split
// stores, explicit zero counts, unknown fields, a non-zero integral
// indexOffset — must all decode to the expected contents.
func TestDataDogForeignEncodings(t *testing.T) {
	m, err := mapping.NewLogarithmic(0.01)
	if err != nil {
		t.Fatal(err)
	}
	mappingMsg, err := ddEncodeMapping(m)
	if err != nil {
		t.Fatal(err)
	}
	idx := m.Index(42.0)

	t.Run("split store, offset before run, zero padding", func(t *testing.T) {
		// contiguousBinIndexOffset first, then the packed run in two
		// chunks with explicit zero padding: counts {idx: 2, idx+2: 3}.
		storeMsg := ddAppendUvarint(ddAppendTag(nil, ddStoreFieldContiguousOffset, ddWireVarint), ddZigzag32(int32(idx)))
		packed1 := make([]byte, 8)
		packed2 := make([]byte, 16)
		bits := math.Float64bits(2)
		for i := 0; i < 8; i++ {
			packed1[i] = byte(bits >> (8 * i))
		}
		bits = math.Float64bits(3)
		for i := 0; i < 8; i++ {
			packed2[8+i] = byte(bits >> (8 * i))
		}
		storeMsg = ddAppendBytes(storeMsg, ddStoreFieldContiguousCounts, packed1)
		storeMsg = ddAppendBytes(storeMsg, ddStoreFieldContiguousCounts, packed2)

		payload := ddAppendBytes(nil, ddFieldPositive, storeMsg)
		payload = ddAppendBytes(payload, ddFieldMapping, mappingMsg)
		s, err := Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Count(); got != 5 {
			t.Errorf("count = %v, want 5", got)
		}
		if got := s.NumBins(); got != 2 {
			t.Errorf("bins = %d, want 2 (zero padding must be skipped)", got)
		}
	})

	t.Run("integral indexOffset folds into bins", func(t *testing.T) {
		const offset = 100
		shiftedMapping := append(append([]byte(nil), mappingMsg...),
			ddAppendDouble(nil, ddMappingFieldIndexOffset, offset)...)
		entry := ddAppendTag(nil, 1, ddWireVarint)
		entry = ddAppendUvarint(entry, ddZigzag32(int32(idx+offset)))
		entry = ddAppendDouble(entry, 2, 7)
		payload := ddAppendBytes(nil, ddFieldMapping, shiftedMapping)
		payload = ddAppendBytes(payload, ddFieldPositive,
			ddAppendBytes(nil, ddStoreFieldBinCounts, entry))
		s, err := Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		var gotIdx int
		s.positive.ForEach(func(index int, count float64) bool {
			gotIdx = index
			return false
		})
		if gotIdx != idx {
			t.Errorf("decoded index = %d, want %d (wire index %d shifted by −%d)",
				gotIdx, idx, idx+offset, offset)
		}
		q, err := s.Quantile(0.5)
		if err != nil {
			t.Fatal(err)
		}
		if relDiff(q, 42) > 0.01 {
			t.Errorf("median = %v, want ≈42", q)
		}
	})

	t.Run("unknown fields are skipped", func(t *testing.T) {
		payload := ddAppendBytes(nil, ddFieldMapping, mappingMsg)
		payload = ddAppendBytes(payload, 9, []byte("future"))                 // unknown len-delim
		payload = ddAppendUvarint(ddAppendTag(payload, 10, ddWireVarint), 5)  // unknown varint
		payload = append(ddAppendTag(payload, 11, ddWireFixed32), 1, 2, 3, 4) // unknown fixed32
		payload = ddAppendDouble(payload, ddFieldZeroCount, 4)
		s, err := Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Count(); got != 4 {
			t.Errorf("count = %v, want 4", got)
		}
	})

	t.Run("map entry fields reversed", func(t *testing.T) {
		entry := ddAppendDouble(nil, 2, 6) // value before key
		entry = ddAppendUvarint(ddAppendTag(entry, 1, ddWireVarint), ddZigzag32(int32(idx)))
		payload := ddAppendBytes(nil, ddFieldMapping, mappingMsg)
		payload = ddAppendBytes(payload, ddFieldPositive,
			ddAppendBytes(nil, ddStoreFieldBinCounts, entry))
		s, err := Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Count(); got != 6 {
			t.Errorf("count = %v, want 6", got)
		}
	})
}

// TestDataDogMergeWithOriginal: a decoded DataDog payload merges back
// into its origin sketch — the mapping reconstructed from γ must be
// Equals-compatible with the original despite the γ→α→γ float round
// trip.
func TestDataDogMergeWithOriginal(t *testing.T) {
	for name, build := range map[string]func() (mapping.IndexMapping, error){
		"log": func() (mapping.IndexMapping, error) { return mapping.NewLogarithmic(0.01) },
		"cubic": func() (mapping.IndexMapping, error) {
			return mapping.NewCubicallyInterpolated(0.02)
		},
	} {
		t.Run(name, func(t *testing.T) {
			m, err := build()
			if err != nil {
				t.Fatal(err)
			}
			s := NewWithConfig(m, store.DenseStoreProvider(), store.DenseStoreProvider())
			for i := 1; i <= 300; i++ {
				if err := s.Add(float64(i)); err != nil {
					t.Fatal(err)
				}
			}
			data, err := s.EncodeAs("datadog")
			if err != nil {
				t.Fatal(err)
			}
			if err := s.DecodeAndMergeWith(data); err != nil {
				t.Fatalf("merging a DataDog copy of itself: %v", err)
			}
			if got, want := s.Count(), 600.0; got != want {
				t.Errorf("count after self-merge = %v, want %v", got, want)
			}
		})
	}
}
