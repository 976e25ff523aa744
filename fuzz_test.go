package ddsketch_test

import (
	"bytes"
	"errors"
	"math"
	"sort"
	"testing"
	"time"

	"github.com/ddsketch-go/ddsketch"
	"github.com/ddsketch-go/ddsketch/encoding"
	"github.com/ddsketch-go/ddsketch/internal/datagen"
	"github.com/ddsketch-go/ddsketch/internal/exact"
	"github.com/ddsketch-go/ddsketch/mapping"
	"github.com/ddsketch-go/ddsketch/store"
)

// FuzzDecode asserts that Decode is total over arbitrary input: it
// either reconstructs a sketch or returns an error wrapping
// ErrInvalidEncoding (or ErrUnsupportedVersion), and it never panics or
// over-allocates — corrupted bucket lists are rejected by the store
// decoder's validation rather than driving the dense stores into huge
// allocations.
func FuzzDecode(f *testing.F) {
	// Seed with valid encodings across the configuration matrix, plus a
	// few near-valid corruptions.
	seeds := []func() (*ddsketch.DDSketch, error){
		func() (*ddsketch.DDSketch, error) { return ddsketch.New(0.01) },
		func() (*ddsketch.DDSketch, error) { return ddsketch.NewCollapsing(0.01, 512) },
		func() (*ddsketch.DDSketch, error) { return ddsketch.NewCollapsingHighest(0.02, 256) },
		func() (*ddsketch.DDSketch, error) { return ddsketch.NewFast(0.01, 512) },
		func() (*ddsketch.DDSketch, error) { return ddsketch.New(0.05) },
		func() (*ddsketch.DDSketch, error) {
			// A collapsed uniform sketch: exercises the version-2 format
			// (bin budget + epoch + base-mapping re-derivation).
			s, err := ddsketch.NewUniformCollapsing(0.01, 32)
			if err != nil {
				return nil, err
			}
			return s, s.CollapseUniformly()
		},
		func() (*ddsketch.DDSketch, error) {
			m, err := mapping.NewCubicallyInterpolated(0.01)
			if err != nil {
				return nil, err
			}
			return ddsketch.NewWithConfig(m, store.DenseStoreProvider(), store.DenseStoreProvider()), nil
		},
	}
	for _, newSketch := range seeds {
		s, err := newSketch()
		if err != nil {
			f.Fatal(err)
		}
		for i := 1; i <= 100; i++ {
			_ = s.Add(float64(i))
			_ = s.Add(-float64(i) / 100)
		}
		_ = s.Add(0)
		data := s.Encode()
		f.Add(data)
		f.Add(data[:len(data)/2])  // truncated
		f.Add(append([]byte{}, 0)) // way too short
		corrupted := append([]byte(nil), data...)
		corrupted[len(corrupted)/2] ^= 0xff
		f.Add(corrupted)
	}
	f.Add([]byte("DDS"))             // magic only
	f.Add([]byte{'D', 'D', 'S', 99}) // unsupported version

	// The retired sparse (4) and buffered-paginated (5) store tags on
	// each store of a hand-built native payload (TestDecodeRetiredStoreTags
	// builds the same bytes): decode-only tags, read into dense stores.
	legacy := []byte{
		0x44, 0x44, 0x53, 0x01, // magic, version 1
		0x01, 0xfc, 0xc3, 0xf8, 0xba, 0xa8, 0xbc, 0x9d, 0x94, 0xde, // logarithmic mapping, α = 0.01
		0x00, 0x83, 0x20, 0x82, 0x10, 0xfc, 0x1f, // zeroCount 0, min −3, max 4, sum 1
		0x01, 0x03, 0x00, 0xfc, 0x1f, 0x46, 0xfc, 0x1f, 0x46, 0xfc, 0x1f, // positive store: tag, bins 0, 35, 70
		0x01, 0x01, 0x6e, 0x02, // negative store: tag, bin 55 with count 2
	}
	const positiveTagAt, negativeTagAt = 21, 32
	for _, tags := range [][2]byte{{4, 1}, {1, 4}, {5, 1}, {1, 5}} {
		payload := append([]byte(nil), legacy...)
		payload[positiveTagAt], payload[negativeTagAt] = tags[0], tags[1]
		f.Add(payload)
	}

	// DataDog-grammar seeds: valid proto3 payloads from the second
	// codec, their truncations and corruptions, and hand-built hostile
	// shapes (fields the sniffer accepts but the decoder must reject).
	for _, newSketch := range seeds {
		s, err := newSketch()
		if err != nil {
			f.Fatal(err)
		}
		for i := 1; i <= 100; i++ {
			_ = s.Add(float64(i) * 1.5)
			_ = s.Add(-float64(i) / 3)
		}
		_ = s.Add(0)
		data, err := s.EncodeAs("datadog")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		corrupted := append([]byte(nil), data...)
		corrupted[len(corrupted)/3] ^= 0xff
		f.Add(corrupted)
	}
	f.Add([]byte{0x0a, 0x00})                                     // empty mapping message
	f.Add([]byte{0x21, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f})             // zeroCount = +Inf, no mapping
	f.Add([]byte{0x0a, 0x09, 0x09, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}) // gamma = 1
	f.Add([]byte{0x12, 0x04, 0x0a, 0x02, 0x08, 0x01})             // store before mapping, then nothing
	f.Add([]byte{0x0a, 0xff, 0xff, 0xff, 0xff, 0x0f})             // huge declared length
	f.Add([]byte{0x0b})                                           // group wire type
	// Two sparse bins 2^30 apart under a valid mapping: must be
	// rejected by the span limit, not answered with a giant DenseStore.
	f.Add(append(append([]byte{0x0a, 0x09, 0x09, 0x78, 0x9c, 0xe5, 0x57, 0x29, 0x5c, 0xf0, 0x3f},
		0x12, 0x10, 0x0a, 0x04, 0x08, 0x00, 0x11, 0x00),
		0x0a, 0x08, 0x08, 0x80, 0x80, 0x80, 0x08, 0x11, 0x00, 0x00))

	// Hostile-statistics seeds: structurally valid payloads whose
	// min/max/sum/zeroCount no encoder can produce (they must be rejected,
	// not decoded into query-poisoning sketches).
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(hostileStatsPayload(0, nan, 2, 3, 1))
	f.Add(hostileStatsPayload(0, 1, nan, 3, 1))
	f.Add(hostileStatsPayload(0, 1, 2, inf, 1))
	f.Add(hostileStatsPayload(nan, 1, 2, 3, 1))
	f.Add(hostileStatsPayload(-5, 1, 2, 3, 1))
	f.Add(hostileStatsPayload(0, 5, 1, 3, 1)) // min > max with weight
	f.Add(hostileUniformLineagePayload())

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ddsketch.Decode(data)
		if err != nil {
			if !errors.Is(err, ddsketch.ErrInvalidEncoding) &&
				!errors.Is(err, ddsketch.ErrUnsupportedVersion) {
				t.Fatalf("Decode error %v does not wrap ErrInvalidEncoding or ErrUnsupportedVersion", err)
			}
			return
		}
		// A successfully decoded sketch must answer basic queries without
		// panicking, even if the payload was semantically nonsense.
		_ = s.Count()
		_ = s.NumBins()
		if !s.IsEmpty() {
			_, _ = s.Quantile(0.5)
		}
	})
}

// FuzzMergeMixedEpochs is the fusion-semantics fuzzer: two
// uniform-collapse sketches over random heavy-tailed data, collapsed a
// random (different) number of extra times, must always merge — in
// both directions and through the wire format — preserving total count
// and sum exactly and keeping every quantile within the merged epoch's
// α' bound (the fusion error bound: the result answers as if all
// values had been sketched at the coarser epoch).
func FuzzMergeMixedEpochs(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(3), uint16(500), uint16(700))
	f.Add(uint64(2), uint8(2), uint8(0), uint16(64), uint16(2000))
	f.Add(uint64(3), uint8(5), uint8(5), uint16(1), uint16(1))
	f.Add(uint64(4), uint8(1), uint8(7), uint16(2048), uint16(10))

	f.Fuzz(func(t *testing.T, seed uint64, extraA, extraB uint8, nA, nB uint16) {
		const (
			alpha   = 0.02
			maxBins = 32
		)
		countA, countB := int(nA%2048)+1, int(nB%2048)+1
		valuesA := datagen.ParetoSeeded(countA, seed|1)
		valuesB := datagen.LogNormalSeeded(countB, 0, 3, seed+17)

		build := func(values []float64, extra uint8) *ddsketch.DDSketch {
			s, err := ddsketch.NewUniformCollapsing(alpha, maxBins)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range values {
				if err := s.Add(v); err != nil {
					t.Fatal(err)
				}
			}
			// Cap the explicit epochs: past ~6 collapses from α = 0.02,
			// α' approaches 1 and Coarsen correctly refuses (the same
			// soft-stop maybeCollapse applies), which is not the merge
			// path under test.
			for i := uint8(0); i < extra%6; i++ {
				if err := s.CollapseUniformly(); err != nil {
					if errors.Is(err, ddsketch.ErrCannotCollapse) {
						break
					}
					t.Fatal(err)
				}
			}
			return s
		}
		a := build(valuesA, extraA)
		b := build(valuesB, extraB)
		epochB := b.CollapseEpoch()

		merged := a.Copy()
		if err := merged.DecodeAndMergeWith(b.Encode()); err != nil {
			t.Fatalf("merge epochs %d←%d: %v", a.CollapseEpoch(), epochB, err)
		}
		// The merge argument is untouched.
		if b.CollapseEpoch() != epochB || b.Count() != float64(countB) {
			t.Fatal("merge mutated its argument")
		}

		// Count and sum fuse exactly.
		if got, want := merged.Count(), float64(countA+countB); got != want {
			t.Fatalf("merged Count = %g, want %g", got, want)
		}
		sumA, _ := a.Sum()
		sumB, _ := b.Sum()
		mergedSum, err := merged.Sum()
		if err != nil {
			t.Fatal(err)
		}
		if want := sumA + sumB; math.Abs(mergedSum-want) > 1e-9*math.Abs(want) {
			t.Fatalf("merged Sum = %g, want %g", mergedSum, want)
		}

		// The fusion error bound: the merged sketch answers within the
		// final epoch's α' everywhere.
		if bins := merged.NumBins(); bins > maxBins {
			t.Fatalf("merged NumBins = %d exceeds budget %d", bins, maxBins)
		}
		finalEpoch := merged.CollapseEpoch()
		if min := max(a.CollapseEpoch(), epochB); finalEpoch < min {
			t.Fatalf("merged epoch %d below the coarser input epoch %d", finalEpoch, min)
		}
		alphaE := merged.RelativeAccuracy()
		combined := append(append([]float64(nil), valuesA...), valuesB...)
		sort.Float64s(combined)
		for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
			est, err := merged.Quantile(q)
			if err != nil {
				t.Fatal(err)
			}
			truth := exact.Quantile(combined, q)
			if rel := exact.RelativeError(est, truth); rel > alphaE*(1+1e-9) {
				t.Fatalf("q=%g: relative error %g exceeds fused α'=%g (epochs %d+%d→%d)",
					q, rel, alphaE, a.CollapseEpoch(), epochB, finalEpoch)
			}
		}

		// Merging in the other direction fuses the same multiset at the
		// same lineage: counts agree, and both orders answer identically
		// once at a common epoch.
		reverse := b.Copy()
		if err := reverse.MergeWith(a); err != nil {
			t.Fatalf("reverse merge: %v", err)
		}
		if reverse.Count() != merged.Count() {
			t.Fatalf("reverse Count = %g, forward %g", reverse.Count(), merged.Count())
		}
	})
}

// hostileStatsPayload builds a wire payload that is valid in every way
// except for attacker-chosen statistics: version 1, the default
// logarithmic mapping, then zeroCount/min/max/sum verbatim, a positive
// dense store holding binCount at index 0 (0 omits the bin, for empty
// payloads), and an empty negative store.
func hostileStatsPayload(zeroCount, min, max, sum float64, binCount float64) []byte {
	w := encoding.NewWriter(64)
	w.Byte('D')
	w.Byte('D')
	w.Byte('S')
	w.Byte(1)
	m, err := mapping.NewLogarithmic(0.01)
	if err != nil {
		panic(err)
	}
	m.Encode(w)
	w.Varfloat64(zeroCount)
	w.Varfloat64(min)
	w.Varfloat64(max)
	w.Varfloat64(sum)
	positive := store.NewDenseStore()
	if binCount > 0 {
		positive.AddWithCount(0, binCount)
	}
	positive.Encode(w)
	store.NewDenseStore().Encode(w)
	return w.Bytes()
}

// hostileUniformLineagePayload builds a version-2 payload pairing
// uniform-collapse lineage (budget + epoch) with a collapsing store —
// a configuration NewSketch can never build, since uniform mode owns
// its dense stores.
func hostileUniformLineagePayload() []byte {
	w := encoding.NewWriter(64)
	w.Byte('D')
	w.Byte('D')
	w.Byte('S')
	w.Byte(2)
	w.Uvarint(32) // uniform bin budget
	w.Uvarint(1)  // collapse epoch
	m, err := mapping.NewLogarithmic(0.01)
	if err != nil {
		panic(err)
	}
	m.Encode(w)
	w.Varfloat64(0) // zeroCount
	w.Varfloat64(1) // min
	w.Varfloat64(1) // max
	w.Varfloat64(1) // sum
	positive := store.NewCollapsingLowestDenseStore(16)
	positive.Add(0)
	positive.Encode(w)
	store.NewDenseStore().Encode(w)
	return w.Bytes()
}

// TestDecodeRejectsHostileStatistics locks in the statistics validation:
// payloads whose exact statistics no encoder can produce — NaN or
// infinite extremes and sums, inverted extremes alongside positive
// weight, negative or non-finite zero counts — are rejected with
// ErrInvalidEncoding instead of poisoning every later Quantile through
// the min/max clamp.
func TestDecodeRejectsHostileStatistics(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	hostile := map[string][]byte{
		"NaN min":            hostileStatsPayload(0, nan, 2, 3, 1),
		"NaN max":            hostileStatsPayload(0, 1, nan, 3, 1),
		"NaN sum":            hostileStatsPayload(0, 1, 2, nan, 1),
		"Inf sum":            hostileStatsPayload(0, 1, 2, inf, 1),
		"Inf min with count": hostileStatsPayload(0, inf, inf, 3, 1),
		"min above max":      hostileStatsPayload(0, 5, 1, 3, 1),
		"NaN zero count":     hostileStatsPayload(nan, 1, 2, 3, 1),
		"negative zero count": hostileStatsPayload(
			-5, 1, 2, 3, 1),
		"Inf zero count": hostileStatsPayload(inf, 1, 2, 3, 1),
		"min above max from zero count only": hostileStatsPayload(
			2, 5, 1, 3, 0),
		"uniform lineage with collapsing store": hostileUniformLineagePayload(),
	}
	for name, payload := range hostile {
		if _, err := ddsketch.Decode(payload); !errors.Is(err, ddsketch.ErrInvalidEncoding) {
			t.Errorf("%s: Decode err = %v, want ErrInvalidEncoding", name, err)
		}
	}

	// Positive controls: the validation must not reject what Encode
	// writes — an empty sketch carries min = +Inf, max = −Inf legally.
	for name, payload := range map[string][]byte{
		"empty sketch":        hostileStatsPayload(0, inf, math.Inf(-1), 0, 0),
		"zero-count only":     hostileStatsPayload(3, 0, 0, 0, 0),
		"single-value sketch": hostileStatsPayload(0, 1, 1, 1, 1),
	} {
		s, err := ddsketch.Decode(payload)
		if err != nil {
			t.Errorf("%s: Decode err = %v, want nil", name, err)
			continue
		}
		if !s.IsEmpty() {
			if _, err := s.Quantile(0.5); err != nil {
				t.Errorf("%s: Quantile after decode: %v", name, err)
			}
		}
	}
}

// TestDecodeAcceptsExplicitlyCoarsenedCollapsingSketch: a budget-less
// sketch pre-coarsened through the public CollapseUniformly (e.g. to
// match a peer's epoch before shipping) carries epoch > 0 on collapsing
// stores — a combination Encode legitimately produces, which the
// budget/store-tag validation must not reject.
func TestDecodeAcceptsExplicitlyCoarsenedCollapsingSketch(t *testing.T) {
	s, err := ddsketch.NewCollapsing(0.01, 128)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 1000; i++ {
		if err := s.Add(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CollapseUniformly(); err != nil {
		t.Fatal(err)
	}
	decoded, err := ddsketch.Decode(s.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got, want := decoded.CollapseEpoch(), s.CollapseEpoch(); got != want {
		t.Errorf("decoded epoch = %d, want %d", got, want)
	}
	if got, want := decoded.Count(), s.Count(); got != want {
		t.Errorf("decoded Count = %g, want %g", got, want)
	}
	for _, q := range []float64{0.1, 0.5, 0.99} {
		got, err := decoded.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("q=%g: decoded %g != original %g", q, got, want)
		}
	}
}

// TestDecodeRejectsHostileBins locks in the decode-time validation: bin
// lists that no encoder could produce (absurd counts or indexes) fail
// cleanly instead of allocating gigabytes.
func TestDecodeRejectsHostileBins(t *testing.T) {
	valid, err := ddsketch.New(0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		_ = valid.Add(float64(i))
	}
	data := valid.Encode()

	for name, mutate := range map[string]func([]byte) []byte{
		"truncated":   func(b []byte) []byte { return b[:len(b)-3] },
		"bad magic":   func(b []byte) []byte { b[0] = 'X'; return b },
		"bad version": func(b []byte) []byte { b[3] = 42; return b },
		"bad mapping tag": func(b []byte) []byte {
			b[4] = 200
			return b
		},
	} {
		mutated := mutate(append([]byte(nil), data...))
		if _, err := ddsketch.Decode(mutated); err == nil {
			t.Errorf("%s: Decode succeeded, want error", name)
		} else if !errors.Is(err, ddsketch.ErrInvalidEncoding) &&
			!errors.Is(err, ddsketch.ErrUnsupportedVersion) {
			t.Errorf("%s: error %v does not wrap a decode sentinel", name, err)
		}
	}
}

// FuzzCoarsenIndexIdentity is the Coarsenable-contract fuzzer: for any
// mapping kind, any α, and any number of collapse epochs, (1) each
// coarsening folds indexes exactly — coarse.Index(x) == ⌈fine.Index(x)/2⌉
// for every indexable x, the identity the sketch-level uniform collapse
// (store.FoldPairwise) relies on — and (2) a uniform-collapse sketch on
// that lineage merges bit-identically whether the peer arrives live or
// through encode→decode, so wire merges of coarsened interpolated
// mappings equal local ones.
func FuzzCoarsenIndexIdentity(f *testing.F) {
	f.Add(0.01, 1.0, uint8(1), byte(3), uint64(1), uint16(400))
	f.Add(0.02, 1e-200, uint8(3), byte(1), uint64(2), uint16(1000))
	f.Add(0.001, 12345.678, uint8(2), byte(2), uint64(3), uint16(64))
	f.Add(0.05, 1e200, uint8(4), byte(0), uint64(4), uint16(1))

	newMappingKind := func(alpha float64, kind byte) (mapping.IndexMapping, error) {
		switch kind % 4 {
		case 0:
			return mapping.NewLogarithmic(alpha)
		case 1:
			return mapping.NewLinearlyInterpolated(alpha)
		case 2:
			return mapping.NewQuadraticallyInterpolated(alpha)
		default:
			return mapping.NewCubicallyInterpolated(alpha)
		}
	}

	f.Fuzz(func(t *testing.T, alpha, value float64, epochs, kind uint8, seed uint64, n uint16) {
		m, err := newMappingKind(alpha, byte(kind))
		if err != nil {
			return
		}

		// Part 1: the ⌈i/2⌉ fold identity across random epochs.
		fine := m
		for e := uint8(0); e < epochs%8; e++ {
			coarse, err := fine.(mapping.Coarsenable).Coarsen()
			if err != nil {
				if errors.Is(err, mapping.ErrCannotCoarsen) {
					break
				}
				t.Fatal(err)
			}
			v := math.Abs(value)
			if !math.IsNaN(v) && v >= coarse.MinIndexableValue() && v <= coarse.MaxIndexableValue() {
				i := fine.Index(v)
				want := i / 2
				if i > 0 {
					want = (i + 1) / 2
				}
				if got := coarse.Index(v); got != want {
					t.Fatalf("kind %d α=%v epoch %d: Index(%g) = %d, want ⌈%d/2⌉ = %d",
						kind%4, alpha, e+1, v, got, i, want)
				}
			}
			fine = coarse
		}

		// Part 2: wire merges on a coarsened lineage are bin-identical to
		// local merges. Needs an α a uniform sketch can survive a few
		// collapses at, so clamp instead of bailing.
		if !(alpha >= 1e-4 && alpha <= 0.1) {
			return
		}
		count := int(n%2048) + 1
		values := datagen.ParetoSeeded(count, seed|1)
		build := func() *ddsketch.DDSketch {
			um, err := newMappingKind(alpha, byte(kind))
			if err != nil {
				t.Fatal(err)
			}
			s, err := ddsketch.NewSketch(
				ddsketch.WithMapping(um), ddsketch.WithUniformCollapse(64))
			if err != nil {
				t.Fatal(err)
			}
			return s.(*ddsketch.DDSketch)
		}
		a, b := build(), build()
		for i, v := range values {
			target := a
			if i%2 == 1 {
				target = b
			}
			if err := target.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		for i := uint8(0); i < epochs%4; i++ {
			if err := b.CollapseUniformly(); err != nil {
				if errors.Is(err, ddsketch.ErrCannotCollapse) {
					break
				}
				t.Fatal(err)
			}
		}
		local := a.Copy()
		if err := local.MergeWith(b); err != nil {
			t.Fatalf("local merge: %v", err)
		}
		wire := a.Copy()
		if err := wire.DecodeAndMergeWith(b.Encode()); err != nil {
			t.Fatalf("wire merge: %v", err)
		}
		assertBinIdentical(t, wire, local)
		if wire.CollapseEpoch() != local.CollapseEpoch() {
			t.Fatalf("wire merge epoch %d != local %d", wire.CollapseEpoch(), local.CollapseEpoch())
		}
	})
}

// FuzzCodecRoundTrip is the cross-codec interop fuzzer: for arbitrary
// data, the native→DataDog→native round trip must preserve every bin
// count exactly (the stores carry integer indexes and float counts,
// both of which the proto schema represents losslessly) and answer
// every quantile within the mapping's relative accuracy of the
// original — the only degradation allowed is the documented loss of
// the exact min/max/sum statistics.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint16(100), uint8(1), uint8(0), true)
	f.Add(uint64(2), uint16(2000), uint8(5), uint8(1), false)
	f.Add(uint64(3), uint16(1), uint8(2), uint8(2), true)
	f.Add(uint64(4), uint16(50000), uint8(9), uint8(3), false)
	f.Add(uint64(5), uint16(0), uint8(1), uint8(0), false)

	f.Fuzz(func(t *testing.T, seed uint64, n uint16, alphaPct, mappingKind uint8, negatives bool) {
		alpha := float64(alphaPct%10+1) / 100
		var (
			m   mapping.IndexMapping
			err error
		)
		switch mappingKind % 4 {
		case 0:
			m, err = mapping.NewLogarithmic(alpha)
		case 1:
			m, err = mapping.NewLinearlyInterpolated(alpha)
		case 2:
			m, err = mapping.NewQuadraticallyInterpolated(alpha)
		case 3:
			m, err = mapping.NewCubicallyInterpolated(alpha)
		}
		if err != nil {
			t.Fatal(err)
		}
		s := ddsketch.NewWithConfig(m,
			store.DenseStoreProvider(), store.DenseStoreProvider())
		values := datagen.ParetoSeeded(int(n%5000)+1, seed|1)
		for i, v := range values {
			if negatives && i%3 == 1 {
				v = -v
			}
			if i%17 == 0 {
				v = 0
			}
			if err := s.Add(v); err != nil {
				t.Fatal(err)
			}
		}

		datadog, err := s.EncodeAs("datadog")
		if err != nil {
			t.Fatalf("EncodeAs(datadog): %v", err)
		}
		decoded, err := ddsketch.Decode(datadog)
		if err != nil {
			t.Fatalf("Decode(datadog payload): %v", err)
		}
		renative, err := ddsketch.Decode(decoded.Encode())
		if err != nil {
			t.Fatalf("Decode(native re-encoding): %v", err)
		}

		// Every bin count survives both hops. Representative values may
		// drift by γ-reconstruction ulps, counts may not.
		type bin struct{ value, count float64 }
		collect := func(sk *ddsketch.DDSketch) []bin {
			var bins []bin
			sk.ForEach(func(value, count float64) bool {
				bins = append(bins, bin{value, count})
				return true
			})
			return bins
		}
		want, got := collect(s), collect(renative)
		if len(got) != len(want) {
			t.Fatalf("bin count %d != %d", len(got), len(want))
		}
		for i := range want {
			if got[i].count != want[i].count {
				t.Errorf("bin %d: count %v, want %v", i, got[i].count, want[i].count)
			}
			if exact.RelativeError(got[i].value, want[i].value) > 1e-9 {
				t.Errorf("bin %d: representative %v, want %v", i, got[i].value, want[i].value)
			}
		}
		if got, want := renative.Count(), s.Count(); exact.RelativeError(got, want) > 1e-12 {
			t.Errorf("count = %v, want %v", got, want)
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
			want, err := s.Quantile(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := renative.Quantile(q)
			if err != nil {
				t.Fatal(err)
			}
			if want == 0 {
				if got != 0 {
					t.Errorf("q%g = %v, want exactly 0 (zero bucket)", q, got)
				}
				continue
			}
			if exact.RelativeError(got, want) > 2*alpha {
				t.Errorf("q%g = %v, want %v within 2α=%g", q, got, want, 2*alpha)
			}
		}
	})
}

// FuzzMergeEncoded holds the pooled scratch path to the reference it
// replaces: for any payload, MergeEncoded (and DDSketch's
// DecodeAndMergeWith) must leave exactly the Encode() bytes that Decode
// followed by MergeWith leaves, or fail with the same error class and
// leave the aggregate's bytes unchanged. Before each input the pooled
// scratch is dirtied with payloads of other shapes (other codecs,
// store types, bin limits and lineages), so stale state from an earlier
// decode would show.
func FuzzMergeEncoded(f *testing.F) {
	fill := func(s *ddsketch.DDSketch, values []float64) *ddsketch.DDSketch {
		if err := s.AddBatch(values); err != nil {
			f.Fatal(err)
		}
		return s
	}
	must := func(s *ddsketch.DDSketch, err error) *ddsketch.DDSketch {
		if err != nil {
			f.Fatal(err)
		}
		return s
	}
	pareto := datagen.ParetoSeeded(500, 7)
	negative := make([]float64, len(pareto))
	for i, v := range pareto {
		negative[i] = -v
	}
	collapsed := fill(must(ddsketch.NewUniformCollapsing(0.01, 32)), pareto)
	if collapsed.CollapseEpoch() == 0 {
		f.Fatal("uniform seed did not collapse")
	}
	seeds := []*ddsketch.DDSketch{
		fill(must(ddsketch.NewCollapsing(0.01, 2048)), pareto),        // native v1
		fill(must(ddsketch.NewUniformCollapsing(0.01, 4096)), pareto), // native v2, epoch 0
		collapsed, // native v2, collapsed
		fill(must(ddsketch.NewCollapsing(0.01, 2048)), negative),        // negative only
		fill(must(ddsketch.NewCollapsing(0.01, 2048)), []float64{0, 0}), // zero only
		fill(must(ddsketch.New(0.01)), append(pareto[:100:100], -1, 0)), // dense, mixed signs
		fill(must(ddsketch.NewCollapsingHighest(0.02, 64)), negative),   // other mapping and limit
	}
	for _, s := range seeds {
		dd, err := ddsketch.DataDogCodec.Encode(s)
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range [][]byte{s.Encode(), dd} {
			f.Add(p)
			f.Add(p[:len(p)/2])
		}
	}
	f.Add(hostileStatsPayload(0, 1, 2, 3, 1e308))

	// Payloads of other shapes to leave in the pooled scratch.
	var dirty [][]byte
	for _, s := range []*ddsketch.DDSketch{seeds[2], seeds[5], seeds[6]} {
		dd, err := ddsketch.DataDogCodec.Encode(s)
		if err != nil {
			f.Fatal(err)
		}
		dirty = append(dirty, s.Encode(), dd)
	}
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	aggregates := [][]ddsketch.Option{
		{ddsketch.WithRelativeAccuracy(0.01), ddsketch.WithMaxBins(2048)},
		{ddsketch.WithRelativeAccuracy(0.01), ddsketch.WithUniformCollapse(64)},
	}
	newSketch := func(t *testing.T, opts ...ddsketch.Option) ddsketch.Sketch {
		s, err := ddsketch.NewSketch(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	errorClass := func(err error) string {
		for _, class := range []error{ddsketch.ErrInvalidEncoding, ddsketch.ErrUnsupportedVersion,
			ddsketch.ErrIncompatibleSketches} {
			if errors.Is(err, class) {
				return class.Error()
			}
		}
		if err != nil {
			return "unclassified: " + err.Error()
		}
		return "accepted"
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, opts := range aggregates {
			newAggregate := func() ddsketch.Sketch {
				return newSketch(t, append(opts, ddsketch.WithSharding(1), ddsketch.WithWindow(time.Minute, 3),
					ddsketch.WithClock(func() time.Time { return now }))...)
			}
			sink := newAggregate().(*ddsketch.WindowedSharded)
			for _, p := range dirty {
				c, err := ddsketch.DetectCodec(p)
				if err != nil {
					t.Fatal(err)
				}
				_ = sink.MergeEncoded(c, p) // only the decode into the scratch matters
			}

			got := newAggregate().(*ddsketch.WindowedSharded)
			want := newAggregate()
			for _, s := range []ddsketch.Sketch{got, want} {
				if err := s.AddBatch([]float64{0.5, 3, 3, 250}); err != nil {
					t.Fatal(err)
				}
			}
			before := got.Snapshot().Encode()
			c, err := ddsketch.DetectCodec(data)
			if err != nil {
				return
			}
			gotErr := got.MergeEncoded(c, data)
			decoded, wantErr := c.Decode(data)
			if wantErr == nil {
				wantErr = want.MergeWith(decoded)
			}
			if g, w := errorClass(gotErr), errorClass(wantErr); g != w {
				t.Fatalf("MergeEncoded: %s (%v), Decode+MergeWith: %s (%v)", g, gotErr, w, wantErr)
			}
			after := got.Snapshot().Encode()
			if gotErr != nil {
				if !bytes.Equal(after, before) {
					t.Fatalf("rejected payload (%v) changed the aggregate", gotErr)
				}
				continue
			}
			if !bytes.Equal(after, want.Snapshot().Encode()) {
				t.Fatal("MergeEncoded and Decode+MergeWith left different aggregates")
			}
		}

		// The plain sketch's entry point takes the same path.
		got := newSketch(t, aggregates[0]...).(*ddsketch.DDSketch)
		want := newSketch(t, aggregates[0]...).(*ddsketch.DDSketch)
		gotErr := got.DecodeAndMergeWith(data)
		decoded, wantErr := ddsketch.Decode(data)
		if wantErr == nil {
			wantErr = want.MergeWith(decoded)
		}
		if g, w := errorClass(gotErr), errorClass(wantErr); g != w {
			t.Fatalf("DecodeAndMergeWith: %s (%v), Decode+MergeWith: %s (%v)", g, gotErr, w, wantErr)
		}
		if !bytes.Equal(got.Encode(), want.Encode()) {
			t.Fatal("DecodeAndMergeWith and Decode+MergeWith left different sketches")
		}
	})
}
