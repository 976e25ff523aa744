package ddsketch

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/ddsketch-go/ddsketch/encoding"
	"github.com/ddsketch-go/ddsketch/internal/datagen"
	"github.com/ddsketch-go/ddsketch/mapping"
	"github.com/ddsketch-go/ddsketch/store"
)

// overflowingPayloads returns, per codec, a payload whose bins each
// hold a finite count of 1e308 but whose total weight overflows to
// +Inf. Every statistic the payload carries (native) or yields
// (DataDog, whose two bins sit below 1 so the reconstructed sum stays
// finite) is finite.
func overflowingPayloads(t *testing.T) map[string][]byte {
	t.Helper()
	m, err := mapping.NewLogarithmic(0.01)
	if err != nil {
		t.Fatal(err)
	}
	w := encoding.NewWriter(64)
	w.Byte('D')
	w.Byte('D')
	w.Byte('S')
	w.Byte(serializationVersion)
	m.Encode(w)
	w.Varfloat64(0) // zero count
	w.Varfloat64(1) // min
	w.Varfloat64(2) // max
	w.Varfloat64(3) // sum
	positive := store.NewDenseStore()
	positive.AddWithCount(0, 1e308)
	positive.AddWithCount(1, 1e308)
	positive.Encode(w)
	store.NewDenseStore().Encode(w)

	bin := func(index int32) []byte {
		entry := ddAppendTag(nil, 1, ddWireVarint)
		entry = ddAppendUvarint(entry, ddZigzag32(index))
		entry = ddAppendDouble(entry, 2, 1e308)
		return ddAppendBytes(nil, ddStoreFieldBinCounts, entry)
	}
	dd := ddAppendBytes(nil, ddFieldMapping, validMappingMsg(t))
	dd = ddAppendBytes(dd, ddFieldPositive, append(bin(-10), bin(-11)...))
	return map[string][]byte{"native": w.Bytes(), "datadog": dd}
}

// TestDecodeRejectsOverflowingWeight: a payload whose finite bins sum
// to +Inf is rejected by every decode path, and the aggregate it was
// offered to keeps its count, instead of saturating at +Inf for good.
func TestDecodeRejectsOverflowingWeight(t *testing.T) {
	for name, payload := range overflowingPayloads(t) {
		t.Run(name, func(t *testing.T) {
			if s, err := Decode(payload); !errors.Is(err, ErrInvalidEncoding) {
				t.Fatalf("Decode = (count %v, %v), want ErrInvalidEncoding", countOf(s), err)
			}

			agg, err := NewCollapsing(0.01, 2048)
			if err != nil {
				t.Fatal(err)
			}
			if err := agg.Add(5); err != nil {
				t.Fatal(err)
			}
			if err := agg.DecodeAndMergeWith(payload); !errors.Is(err, ErrInvalidEncoding) {
				t.Errorf("DecodeAndMergeWith = %v, want ErrInvalidEncoding", err)
			}
			if got := agg.Count(); got != 1 {
				t.Errorf("DecodeAndMergeWith left count %v, want 1", got)
			}

			ws, err := NewWindowedSharded(agg.Copy(), 2, time.Minute, 3)
			if err != nil {
				t.Fatal(err)
			}
			c, err := DetectCodec(payload)
			if err != nil {
				t.Fatal(err)
			}
			if err := ws.MergeEncoded(c, payload); !errors.Is(err, ErrInvalidEncoding) {
				t.Errorf("MergeEncoded = %v, want ErrInvalidEncoding", err)
			}
			if got := ws.Count(); got != 1 {
				t.Errorf("MergeEncoded left count %v, want 1", got)
			}
		})
	}
}

func countOf(s *DDSketch) float64 {
	if s == nil {
		return 0
	}
	return s.Count()
}

// decodeOnlyCodec hides the built-in decoder's scratch path, standing
// in for a codec registered by a third party.
type decodeOnlyCodec struct{ Codec }

// TestMergeEncodedCustomCodecFallsBack: a codec without the scratch
// decoder goes through its own Decode and merges the same content.
func TestMergeEncodedCustomCodecFallsBack(t *testing.T) {
	agent, err := NewCollapsing(0.01, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.AddBatch(datagen.ParetoSeeded(500, 3)); err != nil {
		t.Fatal(err)
	}
	payload := agent.Encode()
	proto, err := NewCollapsing(0.01, 2048)
	if err != nil {
		t.Fatal(err)
	}
	var got [2][]byte
	for i, c := range []Codec{NativeCodec, decodeOnlyCodec{NativeCodec}} {
		ws, err := NewWindowedSharded(proto.Copy(), 1, time.Minute, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := ws.MergeEncoded(c, payload); err != nil {
			t.Fatalf("MergeEncoded via %T: %v", c, err)
		}
		got[i] = ws.Snapshot().Encode()
	}
	if !bytes.Equal(got[0], got[1]) {
		t.Error("fallback through Decode merged different content than the scratch path")
	}
	if err := proto.Copy().DecodeAndMergeWith([]byte("DDS")); !errors.Is(err, ErrInvalidEncoding) {
		t.Errorf("DecodeAndMergeWith(truncated) = %v, want ErrInvalidEncoding", err)
	}
}

// TestScratchPoolableBound: a scratch that decoded an honest payload
// goes back to the pool; one whose arrays a hostile payload widened
// past twice the bin limit does not.
func TestScratchPoolableBound(t *testing.T) {
	agent, err := NewCollapsing(0.01, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.AddBatch(datagen.ParetoSeeded(1000, 4)); err != nil {
		t.Fatal(err)
	}
	dd, err := DataDogCodec.Encode(agent)
	if err != nil {
		t.Fatal(err)
	}
	honest := map[string]struct {
		d       scratchDecoder
		payload []byte
	}{"native": {nativeCodec{}, agent.Encode()}, "datadog": {dataDogCodec{}, dd}}
	for name, p := range honest {
		var sc scratchSketch
		if err := p.d.decodeInto(&sc, p.payload); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sc.poolable() {
			t.Errorf("%s: honest payload's scratch not poolable", name)
		}
	}

	// An unbounded dense store spanning 100,000 bins: a legal payload,
	// but no honest agent with a 2,048-bin limit sends one.
	wide, err := New(0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{1e-300, 1e300} {
		if err := wide.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	var sc scratchSketch
	if err := (nativeCodec{}).decodeInto(&sc, wide.Encode()); err != nil {
		t.Fatal(err)
	}
	if sc.poolable() {
		t.Error("scratch holding a 100,000-bin array is poolable")
	}

	// The same span under a version-2 header declaring the largest
	// uniform budget the decoder accepts: the pool limit must not come
	// from the payload.
	budget, err := NewSketch(WithUniformCollapse(maxDecodedUniformBins))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{1e-300, 1e300} {
		if err := budget.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	sc = scratchSketch{}
	if err := (nativeCodec{}).decodeInto(&sc, budget.(*DDSketch).Encode()); err != nil {
		t.Fatal(err)
	}
	if sc.sketch.uniformMaxBins != maxDecodedUniformBins {
		t.Fatalf("decoded budget %d, want %d", sc.sketch.uniformMaxBins, maxDecodedUniformBins)
	}
	if sc.poolable() {
		t.Error("scratch holding a wide array under a 2^22-bin budget is poolable")
	}
}

// TestDecodeIntoReusesAcrossShapes: one scratch decoding payloads of
// different codecs, store types, bin limits and lineages in turn gives
// exactly what a fresh Decode gives each time.
func TestDecodeIntoReusesAcrossShapes(t *testing.T) {
	build := func(s *DDSketch, err error) *DDSketch {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddBatch(datagen.ParetoSeeded(300, 5)); err != nil {
			t.Fatal(err)
		}
		if err := s.AddBatch([]float64{-3, -0.5, 0}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	uniform := build(NewUniformCollapsing(0.01, 64))
	sketches := []*DDSketch{
		build(NewCollapsing(0.01, 2048)),
		build(New(0.01)),
		uniform,
		build(NewCollapsingHighest(0.02, 128)),
		build(NewCollapsing(0.01, 512)),
	}
	var payloads [][]byte
	for _, s := range sketches {
		dd, err := DataDogCodec.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, s.Encode(), dd)
	}
	var sc scratchSketch
	for round := 0; round < 2; round++ {
		for i, p := range payloads {
			want, err := Decode(p)
			if err != nil {
				t.Fatal(err)
			}
			c, err := DetectCodec(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.(scratchDecoder).decodeInto(&sc, p); err != nil {
				t.Fatalf("payload %d: %v", i, err)
			}
			if got := sc.sketch.Encode(); !bytes.Equal(got, want.Encode()) {
				t.Errorf("round %d payload %d: scratch decode differs from Decode", round, i)
			}
			if sc.sketch.Count() != want.Count() || sc.sketch.Collapsed() != want.Collapsed() {
				t.Errorf("round %d payload %d: count %v collapsed %v, want %v %v", round, i,
					sc.sketch.Count(), sc.sketch.Collapsed(), want.Count(), want.Collapsed())
			}
		}
	}
	if uniform.CollapseEpoch() == 0 {
		t.Error("uniform seed never collapsed; the lineage path went untested")
	}
}

// TestDecodeOwnsItsStores: Decode borrows a pooled scratch for its
// buffers and cached mapping, but the sketch it returns owns its
// stores. Pooled decodes after it, of other payloads through the same
// codec, must not change it.
func TestDecodeOwnsItsStores(t *testing.T) {
	first, err := NewCollapsing(0.01, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.AddBatch(datagen.ParetoSeeded(500, 6)); err != nil {
		t.Fatal(err)
	}
	second, err := NewCollapsing(0.01, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if err := second.AddBatch([]float64{-7, 0.001, 42, 1e6}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []Codec{NativeCodec, DataDogCodec} {
		p1, err := c.Encode(first)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := c.Encode(second)
		if err != nil {
			t.Fatal(err)
		}
		agg, err := NewCollapsing(0.01, 2048)
		if err != nil {
			t.Fatal(err)
		}
		// Warm the pool, so that the scratch Decode borrows has stores.
		if err := agg.DecodeAndMergeWith(p2); err != nil {
			t.Fatal(err)
		}
		decoded, err := c.Decode(p1)
		if err != nil {
			t.Fatal(err)
		}
		want := decoded.Encode()
		for i := 0; i < 10; i++ {
			if err := agg.DecodeAndMergeWith(p2); err != nil {
				t.Fatal(err)
			}
		}
		if got := decoded.Encode(); !bytes.Equal(got, want) {
			t.Errorf("%s: a decoded sketch changed when later payloads were merged", c.Name())
		}
		if err := decoded.Add(3); err != nil {
			t.Fatal(err)
		}
		again, err := c.Decode(p1)
		if err != nil {
			t.Fatal(err)
		}
		if got := again.Encode(); !bytes.Equal(got, want) {
			t.Errorf("%s: writing to a decoded sketch changed a later Decode", c.Name())
		}
	}
}
