// Cross-codec conformance axis: every wire format round-trips through
// every variant. A source sketch is encoded with each registered codec,
// auto-detect-decoded, and merged into each of the five variants; the
// merged result must agree with the source on count, sum, and quantiles
// within the accuracy guarantee. The uniform-collapse export is
// asserted against its documented lossiness exactly.
package ddsketch_test

import (
	"errors"
	"math"
	"sort"
	"testing"

	"github.com/ddsketch-go/ddsketch"
	"github.com/ddsketch-go/ddsketch/internal/datagen"
	"github.com/ddsketch-go/ddsketch/internal/exact"
)

// crossCodecTolerance returns the allowed relative error when comparing
// a decoded-and-merged sketch against its source: exact for the native
// codec, within the accuracy guarantee (plus reconstruction slack) for
// the lossy DataDog statistics.
func crossCodecTolerance(codec string, alpha float64) float64 {
	if codec == "native" {
		return 1e-12
	}
	return 2 * alpha
}

func TestConformanceCrossCodec(t *testing.T) {
	values := confValues()
	for _, v := range []float64{-3.5, -42, -1.25e4} {
		values = append(values, v)
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)

	source, err := ddsketch.New(confAlpha)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range values {
		if err := source.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := source.AddWithCount(0, 7); err != nil {
		t.Fatal(err)
	}

	for _, codec := range ddsketch.Codecs() {
		payload, err := source.EncodeAs(codec.Name())
		if err != nil {
			t.Fatalf("EncodeAs(%s): %v", codec.Name(), err)
		}
		if detected, err := ddsketch.DetectCodec(payload); err != nil || detected != codec {
			t.Fatalf("DetectCodec(%s payload) = %v, %v", codec.Name(), detected, err)
		}
		tolerance := crossCodecTolerance(codec.Name(), confAlpha)
		for name, variant := range conformanceVariantsWith(t) {
			t.Run(codec.Name()+"/"+name, func(t *testing.T) {
				// Auto-detecting merge: the variant never learns the format.
				if err := decodeInto(variant, payload); err != nil {
					t.Fatalf("decode and merge: %v", err)
				}
				if got, want := variant.Count(), source.Count(); exact.RelativeError(got, want) > tolerance {
					t.Errorf("count = %v, want %v", got, want)
				}
				merged := variant.Snapshot()
				gotSum, err := merged.Sum()
				if err != nil {
					t.Fatal(err)
				}
				wantSum, _ := source.Sum()
				// Sum reconstruction error is relative to the summed
				// magnitudes, not their (cancellation-prone) total.
				sumScale := 0.0
				source.ForEach(func(value, count float64) bool {
					sumScale += count * math.Abs(value)
					return true
				})
				if math.Abs(gotSum-wantSum) > tolerance*sumScale {
					t.Errorf("sum = %v, want %v (±%g)", gotSum, wantSum, tolerance*sumScale)
				}
				for _, q := range []float64{0, 0.01, 0.5, 0.95, 0.99, 1} {
					got, err := merged.Quantile(q)
					if err != nil {
						t.Fatal(err)
					}
					// Compare against ground truth within α plus the codec's
					// slack — both the source and the merged copy carry the
					// same guarantee.
					truth := exact.Quantile(sorted, q)
					if q == 0 && truth == 0 {
						truth = 0 // the zero bucket is exact
					}
					if rel := exact.RelativeError(got, truth); rel > confAlpha+tolerance+1e-9 {
						t.Errorf("q%g = %v vs exact %v: relative error %g", q, got, truth, rel)
					}
				}
				// A second merge of the same payload must double the count:
				// decoded payloads merge like any other sketch.
				if err := decodeInto(variant, payload); err != nil {
					t.Fatalf("second decode and merge: %v", err)
				}
				if got, want := variant.Count(), 2*source.Count(); exact.RelativeError(got, want) > tolerance {
					t.Errorf("count after second merge = %v, want %v", got, want)
				}
			})
		}
	}
}

// TestConformanceCrossCodecEncodeAs: every variant's snapshot encodes to
// the same bytes however often it is taken, for every codec — the
// variants add concurrency/retention, never bytes.
func TestConformanceCrossCodecEncodeAs(t *testing.T) {
	values := datagen.ByName("lognormal", 5_000)
	for _, codec := range ddsketch.Codecs() {
		for name, variant := range conformanceVariantsWith(t) {
			t.Run(codec.Name()+"/"+name, func(t *testing.T) {
				fillAll(t, variant, values)
				payload, err := variant.Snapshot().EncodeAs(codec.Name())
				if err != nil {
					t.Fatalf("EncodeAs(%s): %v", codec.Name(), err)
				}
				want, err := variant.Snapshot().EncodeAs(codec.Name())
				if err != nil {
					t.Fatal(err)
				}
				if string(payload) != string(want) {
					t.Error("two snapshots of an unchanged variant encode differently")
				}
				decoded, err := ddsketch.Decode(payload)
				if err != nil {
					t.Fatalf("Decode: %v", err)
				}
				tolerance := crossCodecTolerance(codec.Name(), confAlpha)
				if got, want := decoded.Count(), variant.Count(); exact.RelativeError(got, want) > tolerance {
					t.Errorf("decoded count = %v, want %v", got, want)
				}
			})
		}
	}
}

// TestConformanceCrossCodecUniformCollapse: the documented-lossiness
// case on the variant axis. A uniform-collapsed source exported to
// DataDog format loses its lineage exactly — the decoded sketch
// reports epoch 0 while preserving bins — and merging it into
// uniform-collapsing variants still answers within the coarsened α'.
func TestConformanceCrossCodecUniformCollapse(t *testing.T) {
	const maxBins = 64
	values := confValues()
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)

	source, err := ddsketch.NewUniformCollapsing(confAlpha, maxBins)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range values {
		if err := source.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if source.CollapseEpoch() == 0 {
		t.Fatal("source never collapsed; shrink maxBins")
	}
	alphaPrime := source.RelativeAccuracy()

	payload, err := source.EncodeAs("datadog")
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := ddsketch.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	// The documented flattening, asserted exactly.
	if got := decoded.CollapseEpoch(); got != 0 {
		t.Errorf("decoded CollapseEpoch = %d, want 0", got)
	}
	if got := decoded.UniformCollapseBins(); got != 0 {
		t.Errorf("decoded UniformCollapseBins = %d, want 0", got)
	}
	if got, want := decoded.NumBins(), source.NumBins(); got != want {
		t.Errorf("decoded NumBins = %d, want %d", got, want)
	}
	if got, want := decoded.RelativeAccuracy(), alphaPrime; exact.RelativeError(got, want) > 1e-12 {
		t.Errorf("decoded α = %v, want coarsened α' %v", got, want)
	}

	// Documented consequence of the flattening: the export no longer
	// carries the lineage that mixed-epoch fusion needs, so merging it
	// into a uniform-collapsing aggregate at the base accuracy is
	// rejected as a foreign mapping rather than silently mis-merged.
	for name, variant := range conformanceVariantsWith(t,
		ddsketch.WithUniformCollapse(maxBins)) {
		t.Run("lineage-lost/"+name, func(t *testing.T) {
			if err := decodeInto(variant, payload); !errors.Is(err, ddsketch.ErrIncompatibleSketches) {
				t.Errorf("decode and merge into uniform aggregate = %v, want ErrIncompatibleSketches", err)
			}
		})
	}

	// Merging into plain variants built at the flattened accuracy α'
	// works — the reconstructed mapping is Equals-compatible with a
	// freshly constructed one — and answers within α'.
	for name, variant := range conformanceVariantsOf(t, func() []ddsketch.Option {
		return []ddsketch.Option{ddsketch.WithRelativeAccuracy(alphaPrime)}
	}) {
		t.Run("flattened/"+name, func(t *testing.T) {
			if err := decodeInto(variant, payload); err != nil {
				t.Fatalf("decode and merge: %v", err)
			}
			if got, want := variant.Count(), source.Count(); exact.RelativeError(got, want) > 1e-12 {
				t.Errorf("count = %v, want %v", got, want)
			}
			merged := variant.Snapshot()
			for _, q := range []float64{0.05, 0.5, 0.95} {
				got, err := merged.Quantile(q)
				if err != nil {
					t.Fatal(err)
				}
				truth := exact.Quantile(sorted, q)
				if rel := exact.RelativeError(got, truth); rel > 2*alphaPrime+1e-9 {
					t.Errorf("q%g = %v vs exact %v: relative error %g exceeds α'=%g",
						q, got, truth, rel, alphaPrime)
				}
			}
		})
	}
}
