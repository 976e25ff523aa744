// Conformance mapping axis: the behavioral suite of conformance_test.go
// run across the §4 interpolated mappings. The default suite exercises
// the logarithmic mapping (NewSketch's default); these tests assert that
// swapping in a linearly, quadratically, or cubically interpolated
// mapping — via WithMapping or WithFastDefaults — changes none of the
// contracts: accuracy within α, exact merge equivalence (locally and
// through the wire), clear semantics, lossless round-trips, bin-exact
// batch ingestion, and uniform collapse with the α' recurrence.
package ddsketch_test

import (
	"errors"
	"math"
	"sort"
	"testing"

	"github.com/ddsketch-go/ddsketch"
	"github.com/ddsketch-go/ddsketch/internal/exact"
	"github.com/ddsketch-go/ddsketch/mapping"
)

// confMappingNames are the non-default mappings of the axis; the
// logarithmic default is covered by the main conformance suite.
var confMappingNames = []string{"linear", "quadratic", "cubic"}

func newConfMapping(t *testing.T, name string) mapping.IndexMapping {
	t.Helper()
	var (
		m   mapping.IndexMapping
		err error
	)
	switch name {
	case "log":
		m, err = mapping.NewLogarithmic(confAlpha)
	case "linear":
		m, err = mapping.NewLinearlyInterpolated(confAlpha)
	case "quadratic":
		m, err = mapping.NewQuadraticallyInterpolated(confAlpha)
	case "cubic":
		m, err = mapping.NewCubicallyInterpolated(confAlpha)
	default:
		t.Fatalf("unknown conformance mapping %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// conformanceMappingVariants mirrors conformanceVariantsWith but selects
// the index mapping explicitly (WithMapping carries its own accuracy, so
// it replaces WithRelativeAccuracy).
func conformanceMappingVariants(t *testing.T, mappingName string, base ...ddsketch.Option) map[string]ddsketch.Sketch {
	t.Helper()
	return conformanceVariantsOf(t, func() []ddsketch.Option {
		return append([]ddsketch.Option{
			ddsketch.WithMapping(newConfMapping(t, mappingName)),
		}, base...)
	})
}

// forEachMappingVariant runs fn for every mapping × variant cell of the
// bounded (WithMaxBins) axis.
func forEachMappingVariant(t *testing.T, fn func(t *testing.T, mappingName, variant string, s ddsketch.Sketch)) {
	for _, mappingName := range confMappingNames {
		for variant, s := range conformanceMappingVariants(t, mappingName, ddsketch.WithMaxBins(confMaxBins)) {
			t.Run(mappingName+"/"+variant, func(t *testing.T) {
				fn(t, mappingName, variant, s)
			})
		}
	}
}

// TestConformanceMappingAccuracy: every variant honors the α guarantee
// under every interpolated mapping.
func TestConformanceMappingAccuracy(t *testing.T) {
	values := confValues()
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	forEachMappingVariant(t, func(t *testing.T, mappingName, variant string, s ddsketch.Sketch) {
		fillAll(t, s, values)
		if got := s.Count(); got != confN {
			t.Fatalf("Count = %g, want %d", got, confN)
		}
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1} {
			est, err := s.Snapshot().Quantile(q)
			if err != nil {
				t.Fatalf("Quantile(%g): %v", q, err)
			}
			truth := exact.Quantile(sorted, q)
			if rel := exact.RelativeError(est, truth); rel > confAlpha+1e-9 {
				t.Errorf("q=%g: estimate %g vs exact %g: relative error %g exceeds α=%g",
					q, est, truth, rel, confAlpha)
			}
		}
	})
}

// TestConformanceMappingMergeEquivalence: merging — locally and through
// the wire — answers exactly as one sketch of the combined data, for
// every mapping.
func TestConformanceMappingMergeEquivalence(t *testing.T) {
	values := confValues()
	qs := []float64{0, 0.1, 0.5, 0.9, 0.99, 1}
	for _, mappingName := range confMappingNames {
		reference := mappingSketchOf(t, mappingName, values)
		half := mappingSketchOf(t, mappingName, values[confN/2:])
		want, err := reference.Quantiles(qs)
		if err != nil {
			t.Fatal(err)
		}
		for variant, s := range conformanceMappingVariants(t, mappingName, ddsketch.WithMaxBins(confMaxBins)) {
			t.Run(mappingName+"/"+variant, func(t *testing.T) {
				fillAll(t, s, values[:confN/2])
				if err := s.MergeWith(half); err != nil {
					t.Fatalf("MergeWith: %v", err)
				}
				assertQuantilesEqual(t, s, qs, want, "merged")

				wire := conformanceMappingVariants(t, mappingName, ddsketch.WithMaxBins(confMaxBins))[variant]
				fillAll(t, wire, values[:confN/2])
				if err := decodeInto(wire, half.Encode()); err != nil {
					t.Fatalf("decode and merge: %v", err)
				}
				assertQuantilesEqual(t, wire, qs, want, "decode-merged")
			})
		}
	}
}

// TestConformanceMappingClear: Clear empties and the sketch stays usable
// under every mapping.
func TestConformanceMappingClear(t *testing.T) {
	forEachMappingVariant(t, func(t *testing.T, mappingName, variant string, s ddsketch.Sketch) {
		fillAll(t, s, confValues()[:1000])
		s.Clear()
		if s.Count() != 0 {
			t.Fatalf("after Clear: Count = %g", s.Count())
		}
		if _, err := s.Snapshot().Quantile(0.5); !errors.Is(err, ddsketch.ErrEmptySketch) {
			t.Errorf("Quantile after Clear: err = %v, want ErrEmptySketch", err)
		}
		if err := s.Add(7); err != nil {
			t.Fatal(err)
		}
		est, err := s.Snapshot().Quantile(0.5)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est-7)/7 > confAlpha {
			t.Errorf("median after re-Add = %g, want ≈7", est)
		}
	})
}

// TestConformanceMappingRoundTrip: Encode/Decode is lossless for every
// mapping — bin-identical, with the mapping itself surviving equal.
func TestConformanceMappingRoundTrip(t *testing.T) {
	values := confValues()
	forEachMappingVariant(t, func(t *testing.T, mappingName, variant string, s ddsketch.Sketch) {
		fillAll(t, s, values)
		snap := s.Snapshot()
		decoded, err := ddsketch.Decode(snap.Encode())
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		assertBinIdentical(t, decoded, snap)
		if got, want := decoded.Count(), snap.Count(); got != want {
			t.Errorf("decoded Count = %g, want %g", got, want)
		}
		if !decoded.IndexMapping().Equals(snap.IndexMapping()) {
			t.Errorf("decoded mapping %v does not equal original %v",
				decoded.IndexMapping(), snap.IndexMapping())
		}
	})
}

// TestConformanceMappingBatchIdentity: AddBatch is bin-for-bin identical
// to per-value Add under every mapping — the devirtualized indexChunk
// arms must agree exactly with the interface call they replace.
func TestConformanceMappingBatchIdentity(t *testing.T) {
	values := batchConfValues(confN)
	for _, mappingName := range confMappingNames {
		for variant, batched := range conformanceMappingVariants(t, mappingName, ddsketch.WithMaxBins(confMaxBins)) {
			t.Run(mappingName+"/"+variant, func(t *testing.T) {
				perValue := conformanceMappingVariants(t, mappingName, ddsketch.WithMaxBins(confMaxBins))[variant]
				fillAll(t, perValue, values)
				for lo, step := 0, 1; lo < len(values); step *= 3 {
					hi := lo + step
					if hi > len(values) {
						hi = len(values)
					}
					if err := batched.AddBatch(values[lo:hi]); err != nil {
						t.Fatalf("AddBatch[%d:%d]: %v", lo, hi, err)
					}
					lo = hi
				}
				assertBinIdentical(t, batched.Snapshot(), perValue.Snapshot())
				if got, want := batched.Count(), perValue.Count(); got != want {
					t.Errorf("Count = %g, want %g", got, want)
				}
			})
		}
	}
}

// TestConformanceMappingUniformCollapse: uniform collapse composes with
// every mapping on every variant — budget respected, α' follows the
// recurrence bit-exactly, quantiles within the degraded guarantee.
func TestConformanceMappingUniformCollapse(t *testing.T) {
	values := uniformConfValues(confN)
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	for _, mappingName := range confMappingNames {
		for variant, s := range conformanceMappingVariants(t, mappingName, ddsketch.WithUniformCollapse(confUniformBins)) {
			t.Run(mappingName+"/"+variant, func(t *testing.T) {
				fillAll(t, s, values)
				if got := s.Count(); got != confN {
					t.Fatalf("Count = %g, want %d", got, confN)
				}
				assertUniformInvariants(t, s.Snapshot(), sorted)
			})
		}
	}
}

// TestConformanceFastDefaults: WithFastDefaults builds every variant on
// the cubic mapping — equal bins to an explicit WithMapping(cubic)
// sketch of the same data — while still composing with
// WithRelativeAccuracy and uniform collapse.
func TestConformanceFastDefaults(t *testing.T) {
	values := confValues()
	explicit := mappingSketchOf(t, "cubic", values)
	variants := conformanceVariantsOf(t, func() []ddsketch.Option {
		return []ddsketch.Option{
			ddsketch.WithFastDefaults(),
			ddsketch.WithRelativeAccuracy(confAlpha),
			ddsketch.WithMaxBins(confMaxBins),
		}
	})
	for variant, s := range variants {
		t.Run(variant, func(t *testing.T) {
			fillAll(t, s, values)
			snap := s.Snapshot()
			if !snap.IndexMapping().Equals(explicit.IndexMapping()) {
				t.Fatalf("fast-default mapping %v does not equal the explicit cubic %v",
					snap.IndexMapping(), explicit.IndexMapping())
			}
			assertBinIdentical(t, snap, explicit)
		})
	}

	uniform, err := ddsketch.NewSketch(
		ddsketch.WithFastDefaults(), ddsketch.WithUniformCollapse(confUniformBins))
	if err != nil {
		t.Fatalf("WithFastDefaults + WithUniformCollapse: %v", err)
	}
	wide := uniformConfValues(confN)
	sorted := append([]float64(nil), wide...)
	sort.Float64s(sorted)
	fillAll(t, uniform, wide)
	assertUniformInvariants(t, uniform.(*ddsketch.DDSketch).Snapshot(), sorted)
}

// mappingSketchOf builds the plain-DDSketch reference for a mapping axis
// cell, mirroring ddsketchOf.
func mappingSketchOf(t *testing.T, mappingName string, values []float64) *ddsketch.DDSketch {
	t.Helper()
	s, err := ddsketch.NewSketch(
		ddsketch.WithMapping(newConfMapping(t, mappingName)),
		ddsketch.WithMaxBins(confMaxBins))
	if err != nil {
		t.Fatal(err)
	}
	dd := s.(*ddsketch.DDSketch)
	fillAll(t, dd, values)
	return dd
}

// assertQuantilesEqual fails unless s answers qs exactly as want.
func assertQuantilesEqual(t *testing.T, s ddsketch.Sketch, qs, want []float64, label string) {
	t.Helper()
	got, err := s.Snapshot().Quantiles(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if got[i] != want[i] {
			t.Errorf("q=%g: %s %g != single-sketch %g", q, label, got[i], want[i])
		}
	}
}
