// Conformance suite: the same behavioral assertions — accuracy within
// α, merge equivalence, clear semantics, encode/decode round-trips,
// Quantiles/Summary consistency — run against every Sketch
// implementation, plus a merge-count probe asserting that one-pass
// reads really merge once.
package ddsketch_test

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/ddsketch-go/ddsketch"
	"github.com/ddsketch-go/ddsketch/internal/datagen"
	"github.com/ddsketch-go/ddsketch/internal/exact"
	"github.com/ddsketch-go/ddsketch/mapping"
	"github.com/ddsketch-go/ddsketch/store"
)

// Compile-time conformance checks: every variant implements Sketch.
var (
	_ ddsketch.Sketch = (*ddsketch.DDSketch)(nil)
	_ ddsketch.Sketch = (*ddsketch.Concurrent)(nil)
	_ ddsketch.Sketch = (*ddsketch.Sharded)(nil)
	_ ddsketch.Sketch = (*ddsketch.TimeWindowed)(nil)
	_ ddsketch.Sketch = (*ddsketch.WindowedSharded)(nil)
)

const (
	confAlpha   = 0.01
	confMaxBins = 2048
	confN       = 20_000
)

// conformanceVariantsWith returns a freshly-constructed sketch of every
// variant, all built through NewSketch with the same accuracy and the
// given base options (bin budget, collapse mode, …). The windowed
// variants use a fixed clock, so nothing rotates away during a test.
func conformanceVariantsWith(t *testing.T, base ...ddsketch.Option) map[string]ddsketch.Sketch {
	t.Helper()
	return conformanceVariantsOf(t, func() []ddsketch.Option {
		return append([]ddsketch.Option{
			ddsketch.WithRelativeAccuracy(confAlpha),
		}, base...)
	})
}

// conformanceVariantsOf is the general form: baseOpts returns the
// leading options (accuracy or mapping choice plus bounds) fresh for
// each variant, so the mapping-axis suite can swap WithRelativeAccuracy
// for WithMapping/WithFastDefaults without duplicating the variant
// matrix.
func conformanceVariantsOf(t *testing.T, baseOpts func() []ddsketch.Option) map[string]ddsketch.Sketch {
	t.Helper()
	clock := newFakeClock()
	build := func(opts ...ddsketch.Option) ddsketch.Sketch {
		t.Helper()
		opts = append(baseOpts(), opts...)
		s, err := ddsketch.NewSketch(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return map[string]ddsketch.Sketch{
		"DDSketch":   build(),
		"Concurrent": build(ddsketch.WithMutex()),
		"Sharded":    build(ddsketch.WithSharding(8)),
		"TimeWindowed": build(
			ddsketch.WithWindow(time.Minute, 4), ddsketch.WithClock(clock.Now)),
		"WindowedSharded": build(
			ddsketch.WithSharding(8),
			ddsketch.WithWindow(time.Minute, 4), ddsketch.WithClock(clock.Now)),
	}
}

// conformanceVariants is the default axis: collapsing stores bounded at
// confMaxBins.
func conformanceVariants(t *testing.T) map[string]ddsketch.Sketch {
	t.Helper()
	return conformanceVariantsWith(t, ddsketch.WithMaxBins(confMaxBins))
}

func confValues() []float64 {
	return datagen.ByName("pareto", confN)
}

func fillAll(t *testing.T, s ddsketch.Sketch, values []float64) {
	t.Helper()
	for _, v := range values {
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConformanceAccuracy: every variant answers quantiles within the
// relative-accuracy guarantee of the paper's Proposition 3.
func TestConformanceAccuracy(t *testing.T) {
	values := confValues()
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	for name, s := range conformanceVariants(t) {
		t.Run(name, func(t *testing.T) {
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
}

// TestConformanceMergeEquivalence: folding half the data in via
// MergeWith (and via DecodeAndMergeWith) answers exactly as a single
// sketch of the combined data — the paper's full mergeability (§2.3).
func TestConformanceMergeEquivalence(t *testing.T) {
	values := confValues()
	half := ddsketchOf(t, values[confN/2:])
	reference := ddsketchOf(t, values)
	qs := []float64{0, 0.1, 0.5, 0.9, 0.99, 1}
	want, err := reference.Quantiles(qs)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range conformanceVariants(t) {
		t.Run(name, func(t *testing.T) {
			fillAll(t, s, values[:confN/2])
			if err := s.MergeWith(half); err != nil {
				t.Fatalf("MergeWith: %v", err)
			}
			merged := s.Snapshot()
			got, err := merged.Quantiles(qs)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range qs {
				if got[i] != want[i] {
					t.Errorf("q=%g: merged %g != single-sketch %g", q, got[i], want[i])
				}
			}
			sum, err := merged.Sum()
			if err != nil {
				t.Fatal(err)
			}
			refSum, _ := reference.Sum()
			if rel := math.Abs(sum-refSum) / math.Abs(refSum); rel > 1e-9 {
				t.Errorf("Sum = %g, want %g (rel %g)", sum, refSum, rel)
			}

			// Same equivalence through the wire format.
			wire := conformanceVariants(t)[name]
			fillAll(t, wire, values[:confN/2])
			if err := decodeInto(wire, half.Encode()); err != nil {
				t.Fatalf("decode and merge: %v", err)
			}
			got, err = wire.Snapshot().Quantiles(qs)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range qs {
				if got[i] != want[i] {
					t.Errorf("q=%g: decode-merged %g != single-sketch %g", q, got[i], want[i])
				}
			}
		})
	}
}

// decodeInto decodes a payload and folds it into s, the way an
// aggregator ingests an agent's encoded sketch.
func decodeInto(s ddsketch.Sketch, data []byte) error {
	other, err := ddsketch.Decode(data)
	if err != nil {
		return err
	}
	return s.MergeWith(other)
}

func ddsketchOf(t *testing.T, values []float64) *ddsketch.DDSketch {
	t.Helper()
	s, err := ddsketch.NewCollapsing(confAlpha, confMaxBins)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range values {
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// batchConfValues builds a batch workload exercising every routing path:
// positives, negatives (negative store), zeros and sub-indexable
// magnitudes (zero counter).
func batchConfValues(n int) []float64 {
	values := datagen.ByName("pareto", n)
	out := append([]float64(nil), values...)
	for i := range out {
		switch {
		case i%7 == 3:
			out[i] = -out[i]
		case i%11 == 5:
			out[i] = 0
		case i%13 == 7:
			out[i] = 1e-310 // sub-indexable: routed to the zero counter
		}
	}
	return out
}

// collectBins flattens a plain sketch into its (representative value,
// count) pairs in ascending value order.
func collectBins(s *ddsketch.DDSketch) [][2]float64 {
	var bins [][2]float64
	s.ForEach(func(value, count float64) bool {
		bins = append(bins, [2]float64{value, count})
		return true
	})
	return bins
}

// assertBinIdentical fails unless got and want hold exactly the same
// bins with exactly the same counts.
func assertBinIdentical(t *testing.T, got, want *ddsketch.DDSketch) {
	t.Helper()
	gotBins, wantBins := collectBins(got), collectBins(want)
	if len(gotBins) != len(wantBins) {
		t.Fatalf("bin count %d != %d", len(gotBins), len(wantBins))
	}
	for i := range gotBins {
		if gotBins[i] != wantBins[i] {
			t.Errorf("bin %d: (value, count) = %v, want %v", i, gotBins[i], wantBins[i])
		}
	}
}

// TestConformanceAddBatch: every variant's AddBatch is bin-for-bin
// identical to the equivalent per-value Add loop — including an empty
// batch in the middle, negatives and zeros routed to their stores, and
// identical exact statistics.
func TestConformanceAddBatch(t *testing.T) {
	values := batchConfValues(confN)
	for name, batched := range conformanceVariants(t) {
		t.Run(name, func(t *testing.T) {
			perValue := conformanceVariants(t)[name]
			fillAll(t, perValue, values)

			// Several batches of uneven sizes, plus empty and nil ones.
			if err := batched.AddBatch(nil); err != nil {
				t.Fatalf("AddBatch(nil): %v", err)
			}
			for lo, step := 0, 1; lo < len(values); step *= 3 {
				hi := lo + step
				if hi > len(values) {
					hi = len(values)
				}
				if err := batched.AddBatch(values[lo:hi]); err != nil {
					t.Fatalf("AddBatch[%d:%d]: %v", lo, hi, err)
				}
				if err := batched.AddBatch([]float64{}); err != nil {
					t.Fatalf("AddBatch(empty): %v", err)
				}
				lo = hi
			}

			bs, ps := batched.Snapshot(), perValue.Snapshot()
			assertBinIdentical(t, bs, ps)
			if got, want := batched.Count(), perValue.Count(); got != want {
				t.Errorf("Count = %g, want %g", got, want)
			}
			for stat, pair := range map[string][2]func() (float64, error){
				"Min": {bs.Min, ps.Min},
				"Max": {bs.Max, ps.Max},
			} {
				if got, want := mustQuery(t, pair[0]), mustQuery(t, pair[1]); got != want {
					t.Errorf("%s = %g, want %g", stat, got, want)
				}
			}
			// Sum accumulation order differs across shards, so exact
			// float equality is only guaranteed for the unsharded
			// variants; everywhere it agrees to rounding error.
			got, want := mustQuery(t, bs.Sum), mustQuery(t, ps.Sum)
			if rel := math.Abs(got-want) / math.Abs(want); rel > 1e-9 {
				t.Errorf("Sum = %g, want %g (rel %g)", got, want, rel)
			}
		})
	}
}

// TestConformanceAddBatchWithCount: the weighted batch path matches the
// equivalent AddWithCount loop.
func TestConformanceAddBatchWithCount(t *testing.T) {
	values := batchConfValues(4000)
	const weight = 2.5
	for name, batched := range conformanceVariants(t) {
		t.Run(name, func(t *testing.T) {
			perValue := conformanceVariants(t)[name]
			for _, v := range values {
				if err := perValue.AddWithCount(v, weight); err != nil {
					t.Fatal(err)
				}
			}
			if err := batched.AddBatchWithCount(values, weight); err != nil {
				t.Fatal(err)
			}
			assertBinIdentical(t, batched.Snapshot(), perValue.Snapshot())
			if got, want := batched.Count(), perValue.Count(); got != want {
				t.Errorf("Count = %g, want %g", got, want)
			}
		})
	}
}

// TestConformanceAddBatchErrors: an invalid count is rejected up front;
// a value that cannot be indexed stops the batch exactly where the
// per-value loop would, leaving the prefix recorded.
func TestConformanceAddBatchErrors(t *testing.T) {
	for name, s := range conformanceVariants(t) {
		t.Run(name, func(t *testing.T) {
			for _, count := range []float64{0, -1, math.NaN()} {
				if err := s.AddBatchWithCount([]float64{1, 2}, count); !errors.Is(err, ddsketch.ErrNegativeCount) {
					t.Errorf("count %v: err = %v, want ErrNegativeCount", count, err)
				}
			}
			if got := s.Count(); got != 0 {
				t.Fatalf("Count after rejected counts = %g, want 0", got)
			}

			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64} {
				s.Clear()
				err := s.AddBatch([]float64{1, 2, bad, 3})
				if !errors.Is(err, ddsketch.ErrValueOutOfRange) {
					t.Errorf("bad value %v: err = %v, want ErrValueOutOfRange", bad, err)
				}
				if got := s.Count(); got != 2 {
					t.Errorf("bad value %v: Count = %g, want 2 (prefix recorded)", bad, got)
				}
			}
		})
	}
}

// TestConformanceAddBatchErrorBytes: a mid-batch failure produces a
// byte-identical error message whichever path recorded the prefix — the
// hoisted non-uniform loop, the chunked uniform loop, or any variant's
// delegation (including Sharded, which must re-offset the chunk-relative
// index its shard saw).
func TestConformanceAddBatchErrorBytes(t *testing.T) {
	values := batchConfValues(2000)
	// Deep inside a later Sharded chunk, so an unadjusted chunk-relative
	// index could not pass for the batch-relative one.
	const badIndex = 1700
	poisoned := append([]float64(nil), values...)
	poisoned[badIndex] = math.NaN()

	for cfgName, base := range map[string][]ddsketch.Option{
		"collapsing": {ddsketch.WithMaxBins(confMaxBins)},
		// A budget wide enough that nothing collapses before the poison
		// pill: a collapse would change the indexable bounds the message
		// reports, and with Sharded's random chunk placement, the epoch at
		// the failure point would no longer be deterministic.
		"uniform": {ddsketch.WithUniformCollapse(1 << 20)},
	} {
		t.Run(cfgName, func(t *testing.T) {
			ref, err := ddsketch.NewSketch(append(
				[]ddsketch.Option{ddsketch.WithRelativeAccuracy(confAlpha)}, base...)...)
			if err != nil {
				t.Fatal(err)
			}
			refErr := ref.AddBatch(poisoned)
			if !errors.Is(refErr, ddsketch.ErrValueOutOfRange) {
				t.Fatalf("reference err = %v, want ErrValueOutOfRange", refErr)
			}
			want := refErr.Error()
			if !strings.Contains(want, fmt.Sprintf("(batch index %d)", badIndex)) {
				t.Fatalf("reference error %q does not report batch index %d", want, badIndex)
			}
			for name, s := range conformanceVariantsWith(t, base...) {
				err := s.AddBatch(poisoned)
				if !errors.Is(err, ddsketch.ErrValueOutOfRange) {
					t.Errorf("%s: err = %v, want ErrValueOutOfRange", name, err)
					continue
				}
				if got := err.Error(); got != want {
					t.Errorf("%s: error %q, want byte-identical %q", name, got, want)
				}
				if got := s.Count(); got != badIndex {
					t.Errorf("%s: Count = %g, want %d (prefix recorded)", name, got, badIndex)
				}
			}
		})
	}
}

// tickingClock advances on every reading — the adversarial clock for
// batch/rotation interplay: a per-value loop against it would scatter a
// batch across windows.
type tickingClock struct {
	now  time.Time
	step time.Duration
}

func (c *tickingClock) Now() time.Time {
	c.now = c.now.Add(c.step)
	return c.now
}

// TestAddBatchSingleRotationCheck: a batch performs exactly one rotation
// check, attributing every value to the interval current when the batch
// begins — even when the clock crosses interval boundaries while the
// batch is in flight.
func TestAddBatchSingleRotationCheck(t *testing.T) {
	clock := &tickingClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC), step: time.Second}
	s, err := ddsketch.NewSketch(
		ddsketch.WithRelativeAccuracy(confAlpha),
		ddsketch.WithMaxBins(confMaxBins),
		ddsketch.WithWindow(time.Minute, 4),
		ddsketch.WithClock(clock.Now),
	)
	if err != nil {
		t.Fatal(err)
	}
	w := s.(*ddsketch.TimeWindowed)

	// 120 values: at one clock tick per value, a per-value loop would
	// rotate mid-stream and split the batch across two intervals.
	batch := make([]float64, 120)
	for i := range batch {
		batch[i] = 7
	}
	if err := w.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := w.Trailing(1).Count(); got != float64(len(batch)) {
		t.Errorf("current-interval count = %g, want %d (batch split across a rotation)",
			got, len(batch))
	}
}

// TestAddBatchAcrossWindowRotation: batches issued in different
// intervals land in different ring slots, and the merged view matches
// the per-value reference driven by the same clock readings.
func TestAddBatchAcrossWindowRotation(t *testing.T) {
	values := batchConfValues(8000)
	build := func(clock *fakeClock) *ddsketch.TimeWindowed {
		t.Helper()
		s, err := ddsketch.NewSketch(
			ddsketch.WithRelativeAccuracy(confAlpha),
			ddsketch.WithMaxBins(confMaxBins),
			ddsketch.WithWindow(time.Minute, 4),
			ddsketch.WithClock(clock.Now),
		)
		if err != nil {
			t.Fatal(err)
		}
		return s.(*ddsketch.TimeWindowed)
	}
	batchClock, refClock := newFakeClock(), newFakeClock()
	batched, reference := build(batchClock), build(refClock)

	quarter := len(values) / 4
	for i := 0; i < 4; i++ {
		part := values[i*quarter : (i+1)*quarter]
		if err := batched.AddBatch(part); err != nil {
			t.Fatal(err)
		}
		for _, v := range part {
			if err := reference.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		batchClock.Advance(time.Minute)
		refClock.Advance(time.Minute)
	}
	assertBinIdentical(t, batched.Snapshot(), reference.Snapshot())
	// Per-interval attribution also matches: each trailing depth sees
	// the same count.
	for k := 1; k <= 4; k++ {
		if got, want := batched.Trailing(k).Count(), reference.Trailing(k).Count(); got != want {
			t.Errorf("Trailing(%d) count = %g, want %g", k, got, want)
		}
	}
}

// TestConformanceClearSemantics: Clear empties the sketch, queries on
// the emptied sketch fail with ErrEmptySketch, and the sketch remains
// usable afterwards.
func TestConformanceClearSemantics(t *testing.T) {
	for name, s := range conformanceVariants(t) {
		t.Run(name, func(t *testing.T) {
			fillAll(t, s, confValues()[:1000])
			s.Clear()
			if got := s.Count(); got != 0 {
				t.Fatalf("Count after Clear = %g", got)
			}
			snap := s.Snapshot()
			if _, err := snap.Quantile(0.5); !errors.Is(err, ddsketch.ErrEmptySketch) {
				t.Errorf("Quantile after Clear: err = %v, want ErrEmptySketch", err)
			}
			for fn, query := range map[string]func() (float64, error){
				"Sum": snap.Sum, "Min": snap.Min, "Max": snap.Max, "Avg": snap.Avg,
			} {
				if _, err := query(); !errors.Is(err, ddsketch.ErrEmptySketch) {
					t.Errorf("%s after Clear: err = %v, want ErrEmptySketch", fn, err)
				}
			}
			if _, err := s.Summary(0.5); !errors.Is(err, ddsketch.ErrEmptySketch) {
				t.Errorf("Summary after Clear: err = %v, want ErrEmptySketch", err)
			}

			// Still usable.
			if err := s.Add(7); err != nil {
				t.Fatal(err)
			}
			if got := s.Count(); got != 1 {
				t.Fatalf("Count after re-Add = %g, want 1", got)
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
}

// TestConformanceEncodeDecodeRoundTrip: encoding any variant's snapshot
// yields a payload Decode reconstructs losslessly.
func TestConformanceEncodeDecodeRoundTrip(t *testing.T) {
	values := confValues()
	qs := []float64{0, 0.25, 0.5, 0.95, 1}
	for name, s := range conformanceVariants(t) {
		t.Run(name, func(t *testing.T) {
			fillAll(t, s, values)
			decoded, err := ddsketch.Decode(s.Snapshot().Encode())
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if got, want := decoded.Count(), s.Count(); got != want {
				t.Errorf("decoded Count = %g, want %g", got, want)
			}
			original := s.Snapshot()
			want, err := original.Quantiles(qs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := decoded.Quantiles(qs)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range qs {
				if got[i] != want[i] {
					t.Errorf("q=%g: decoded %g != original %g", q, got[i], want[i])
				}
			}
			for fn, pair := range map[string][2]func() (float64, error){
				"Sum": {decoded.Sum, original.Sum},
				"Min": {decoded.Min, original.Min},
				"Max": {decoded.Max, original.Max},
			} {
				got, err := pair[0]()
				if err != nil {
					t.Fatal(err)
				}
				want, err := pair[1]()
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("decoded %s = %g, want %g", fn, got, want)
				}
			}
		})
	}
}

// TestConformanceQuantilesMatchQuantile is the property test: for every
// variant, Quantiles(qs) on one snapshot equals elementwise what per-q
// Quantile(q) calls on fresh snapshots return against the same (static)
// data.
func TestConformanceQuantilesMatchQuantile(t *testing.T) {
	values := confValues()
	qs := make([]float64, 0, 101)
	for i := 0; i <= 100; i++ {
		qs = append(qs, float64(i)/100)
	}
	for name, s := range conformanceVariants(t) {
		t.Run(name, func(t *testing.T) {
			fillAll(t, s, values)
			batch, err := s.Snapshot().Quantiles(qs)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range qs {
				single, err := s.Snapshot().Quantile(q)
				if err != nil {
					t.Fatalf("Quantile(%g): %v", q, err)
				}
				if batch[i] != single {
					t.Errorf("q=%g: Quantiles %g != Quantile %g", q, batch[i], single)
				}
			}

			// Error cases agree with Quantile's.
			if _, err := s.Snapshot().Quantiles([]float64{0.5, 1.5}); err == nil {
				t.Error("Quantiles with out-of-range q: no error")
			}
		})
	}
}

// TestConformanceSummaryMatchesIndividualReads: the one-pass Summary
// reports exactly what N independent reads, each off its own snapshot,
// report.
func TestConformanceSummaryMatchesIndividualReads(t *testing.T) {
	values := confValues()
	qs := []float64{0.5, 0.9, 0.99}
	for name, s := range conformanceVariants(t) {
		t.Run(name, func(t *testing.T) {
			fillAll(t, s, values)
			summary, err := s.Summary(qs...)
			if err != nil {
				t.Fatal(err)
			}
			for fn, pair := range map[string][2]float64{
				"Count": {summary.Count, s.Count()},
				"Sum":   {summary.Sum, mustQuery(t, s.Snapshot().Sum)},
				"Min":   {summary.Min, mustQuery(t, s.Snapshot().Min)},
				"Max":   {summary.Max, mustQuery(t, s.Snapshot().Max)},
				"Avg":   {summary.Avg, mustQuery(t, s.Snapshot().Avg)},
			} {
				if pair[0] != pair[1] {
					t.Errorf("Summary.%s = %g, individual read = %g", fn, pair[0], pair[1])
				}
			}
			if len(summary.Quantiles) != len(qs) {
				t.Fatalf("Summary has %d quantiles, want %d", len(summary.Quantiles), len(qs))
			}
			for i, qv := range summary.Quantiles {
				if qv.Q != qs[i] {
					t.Errorf("quantile %d: Q = %g, want %g", i, qv.Q, qs[i])
				}
				single, err := s.Snapshot().Quantile(qs[i])
				if err != nil {
					t.Fatal(err)
				}
				if qv.Value != single {
					t.Errorf("q=%g: Summary %g != Quantile %g", qs[i], qv.Value, single)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Uniform-collapse axis: the same behavioral suites, under a tiny
// WithUniformCollapse budget that forces every variant to collapse —
// shards and window slots independently — and reconcile on read.

const confUniformBins = 64

// conformanceUniformVariants mirrors conformanceVariants with
// WithUniformCollapse(confUniformBins) instead of WithMaxBins.
func conformanceUniformVariants(t *testing.T) map[string]ddsketch.Sketch {
	t.Helper()
	return conformanceVariantsWith(t, ddsketch.WithUniformCollapse(confUniformBins))
}

// alphaAfterEpochs iterates the uniform-collapse accuracy recurrence
// α' = 2α/(1+α²) — the same float expression Coarsen evaluates, so the
// expected and actual accuracies match bit for bit.
func alphaAfterEpochs(alpha float64, epochs int) float64 {
	for i := 0; i < epochs; i++ {
		alpha = 2 * alpha / (1 + alpha*alpha)
	}
	return alpha
}

// uniformConfValues is a wide-dynamic-range workload (an exponential
// ramp shuffled into pareto noise, plus negatives and zeros) that
// overflows confUniformBins many times over at α = confAlpha.
func uniformConfValues(n int) []float64 {
	values := datagen.ByName("pareto", n)
	ramp := datagen.ExpRamp(n, 9)
	out := append([]float64(nil), values...)
	for i := range out {
		switch {
		case i%3 == 1:
			out[i] = ramp[i]
		case i%7 == 3:
			out[i] = -out[i]
		case i%11 == 5:
			out[i] = 0
		}
	}
	return out
}

// assertUniformInvariants checks the uniform-collapse contract on a
// merged snapshot: the combined bin count never exceeds the budget, the
// collapse actually fired, the current α equals the recurrence
// α' = 2α/(1+α²) applied epoch times, and every tested quantile is
// within that α' of the exact quantile.
func assertUniformInvariants(t *testing.T, snapshot *ddsketch.DDSketch, sorted []float64) {
	t.Helper()
	// The zero counter is O(1) memory and outside the bin budget.
	if bins := snapshot.NumBins(); bins > confUniformBins+1 {
		t.Errorf("NumBins = %d exceeds uniform budget %d", bins, confUniformBins)
	}
	epoch := snapshot.CollapseEpoch()
	if epoch == 0 {
		t.Fatal("sketch never collapsed: workload too narrow for the test to mean anything")
	}
	wantAlpha := alphaAfterEpochs(confAlpha, epoch)
	if got := snapshot.RelativeAccuracy(); got != wantAlpha {
		t.Errorf("epoch %d: RelativeAccuracy = %v, want exactly %v (α' = 2α/(1+α²) per epoch)",
			epoch, got, wantAlpha)
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1} {
		est, err := snapshot.Quantile(q)
		if err != nil {
			t.Fatalf("Quantile(%g): %v", q, err)
		}
		truth := exact.Quantile(sorted, q)
		if rel := exact.RelativeError(est, truth); rel > wantAlpha*(1+1e-9) {
			t.Errorf("q=%g: estimate %g vs exact %g: relative error %g exceeds α'=%g at epoch %d",
				q, est, truth, rel, wantAlpha, epoch)
		}
	}
}

// TestConformanceUniformAccuracy: every variant under a tiny uniform
// budget stays within the bin bound and the epoch-adjusted α'
// guarantee at every tested quantile.
func TestConformanceUniformAccuracy(t *testing.T) {
	values := uniformConfValues(confN)
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	for name, s := range conformanceUniformVariants(t) {
		t.Run(name, func(t *testing.T) {
			fillAll(t, s, values)
			if got := s.Count(); got != confN {
				t.Fatalf("Count = %g, want %d", got, confN)
			}
			assertUniformInvariants(t, s.Snapshot(), sorted)

			// Summary agrees with the snapshot on the degraded accuracy.
			summary, err := s.Summary(0.5)
			if err != nil {
				t.Fatal(err)
			}
			snap := s.Snapshot()
			if summary.CollapseEpoch != snap.CollapseEpoch() {
				t.Errorf("Summary.CollapseEpoch = %d, snapshot epoch = %d",
					summary.CollapseEpoch, snap.CollapseEpoch())
			}
			if summary.RelativeAccuracy != snap.RelativeAccuracy() {
				t.Errorf("Summary.RelativeAccuracy = %v, snapshot α' = %v",
					summary.RelativeAccuracy, snap.RelativeAccuracy())
			}
		})
	}
}

// TestConformanceUniformMergeMixedEpochs: every variant accepts merges
// from sketches at finer and coarser collapse epochs — the shape of a
// fleet where agents under different traffic collapsed a different
// number of times — preserving count and sum exactly and the α'
// guarantee of the final epoch.
func TestConformanceUniformMergeMixedEpochs(t *testing.T) {
	values := uniformConfValues(confN)
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)

	// A fine (never-collapsed) agent and a coarse (multiply-collapsed)
	// agent over disjoint halves of the stream.
	fine, err := ddsketch.NewUniformCollapsing(confAlpha, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := ddsketch.NewUniformCollapsing(confAlpha, confUniformBins)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range values[:confN/2] {
		if err := fine.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range values[confN/2:] {
		if err := coarse.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if fine.CollapseEpoch() != 0 || coarse.CollapseEpoch() == 0 {
		t.Fatalf("want epochs 0 and >0, got %d and %d", fine.CollapseEpoch(), coarse.CollapseEpoch())
	}
	fineSum, _ := fine.Sum()
	coarseSum, _ := coarse.Sum()

	for name, s := range conformanceUniformVariants(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.MergeWith(fine); err != nil {
				t.Fatalf("MergeWith(fine): %v", err)
			}
			if err := decodeInto(s, coarse.Encode()); err != nil {
				t.Fatalf("decode and merge (coarse): %v", err)
			}
			if got := s.Count(); got != confN {
				t.Fatalf("Count = %g, want %d (merge must preserve weight)", got, confN)
			}
			snap := s.Snapshot()
			sum, err := snap.Sum()
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(sum-(fineSum+coarseSum)) / math.Abs(fineSum+coarseSum); rel > 1e-9 {
				t.Errorf("Sum = %g, want %g", sum, fineSum+coarseSum)
			}
			assertUniformInvariants(t, snap, sorted)

			// The merge arguments are untouched.
			if fine.CollapseEpoch() != 0 {
				t.Error("MergeWith collapsed its argument")
			}
			if got := fine.Count(); got != confN/2 {
				t.Errorf("merge argument Count = %g, want %d", got, confN/2)
			}
		})
	}
}

// TestConformanceUniformClear: Clear returns every variant to epoch 0
// and full α accuracy, and the sketch remains usable.
func TestConformanceUniformClear(t *testing.T) {
	values := uniformConfValues(4000)
	for name, s := range conformanceUniformVariants(t) {
		t.Run(name, func(t *testing.T) {
			fillAll(t, s, values)
			if s.Snapshot().CollapseEpoch() == 0 {
				t.Fatal("sketch never collapsed")
			}
			s.Clear()
			if s.Count() > 0 {
				t.Fatal("sketch not empty after Clear")
			}
			if _, err := s.Snapshot().Quantile(0.5); !errors.Is(err, ddsketch.ErrEmptySketch) {
				t.Errorf("Quantile after Clear: err = %v, want ErrEmptySketch", err)
			}
			if err := s.Add(7); err != nil {
				t.Fatal(err)
			}
			snap := s.Snapshot()
			if got := snap.CollapseEpoch(); got != 0 {
				t.Errorf("epoch after Clear = %d, want 0 (accuracy budget restarts)", got)
			}
			if got := snap.RelativeAccuracy(); got != confAlpha {
				t.Errorf("α after Clear = %v, want %v", got, confAlpha)
			}
			est, err := snap.Quantile(0.5)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(est-7)/7 > confAlpha {
				t.Errorf("median after re-Add = %g, want ≈7 within full α", est)
			}
		})
	}
}

// TestConformanceUniformRoundTrip: the encoding carries the collapse epoch,
// so a decoded sketch answers identically, reports the same α'/epoch,
// and keeps collapsing at the same budget.
func TestConformanceUniformRoundTrip(t *testing.T) {
	values := uniformConfValues(confN)
	qs := []float64{0, 0.25, 0.5, 0.95, 1}
	for name, s := range conformanceUniformVariants(t) {
		t.Run(name, func(t *testing.T) {
			fillAll(t, s, values)
			snap := s.Snapshot()
			decoded, err := ddsketch.Decode(snap.Encode())
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if got, want := decoded.CollapseEpoch(), snap.CollapseEpoch(); got != want {
				t.Errorf("decoded epoch = %d, want %d", got, want)
			}
			if got, want := decoded.RelativeAccuracy(), snap.RelativeAccuracy(); got != want {
				t.Errorf("decoded α' = %v, want %v", got, want)
			}
			if got, want := decoded.UniformCollapseBins(), confUniformBins; got != want {
				t.Errorf("decoded bin budget = %d, want %d", got, want)
			}
			assertBinIdentical(t, decoded, snap)
			want, err := snap.Quantiles(qs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := decoded.Quantiles(qs)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range qs {
				if got[i] != want[i] {
					t.Errorf("q=%g: decoded %g != original %g", q, got[i], want[i])
				}
			}
		})
	}
}

// midBatchCollapseValues is the mid-batch-collapse workload: an
// 18-decade logarithmic ramp in a deterministic Weyl-style shuffle, so
// every contiguous sub-slice — every batchChunk, and every chunk
// Sharded hands to a shard — spans (almost) the full dynamic range and
// overflows a small uniform budget many times inside one AddBatch.
// Negatives and zeros are mixed in to exercise both stores and the zero
// counter across collapses.
func midBatchCollapseValues(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		pos := float64((uint64(i)*2654435761)%uint64(n)) / float64(n)
		v := 1e-9 * math.Pow(10, 18*pos)
		switch {
		case i%7 == 3:
			v = -v
		case i%11 == 5:
			v = 0
		}
		out[i] = v
	}
	return out
}

// collapseTo pre-coarsens a snapshot to the given epoch, the explicit
// form of the reconciliation MergeWith performs.
func collapseTo(t *testing.T, s *ddsketch.DDSketch, epoch int) {
	t.Helper()
	for s.CollapseEpoch() < epoch {
		if err := s.CollapseUniformly(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConformanceUniformMidBatchCollapse: a single AddBatch that forces
// several collapse epochs produces, on every variant, exactly the bins,
// epoch, and α' the equivalent per-value loop produces — the chunked
// batch path's re-hoist after each collapse check is invisible in the
// answers. Budget 4 drives the collapse recurrence nearly to
// exhaustion; 512 collapses a realistic store a couple of times.
func TestConformanceUniformMidBatchCollapse(t *testing.T) {
	values := midBatchCollapseValues(8192)
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	for _, budget := range []int{4, 8, 512} {
		base := []ddsketch.Option{ddsketch.WithUniformCollapse(budget)}
		for name, batched := range conformanceVariantsWith(t, base...) {
			t.Run(fmt.Sprintf("budget=%d/%s", budget, name), func(t *testing.T) {
				perValue := conformanceVariantsWith(t, base...)[name]
				if err := batched.AddBatch(values); err != nil {
					t.Fatalf("AddBatch: %v", err)
				}
				fillAll(t, perValue, values)

				bs, ps := batched.Snapshot(), perValue.Snapshot()
				if bs.CollapseEpoch() < 2 {
					t.Fatalf("batch path collapsed %d times, want ≥2 (the mid-batch collapses are the point)",
						bs.CollapseEpoch())
				}
				// Both paths obey the α' = 2α/(1+α²) recurrence bit-exactly
				// at whatever epoch they reached.
				for which, snap := range map[string]*ddsketch.DDSketch{"batch": bs, "perValue": ps} {
					if got, want := snap.RelativeAccuracy(), alphaAfterEpochs(confAlpha, snap.CollapseEpoch()); got != want {
						t.Errorf("%s: RelativeAccuracy = %v, want exactly %v (α' recurrence at epoch %d)",
							which, got, want, snap.CollapseEpoch())
					}
				}
				switch name {
				case "DDSketch", "Concurrent", "TimeWindowed":
					// Deterministic routing: the two loops must land on the
					// same epoch, not just equivalent bins.
					if bs.CollapseEpoch() != ps.CollapseEpoch() {
						t.Fatalf("epoch: batch %d != perValue %d", bs.CollapseEpoch(), ps.CollapseEpoch())
					}
				default:
					// Sharded routing is randomized, so the merged epochs can
					// differ run to run; align both snapshots (folding
					// commutes with insertion) before comparing bins.
					top := max(bs.CollapseEpoch(), ps.CollapseEpoch())
					collapseTo(t, bs, top)
					collapseTo(t, ps, top)
				}
				assertBinIdentical(t, bs, ps)
				if got, want := bs.Count(), ps.Count(); got != want {
					t.Errorf("Count = %g, want %g", got, want)
				}
				for stat, pair := range map[string][2]func() (float64, error){
					"Min": {bs.Min, ps.Min}, "Max": {bs.Max, ps.Max},
				} {
					if got, want := mustQuery(t, pair[0]), mustQuery(t, pair[1]); got != want {
						t.Errorf("%s = %g, want %g", stat, got, want)
					}
				}
				gotSum, wantSum := mustQuery(t, bs.Sum), mustQuery(t, ps.Sum)
				if rel := math.Abs(gotSum-wantSum) / math.Abs(wantSum); rel > 1e-9 {
					t.Errorf("Sum = %g, want %g (rel %g)", gotSum, wantSum, rel)
				}
				// The epoch's α' guarantee holds across the whole range even
				// after the batch-path collapses.
				alphaE := bs.RelativeAccuracy()
				for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 1} {
					est, err := bs.Quantile(q)
					if err != nil {
						t.Fatalf("Quantile(%g): %v", q, err)
					}
					truth := exact.Quantile(sorted, q)
					if rel := exact.RelativeError(est, truth); rel > alphaE*(1+1e-9) {
						t.Errorf("q=%g: estimate %g vs exact %g: relative error %g exceeds α'=%g",
							q, est, truth, rel, alphaE)
					}
				}
			})
		}
	}
}

func mustQuery(t *testing.T, query func() (float64, error)) float64 {
	t.Helper()
	v, err := query()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// countingStore wraps a Store and counts MergeWith calls through a
// shared counter, surviving the Copy calls sketches make internally —
// the probe behind the one-merge-pass assertions.
type countingStore struct {
	store.Store
	merges *int
}

func (c *countingStore) MergeWith(other store.Store) {
	*c.merges++
	if o, ok := other.(*countingStore); ok {
		other = o.Store
	}
	c.Store.MergeWith(other)
}

func (c *countingStore) Copy() store.Store {
	return &countingStore{Store: c.Store.Copy(), merges: c.merges}
}

func countingProvider(merges *int) store.Provider {
	return func() store.Store {
		return &countingStore{Store: store.NewDenseStore(), merges: merges}
	}
}

func countingPrototype(t *testing.T, merges *int) *ddsketch.DDSketch {
	t.Helper()
	m, err := mapping.NewLogarithmic(confAlpha)
	if err != nil {
		t.Fatal(err)
	}
	return ddsketch.NewWithConfig(m, countingProvider(merges), countingProvider(merges))
}

// TestShardedSummarySingleMergePass is the merge-count probe: a Summary
// read on a Sharded sketch merges each shard exactly once (two store
// merges per shard: positive and negative), however many statistics it
// returns, while reading each quantile off its own snapshot re-merges
// for every quantile.
func TestShardedSummarySingleMergePass(t *testing.T) {
	merges := 0
	s := ddsketch.NewSharded(countingPrototype(t, &merges), 8)
	fillAll(t, s, confValues()[:5000])
	perPass := 2 * s.NumShards()

	merges = 0
	if _, err := s.Summary(0.5, 0.95, 0.99); err != nil {
		t.Fatal(err)
	}
	if merges != perPass {
		t.Errorf("Summary with 3 quantiles: %d store merges, want %d (one pass)", merges, perPass)
	}

	merges = 0
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if _, err := s.Snapshot().Quantile(q); err != nil {
			t.Fatal(err)
		}
	}
	// Count reads shard counters without merging.
	_ = s.Count()
	if merges != 3*perPass {
		t.Errorf("naive per-query reads: %d store merges, want %d (one pass per quantile)",
			merges, 3*perPass)
	}
}

// TestTimeWindowedSummarySingleMergePass: Summary and Trailing merge the
// ring once per call; reading each quantile off its own Trailing copy
// merges it once per quantile.
func TestTimeWindowedSummarySingleMergePass(t *testing.T) {
	merges := 0
	clock := newFakeClock()
	w, err := ddsketch.NewTimeWindowedWithClock(countingPrototype(t, &merges), time.Minute, 4, clock.Now)
	if err != nil {
		t.Fatal(err)
	}
	values := confValues()[:4000]
	for i, v := range values {
		if err := w.Add(v); err != nil {
			t.Fatal(err)
		}
		if i%1000 == 999 {
			clock.Advance(time.Minute)
		}
	}
	perSlot := 2 // positive and negative store

	merges = 0
	if _, err := w.Summary(0.5, 0.95, 0.99); err != nil {
		t.Fatal(err)
	}
	if want := perSlot * w.Windows(); merges != want {
		t.Errorf("Summary with 3 quantiles: %d store merges, want %d (one ring pass)", merges, want)
	}

	merges = 0
	if _, err := w.Trailing(2).Quantiles([]float64{0.5, 0.95, 0.99}); err != nil {
		t.Fatal(err)
	}
	if want := perSlot * 2; merges != want {
		t.Errorf("Trailing(2).Quantiles: %d store merges, want %d", merges, want)
	}

	merges = 0
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if _, err := w.Trailing(2).Quantile(q); err != nil {
			t.Fatal(err)
		}
	}
	if want := 3 * perSlot * 2; merges != want {
		t.Errorf("per-q Trailing(2).Quantile ×3: %d store merges, want %d", merges, want)
	}

	// The one-pass reads agree with the per-q reads, merge counting aside.
	batch, err := w.Trailing(2).Quantiles([]float64{0.5, 0.95, 0.99})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range []float64{0.5, 0.95, 0.99} {
		single, err := w.Trailing(2).Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != single {
			t.Errorf("q=%g: Quantiles %g != Quantile %g", q, batch[i], single)
		}
	}
}

// TestNewSketchVariants: the options compose into the documented
// concrete types.
func TestNewSketchVariants(t *testing.T) {
	clock := newFakeClock()
	cases := []struct {
		name string
		opts []ddsketch.Option
		want string
	}{
		{"plain", nil, "*ddsketch.DDSketch"},
		{"mutex", []ddsketch.Option{ddsketch.WithMutex()}, "*ddsketch.Concurrent"},
		{"sharded", []ddsketch.Option{ddsketch.WithSharding(4)}, "*ddsketch.Sharded"},
		{"windowed", []ddsketch.Option{
			ddsketch.WithWindow(time.Second, 3), ddsketch.WithClock(clock.Now)},
			"*ddsketch.TimeWindowed"},
		{"windowed-sharded", []ddsketch.Option{
			ddsketch.WithSharding(4), ddsketch.WithWindow(time.Second, 3)},
			"*ddsketch.WindowedSharded"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := ddsketch.NewSketch(c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			var got string
			switch s.(type) {
			case *ddsketch.DDSketch:
				got = "*ddsketch.DDSketch"
			case *ddsketch.Concurrent:
				got = "*ddsketch.Concurrent"
			case *ddsketch.Sharded:
				got = "*ddsketch.Sharded"
			case *ddsketch.TimeWindowed:
				got = "*ddsketch.TimeWindowed"
			case *ddsketch.WindowedSharded:
				got = "*ddsketch.WindowedSharded"
			}
			if got != c.want {
				t.Errorf("NewSketch(%s) = %s, want %s", c.name, got, c.want)
			}
		})
	}
}

// TestNewSketchOptionErrors: invalid and mutually exclusive options are
// rejected with ErrInvalidOption.
func TestNewSketchOptionErrors(t *testing.T) {
	logMapping, err := mapping.NewLogarithmic(confAlpha)
	if err != nil {
		t.Fatal(err)
	}
	dense := store.DenseStoreProvider()
	cases := []struct {
		name string
		opts []ddsketch.Option
	}{
		{"mapping+accuracy", []ddsketch.Option{
			ddsketch.WithMapping(logMapping), ddsketch.WithRelativeAccuracy(0.01)}},
		{"stores+maxbins", []ddsketch.Option{
			ddsketch.WithStores(dense, dense), ddsketch.WithMaxBins(2048)}},
		{"mutex+sharding", []ddsketch.Option{
			ddsketch.WithMutex(), ddsketch.WithSharding(4)}},
		{"mutex+window", []ddsketch.Option{
			ddsketch.WithMutex(), ddsketch.WithWindow(time.Second, 3)}},
		{"clock-without-window", []ddsketch.Option{
			ddsketch.WithClock(newFakeClock().Now)}},
		{"nil-mapping", []ddsketch.Option{ddsketch.WithMapping(nil)}},
		{"nil-stores", []ddsketch.Option{ddsketch.WithStores(nil, nil)}},
		{"nil-clock", []ddsketch.Option{
			ddsketch.WithWindow(time.Second, 3), ddsketch.WithClock(nil)}},
		{"zero-maxbins", []ddsketch.Option{ddsketch.WithMaxBins(0)}},
		{"zero-interval", []ddsketch.Option{ddsketch.WithWindow(0, 3)}},
		{"zero-windows", []ddsketch.Option{ddsketch.WithWindow(time.Second, 0)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ddsketch.NewSketch(c.opts...); !errors.Is(err, ddsketch.ErrInvalidOption) {
				t.Errorf("NewSketch: err = %v, want ErrInvalidOption", err)
			}
		})
	}

	// Bad accuracy surfaces the mapping's own validation.
	if _, err := ddsketch.NewSketch(ddsketch.WithRelativeAccuracy(2)); err == nil {
		t.Error("NewSketch(WithRelativeAccuracy(2)): no error")
	}
}
