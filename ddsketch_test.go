package ddsketch

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/ddsketch-go/ddsketch/internal/exact"
	"github.com/ddsketch-go/ddsketch/mapping"
	"github.com/ddsketch-go/ddsketch/store"
)

const testAlpha = 0.01

type sketchCase struct {
	name string
	new  func() (*DDSketch, error)
}

var sketchCases = []sketchCase{
	{"unbounded", func() (*DDSketch, error) { return New(testAlpha) }},
	{"collapsing", func() (*DDSketch, error) { return NewCollapsing(testAlpha, 2048) }},
	{"collapsingHighest", func() (*DDSketch, error) { return NewCollapsingHighest(testAlpha, 2048) }},
	{"fast", func() (*DDSketch, error) { return NewFast(testAlpha, 4096) }},
	{"cubic", func() (*DDSketch, error) {
		m, err := mapping.NewCubicallyInterpolated(testAlpha)
		if err != nil {
			return nil, err
		}
		return NewWithConfig(m, store.DenseStoreProvider(), store.DenseStoreProvider()), nil
	}},
}

func mustSketch(t *testing.T, c sketchCase) *DDSketch {
	t.Helper()
	s, err := c.new()
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return s
}

func addAll(t *testing.T, s *DDSketch, values []float64) {
	t.Helper()
	for _, v := range values {
		if err := s.Add(v); err != nil {
			t.Fatalf("Add(%g): %v", v, err)
		}
	}
}

// checkQuantileAccuracy asserts the paper's Proposition 3: every quantile
// estimate is within relative error α of the exact lower quantile.
func checkQuantileAccuracy(t *testing.T, name string, s *DDSketch, values []float64) {
	t.Helper()
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	tolerance := s.RelativeAccuracy() * (1 + 1e-9)
	for _, q := range []float64{0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1} {
		got, err := s.Quantile(q)
		if err != nil {
			t.Fatalf("%s: Quantile(%g): %v", name, q, err)
		}
		want := exact.Quantile(sorted, q)
		if want == 0 {
			if got != 0 {
				t.Errorf("%s: Quantile(%g) = %g, want exactly 0", name, q, got)
			}
			continue
		}
		if relErr := math.Abs(got-want) / math.Abs(want); relErr > tolerance {
			t.Errorf("%s: Quantile(%g) = %g, want %g (rel err %g > %g)",
				name, q, got, want, relErr, s.RelativeAccuracy())
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	for _, alpha := range []float64{0, 1, -1, 2, math.NaN()} {
		if _, err := New(alpha); err == nil {
			t.Errorf("New(%g): want error", alpha)
		}
		if _, err := NewCollapsing(alpha, 100); err == nil {
			t.Errorf("NewCollapsing(%g): want error", alpha)
		}
		if _, err := NewFast(alpha, 100); err == nil {
			t.Errorf("NewFast(%g): want error", alpha)
		}
		if _, err := NewCollapsingHighest(alpha, 100); err == nil {
			t.Errorf("NewCollapsingHighest(%g): want error", alpha)
		}
	}
}

func TestQuantileAccuracyUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	values := make([]float64, 10000)
	for i := range values {
		values[i] = rng.Float64()*1000 + 1
	}
	for _, c := range sketchCases {
		s := mustSketch(t, c)
		addAll(t, s, values)
		checkQuantileAccuracy(t, c.name, s, values)
	}
}

func TestQuantileAccuracyHeavyTail(t *testing.T) {
	// Pareto-like data: the regime the paper targets.
	rng := rand.New(rand.NewSource(2))
	values := make([]float64, 20000)
	for i := range values {
		values[i] = 1 / (1 - rng.Float64()) // Pareto(a=1, b=1)
	}
	for _, c := range sketchCases {
		s := mustSketch(t, c)
		addAll(t, s, values)
		checkQuantileAccuracy(t, c.name, s, values)
	}
}

func TestQuantileAccuracyMixedSigns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	values := make([]float64, 9000)
	for i := range values {
		switch i % 3 {
		case 0:
			values[i] = math.Exp(rng.NormFloat64()) // positive, lognormal
		case 1:
			values[i] = -math.Exp(rng.NormFloat64()) // negative
		default:
			values[i] = 0
		}
	}
	rng.Shuffle(len(values), func(i, j int) { values[i], values[j] = values[j], values[i] })
	for _, c := range sketchCases {
		s := mustSketch(t, c)
		addAll(t, s, values)
		checkQuantileAccuracy(t, c.name, s, values)
	}
}

func TestQuantileAccuracySmallCounts(t *testing.T) {
	for _, c := range sketchCases {
		for n := 1; n <= 10; n++ {
			s := mustSketch(t, c)
			values := make([]float64, n)
			for i := range values {
				values[i] = float64(i + 1)
			}
			addAll(t, s, values)
			checkQuantileAccuracy(t, c.name, s, values)
		}
	}
}

func TestQuantileSingleValue(t *testing.T) {
	for _, c := range sketchCases {
		s := mustSketch(t, c)
		if err := s.Add(42); err != nil {
			t.Fatal(err)
		}
		for _, q := range []float64{0, 0.5, 1} {
			got, err := s.Quantile(q)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if math.Abs(got-42)/42 > testAlpha {
				t.Errorf("%s: Quantile(%g) = %g, want ≈42", c.name, q, got)
			}
		}
	}
}

func TestQuantilesBatch(t *testing.T) {
	s, _ := New(testAlpha)
	for i := 1; i <= 100; i++ {
		_ = s.Add(float64(i))
	}
	qs := []float64{0.1, 0.5, 0.9}
	got, err := s.Quantiles(qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for i, q := range qs {
		want, _ := s.Quantile(q)
		if got[i] != want {
			t.Errorf("Quantiles[%d] = %g, want %g", i, got[i], want)
		}
	}
	if _, err := s.Quantiles([]float64{0.5, 1.5}); err == nil {
		t.Error("Quantiles with out-of-range q: want error")
	}
}

func TestQuantileErrors(t *testing.T) {
	s, _ := New(testAlpha)
	if _, err := s.Quantile(0.5); err == nil {
		t.Error("Quantile on empty sketch: want ErrEmptySketch")
	}
	_ = s.Add(1)
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := s.Quantile(q); err == nil {
			t.Errorf("Quantile(%g): want error", q)
		}
	}
}

func TestAddErrors(t *testing.T) {
	s, _ := New(testAlpha)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64} {
		if err := s.Add(v); err == nil {
			t.Errorf("Add(%g): want error", v)
		}
	}
	if !s.IsEmpty() {
		t.Error("failed Adds must not modify the sketch")
	}
	for _, count := range []float64{0, -1, math.NaN()} {
		if err := s.AddWithCount(1, count); err == nil {
			t.Errorf("AddWithCount(1, %g): want error", count)
		}
	}
}

func TestZeroAndTinyValues(t *testing.T) {
	s, _ := New(testAlpha)
	_ = s.Add(0)
	_ = s.Add(0)
	_ = s.Add(math.SmallestNonzeroFloat64) // below min indexable: counted as zero
	_ = s.Add(-math.SmallestNonzeroFloat64)
	if got := s.ZeroCount(); got != 4 {
		t.Errorf("ZeroCount = %g, want 4", got)
	}
	if got := s.Count(); got != 4 {
		t.Errorf("Count = %g, want 4", got)
	}
	v, err := s.Quantile(0.5)
	if err != nil || v != 0 {
		t.Errorf("Quantile(0.5) = (%g, %v), want 0", v, err)
	}
}

func TestExactSummaryStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, c := range sketchCases {
		s := mustSketch(t, c)
		values := make([]float64, 1000)
		sum := 0.0
		for i := range values {
			values[i] = rng.NormFloat64() * 100
			sum += values[i]
		}
		addAll(t, s, values)
		sorted := append([]float64(nil), values...)
		sort.Float64s(sorted)
		if got := s.Count(); got != 1000 {
			t.Errorf("%s: Count = %g", c.name, got)
		}
		if got, err := s.Min(); err != nil || got != sorted[0] {
			t.Errorf("%s: Min = (%g, %v), want %g", c.name, got, err, sorted[0])
		}
		if got, err := s.Max(); err != nil || got != sorted[len(sorted)-1] {
			t.Errorf("%s: Max = (%g, %v), want %g", c.name, got, err, sorted[len(sorted)-1])
		}
		if got, err := s.Sum(); err != nil || math.Abs(got-sum) > 1e-6*math.Abs(sum) {
			t.Errorf("%s: Sum = (%g, %v), want %g", c.name, got, err, sum)
		}
		if got, err := s.Avg(); err != nil || math.Abs(got-sum/1000) > 1e-6*math.Abs(sum/1000) {
			t.Errorf("%s: Avg = (%g, %v), want %g", c.name, got, err, sum/1000)
		}
	}
}

func TestStatisticsErrorsOnEmpty(t *testing.T) {
	s, _ := New(testAlpha)
	if _, err := s.Min(); err == nil {
		t.Error("Min on empty: want error")
	}
	if _, err := s.Max(); err == nil {
		t.Error("Max on empty: want error")
	}
	if _, err := s.Sum(); err == nil {
		t.Error("Sum on empty: want error")
	}
	if _, err := s.Avg(); err == nil {
		t.Error("Avg on empty: want error")
	}
	if _, err := s.CDF(1); err == nil {
		t.Error("CDF on empty: want error")
	}
}

func TestWeightedAddMatchesRepeatedAdd(t *testing.T) {
	for _, c := range sketchCases {
		weighted := mustSketch(t, c)
		repeated := mustSketch(t, c)
		values := []float64{1.5, 2.75, 100, 0.001, -3.5, 0}
		for _, v := range values {
			if err := weighted.AddWithCount(v, 7); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 7; i++ {
				if err := repeated.Add(v); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, q := range []float64{0, 0.2, 0.5, 0.8, 1} {
			a, err1 := weighted.Quantile(q)
			b, err2 := repeated.Quantile(q)
			if err1 != nil || err2 != nil || a != b {
				t.Errorf("%s: weighted %g vs repeated %g at q=%g", c.name, a, b, q)
			}
		}
		if weighted.Count() != repeated.Count() {
			t.Errorf("%s: counts differ", c.name)
		}
	}
}

func TestFractionalWeights(t *testing.T) {
	s, _ := New(testAlpha)
	_ = s.AddWithCount(10, 0.5)
	_ = s.AddWithCount(20, 0.25)
	if got := s.Count(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("Count = %g, want 0.75", got)
	}
	v, err := s.Quantile(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-10)/10 > testAlpha {
		t.Errorf("Quantile(0) = %g, want ≈10", v)
	}
}

func TestDeleteRestoresPreviousState(t *testing.T) {
	// Adding then deleting a batch must restore all bucket-level queries,
	// because bucket boundaries are data-independent (§2.1).
	for _, c := range sketchCases {
		if c.name == "collapsing" || c.name == "collapsingHighest" || c.name == "fast" {
			continue // deletion after collapse is undefined
		}
		s := mustSketch(t, c)
		kept := []float64{1, 2, 3, 500, 0.04}
		transient := []float64{7, -9, 0, 3.3e4}
		addAll(t, s, kept)
		addAll(t, s, transient)
		for _, v := range transient {
			if err := s.Delete(v); err != nil {
				t.Fatalf("%s: Delete(%g): %v", c.name, v, err)
			}
		}
		if got := s.Count(); got != float64(len(kept)) {
			t.Errorf("%s: Count after delete = %g, want %d", c.name, got, len(kept))
		}
		reference := mustSketch(t, c)
		addAll(t, reference, kept)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
			a, err1 := s.Quantile(q)
			b, err2 := reference.Quantile(q)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: %v %v", c.name, err1, err2)
			}
			// min/max clamping may differ (deletions do not restore
			// extrema), so compare with the α tolerance.
			if exact.RelativeError(a, b) > 2*testAlpha {
				t.Errorf("%s: q=%g: deleted %g vs reference %g", c.name, q, a, b)
			}
		}
	}
}

func TestDeleteToEmpty(t *testing.T) {
	s, _ := New(testAlpha)
	_ = s.Add(5)
	_ = s.Add(-5)
	_ = s.Add(0)
	_ = s.Delete(5)
	_ = s.Delete(-5)
	_ = s.Delete(0)
	if !s.IsEmpty() {
		t.Fatalf("sketch not empty after symmetric deletes: count=%g", s.Count())
	}
	if _, err := s.Quantile(0.5); err == nil {
		t.Error("Quantile on emptied sketch: want error")
	}
	// Reusable after emptying.
	_ = s.Add(3)
	if v, err := s.Quantile(1); err != nil || math.Abs(v-3)/3 > testAlpha {
		t.Errorf("Quantile after reuse = (%g, %v)", v, err)
	}
}

func TestDeleteErrors(t *testing.T) {
	s, _ := New(testAlpha)
	_ = s.Add(1)
	for _, count := range []float64{0, -2, math.NaN()} {
		if err := s.DeleteWithCount(1, count); err == nil {
			t.Errorf("DeleteWithCount(1, %g): want error", count)
		}
	}
	if err := s.Delete(math.NaN()); err == nil {
		t.Error("Delete(NaN): want error")
	}
}

func TestMergeMatchesUnionSketch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := make([]float64, 3000)
	b := make([]float64, 5000)
	for i := range a {
		a[i] = math.Exp(rng.NormFloat64() * 2)
	}
	for i := range b {
		b[i] = -math.Exp(rng.NormFloat64())
	}
	for _, c := range sketchCases {
		sa := mustSketch(t, c)
		sb := mustSketch(t, c)
		union := mustSketch(t, c)
		addAll(t, sa, a)
		addAll(t, sb, b)
		addAll(t, union, a)
		addAll(t, union, b)
		if err := sa.MergeWith(sb); err != nil {
			t.Fatalf("%s: MergeWith: %v", c.name, err)
		}
		// Full mergeability: the merged sketch answers exactly as the
		// union sketch (bucket counts are identical).
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 1} {
			got, err1 := sa.Quantile(q)
			want, err2 := union.Quantile(q)
			if err1 != nil || err2 != nil || got != want {
				t.Errorf("%s: merged Quantile(%g) = %g, union = %g", c.name, q, got, want)
			}
		}
		if sa.Count() != union.Count() {
			t.Errorf("%s: merged count %g, union %g", c.name, sa.Count(), union.Count())
		}
		gotSum, _ := sa.Sum()
		wantSum, _ := union.Sum()
		if math.Abs(gotSum-wantSum) > 1e-6*math.Abs(wantSum) {
			t.Errorf("%s: merged sum %g, union %g", c.name, gotSum, wantSum)
		}
	}
}

func TestMergeIsCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := make([]float64, 1000)
	b := make([]float64, 1000)
	for i := range a {
		a[i] = rng.Float64() * 100
		b[i] = rng.Float64()*100 + 50
	}
	s1, _ := New(testAlpha)
	s2, _ := New(testAlpha)
	s3, _ := New(testAlpha)
	s4, _ := New(testAlpha)
	addAll(t, s1, a)
	addAll(t, s2, b)
	addAll(t, s3, a)
	addAll(t, s4, b)
	if err := s1.MergeWith(s2); err != nil { // a <- b
		t.Fatal(err)
	}
	if err := s4.MergeWith(s3); err != nil { // b <- a
		t.Fatal(err)
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
		v1, _ := s1.Quantile(q)
		v2, _ := s4.Quantile(q)
		if v1 != v2 {
			t.Errorf("merge not commutative at q=%g: %g vs %g", q, v1, v2)
		}
	}
}

func TestMergeWithEmptySketches(t *testing.T) {
	s, _ := New(testAlpha)
	_ = s.Add(1)
	empty, _ := New(testAlpha)
	if err := s.MergeWith(empty); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 1 {
		t.Errorf("merge with empty changed count: %g", s.Count())
	}
	empty2, _ := New(testAlpha)
	if err := empty2.MergeWith(s); err != nil {
		t.Fatal(err)
	}
	if empty2.Count() != 1 {
		t.Errorf("merge into empty: count %g", empty2.Count())
	}
	min, err := empty2.Min()
	if err != nil || min != 1 {
		t.Errorf("merged min = (%g, %v), want 1", min, err)
	}
}

func TestMergeIncompatibleMappings(t *testing.T) {
	s1, _ := New(0.01)
	s2, _ := New(0.02)
	if err := s1.MergeWith(s2); err == nil {
		t.Error("merging different alphas: want error")
	}
	s3, _ := NewFast(0.01, 100)
	if err := s1.MergeWith(s3); err == nil {
		t.Error("merging different mapping types: want error")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range sketchCases {
		s := mustSketch(t, c)
		for i := 0; i < 2000; i++ {
			v := math.Exp(rng.NormFloat64() * 3)
			if i%5 == 0 {
				v = -v
			}
			if i%17 == 0 {
				v = 0
			}
			if err := s.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		data := s.Encode()
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: Decode: %v", c.name, err)
		}
		if got.Count() != s.Count() {
			t.Errorf("%s: decoded count %g, want %g", c.name, got.Count(), s.Count())
		}
		gm, _ := got.Min()
		sm, _ := s.Min()
		if gm != sm {
			t.Errorf("%s: decoded min %g, want %g", c.name, gm, sm)
		}
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
			a, err1 := got.Quantile(q)
			b, err2 := s.Quantile(q)
			if err1 != nil || err2 != nil || a != b {
				t.Errorf("%s: decoded Quantile(%g) = %g, want %g", c.name, q, a, b)
			}
		}
		// A decoded sketch must accept further inserts and merges.
		if err := got.Add(123.456); err != nil {
			t.Errorf("%s: Add on decoded sketch: %v", c.name, err)
		}
		if err := got.MergeWith(s); err != nil {
			t.Errorf("%s: MergeWith on decoded sketch: %v", c.name, err)
		}
	}
}

func TestSerializationEmptySketch(t *testing.T) {
	s, _ := NewCollapsing(testAlpha, 512)
	got, err := Decode(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsEmpty() {
		t.Error("decoded empty sketch is not empty")
	}
	if err := got.Add(1); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{'D'},
		{'X', 'X', 'X', 1},
		{'D', 'D', 'S', 99}, // bad version
		{'D', 'D', 'S'},     // truncated before version
	}
	for _, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("Decode(%v): want error", data)
		}
	}
	// Corrupt tail of a valid encoding.
	s, _ := New(testAlpha)
	_ = s.Add(1)
	data := s.Encode()
	if _, err := Decode(data[:len(data)-2]); err == nil {
		t.Error("Decode(truncated): want error")
	}
}

func TestDecodeAndMergeWith(t *testing.T) {
	s1, _ := New(testAlpha)
	s2, _ := New(testAlpha)
	_ = s1.Add(1)
	_ = s2.Add(100)
	if err := s1.DecodeAndMergeWith(s2.Encode()); err != nil {
		t.Fatal(err)
	}
	if s1.Count() != 2 {
		t.Errorf("count = %g, want 2", s1.Count())
	}
	if err := s1.DecodeAndMergeWith([]byte{1, 2, 3}); err == nil {
		t.Error("DecodeAndMergeWith(garbage): want error")
	}
}

func TestCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	values := make([]float64, 5000)
	for i := range values {
		values[i] = rng.NormFloat64() * 10
	}
	s, _ := New(testAlpha)
	addAll(t, s, values)
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)

	// CDF at the extremes.
	if p, err := s.CDF(sorted[len(sorted)-1] * 2); err != nil || p != 1 {
		t.Errorf("CDF(beyond max) = (%g, %v), want 1", p, err)
	}
	if p, err := s.CDF(sorted[0] * 2); err != nil || p != 0 { // sorted[0] < 0, so *2 is below min
		t.Errorf("CDF(below min) = (%g, %v), want 0", p, err)
	}
	// CDF must approximately invert quantiles.
	for _, q := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		v, err := s.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.CDF(v)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p-q) > 0.02 {
			t.Errorf("CDF(Quantile(%g)) = %g", q, p)
		}
	}
	// CDF is monotone.
	prev := -1.0
	for _, v := range []float64{-30, -10, -1, 0, 1, 10, 30} {
		p, err := s.CDF(v)
		if err != nil {
			t.Fatal(err)
		}
		if p < prev {
			t.Errorf("CDF not monotone at %g: %g < %g", v, p, prev)
		}
		prev = p
	}
	if _, err := s.CDF(math.NaN()); err == nil {
		t.Error("CDF(NaN): want error")
	}
}

func TestForEachAscendingAndComplete(t *testing.T) {
	s, _ := New(testAlpha)
	values := []float64{-5, -0.5, 0, 0, 2, 1000}
	addAll(t, s, values)
	var seen []float64
	total := 0.0
	s.ForEach(func(v, c float64) bool {
		seen = append(seen, v)
		total += c
		return true
	})
	if total != float64(len(values)) {
		t.Errorf("ForEach total count = %g, want %d", total, len(values))
	}
	if !sort.Float64sAreSorted(seen) {
		t.Errorf("ForEach values not ascending: %v", seen)
	}
	// Early stop.
	calls := 0
	s.ForEach(func(v, c float64) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Errorf("ForEach did not stop early: %d calls", calls)
	}
}

func TestCopyIndependence(t *testing.T) {
	for _, c := range sketchCases {
		s := mustSketch(t, c)
		_ = s.Add(1)
		_ = s.Add(-2)
		_ = s.Add(0)
		cp := s.Copy()
		_ = s.Add(100)
		if cp.Count() != 3 {
			t.Errorf("%s: copy count = %g, want 3", c.name, cp.Count())
		}
		_ = cp.Add(7)
		_ = cp.Add(8)
		if s.Count() != 4 {
			t.Errorf("%s: original count = %g, want 4", c.name, s.Count())
		}
	}
}

func TestClearAndReuse(t *testing.T) {
	for _, c := range sketchCases {
		s := mustSketch(t, c)
		_ = s.Add(5)
		_ = s.Add(-5)
		_ = s.Add(0)
		s.Clear()
		if !s.IsEmpty() || s.NumBins() != 0 {
			t.Errorf("%s: Clear left count=%g bins=%d", c.name, s.Count(), s.NumBins())
		}
		if _, err := s.Min(); err == nil {
			t.Errorf("%s: Min after Clear: want error", c.name)
		}
		_ = s.Add(9)
		if v, err := s.Quantile(0.5); err != nil || math.Abs(v-9)/9 > testAlpha {
			t.Errorf("%s: Quantile after Clear+Add = (%g, %v)", c.name, v, err)
		}
	}
}

func TestNumBinsAndSize(t *testing.T) {
	s, _ := New(testAlpha)
	if s.NumBins() != 0 {
		t.Errorf("empty NumBins = %d", s.NumBins())
	}
	_ = s.Add(0)
	if s.NumBins() != 1 { // zero bucket
		t.Errorf("NumBins with zero only = %d", s.NumBins())
	}
	_ = s.Add(5)
	_ = s.Add(-5)
	if s.NumBins() != 3 {
		t.Errorf("NumBins = %d, want 3", s.NumBins())
	}
	if s.SizeBytes() <= 0 {
		t.Errorf("SizeBytes = %d", s.SizeBytes())
	}
}

func TestCollapsedFlagAndProposition4(t *testing.T) {
	// Force collapsing with a tiny bin budget, then verify the paper's
	// Proposition 4: quantiles whose buckets survive stay α-accurate.
	const maxBins = 64
	s, err := NewCollapsing(testAlpha, maxBins)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	values := make([]float64, 50000)
	for i := range values {
		values[i] = math.Exp(rng.Float64()*12 - 6) // ~5 decades: overflows 64 bins
	}
	addAll(t, s, values)
	if !s.Collapsed() {
		t.Fatal("sketch did not collapse")
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	gamma := (1 + testAlpha) / (1 - testAlpha)
	x1 := sorted[len(sorted)-1]
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1} {
		xq := exact.Quantile(sorted, q)
		if x1 > xq*math.Pow(gamma, maxBins-1) {
			continue // Proposition 4 precondition not met for this q
		}
		got, err := s.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		if relErr := math.Abs(got-xq) / xq; relErr > testAlpha*(1+1e-9) {
			t.Errorf("q=%g: rel err %g > α after collapse (Proposition 4 violated)", q, relErr)
		}
	}
	// The lowest quantile has been collapsed away: it should NOT be
	// accurate (sanity check that the test actually exercised collapse).
	v0, _ := s.Quantile(0)
	if exact.RelativeError(v0, sorted[0]) <= testAlpha {
		t.Log("note: q=0 still accurate (collapse did not reach it)")
	}
}

func TestNegativeOnlyData(t *testing.T) {
	s, _ := New(testAlpha)
	values := []float64{-10, -20, -30, -40, -50}
	addAll(t, s, values)
	checkQuantileAccuracy(t, "negativeOnly", s, values)
	v, err := s.Quantile(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-(-50))/50 > testAlpha {
		t.Errorf("Quantile(0) = %g, want ≈-50", v)
	}
}

func TestValueJustAboveMinIndexable(t *testing.T) {
	s, _ := New(testAlpha)
	m := s.IndexMapping()
	v := m.MinIndexableValue() * 1.0001
	if err := s.Add(v); err != nil {
		t.Fatalf("Add(%g): %v", v, err)
	}
	if s.ZeroCount() != 0 {
		t.Error("indexable value was counted as zero")
	}
	got, err := s.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if exact.RelativeError(got, v) > testAlpha*(1+1e-9) {
		t.Errorf("Quantile = %g, want ≈%g", got, v)
	}
}

func TestQuickAccuracyProperty(t *testing.T) {
	// The headline property of the paper: for arbitrary positive data,
	// every quantile estimate of an uncollapsed sketch is α-accurate.
	f := func(seed int64, alphaSeed uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		alpha := 0.005 + float64(alphaSeed)/256*0.2 // α ∈ [0.005, 0.205)
		s, err := New(alpha)
		if err != nil {
			return false
		}
		n := 50 + rng.Intn(400)
		values := make([]float64, n)
		for i := range values {
			values[i] = math.Exp(rng.NormFloat64() * 4)
			if err := s.Add(values[i]); err != nil {
				return false
			}
		}
		sort.Float64s(values)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			got, err := s.Quantile(q)
			if err != nil {
				return false
			}
			want := exact.Quantile(values, q)
			if math.Abs(got-want)/want > alpha*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickMergeCountConservation(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		rngA := rand.New(rand.NewSource(seedA))
		rngB := rand.New(rand.NewSource(seedB))
		a, _ := NewCollapsing(0.02, 128)
		b, _ := NewCollapsing(0.02, 128)
		na, nb := 10+rngA.Intn(200), 10+rngB.Intn(200)
		for i := 0; i < na; i++ {
			_ = a.Add(math.Exp(rngA.NormFloat64() * 5))
		}
		for i := 0; i < nb; i++ {
			_ = b.Add(-math.Exp(rngB.NormFloat64() * 5))
		}
		if err := a.MergeWith(b); err != nil {
			return false
		}
		return math.Abs(a.Count()-float64(na+nb)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStringOutput(t *testing.T) {
	s, _ := New(testAlpha)
	if s.String() == "" {
		t.Error("empty String()")
	}
}
