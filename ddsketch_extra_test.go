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

func TestReweight(t *testing.T) {
	s, _ := New(0.01)
	_ = s.Add(10)
	_ = s.Add(-5)
	_ = s.Add(0)
	if err := s.Reweight(3); err != nil {
		t.Fatal(err)
	}
	if got := s.Count(); got != 9 {
		t.Errorf("Count after Reweight = %g, want 9", got)
	}
	if got := s.ZeroCount(); got != 3 {
		t.Errorf("ZeroCount after Reweight = %g, want 3", got)
	}
	sum, _ := s.Sum()
	if got, want := sum, (10.0-5.0)*3; math.Abs(got-want) > 1e-9 {
		t.Errorf("Sum after Reweight = %g, want %g", got, want)
	}
	// Quantiles are unchanged: reweighting scales the whole distribution.
	v, err := s.Quantile(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-10)/10 > 0.01 {
		t.Errorf("Quantile(1) after Reweight = %g", v)
	}
}

func TestReweightErrors(t *testing.T) {
	s, _ := New(0.01)
	_ = s.Add(1)
	for _, w := range []float64{0, -1, math.NaN()} {
		if err := s.Reweight(w); err == nil {
			t.Errorf("Reweight(%g): want error", w)
		}
	}
	if err := s.Reweight(1); err != nil {
		t.Errorf("Reweight(1): %v", err)
	}
}

func TestReweightTimeDecay(t *testing.T) {
	// The use case: exponential decay across intervals. After many
	// intervals, the old interval's weight decays geometrically.
	rolling, _ := New(0.01)
	for interval := 0; interval < 10; interval++ {
		if !rolling.IsEmpty() {
			if err := rolling.Reweight(0.5); err != nil {
				t.Fatal(err)
			}
		}
		batch, _ := New(0.01)
		for i := 0; i < 1000; i++ {
			_ = batch.Add(float64(interval + 1)) // interval's signature value
		}
		if err := rolling.MergeWith(batch); err != nil {
			t.Fatal(err)
		}
	}
	// The latest interval dominates: the median must be the latest value.
	v, err := rolling.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-10)/10 > 0.01 {
		t.Errorf("decayed median = %g, want ≈10", v)
	}
}

func TestQuickReweightPreservesAccuracy(t *testing.T) {
	// After Reweight(w), every value carries weight w; the sketch's
	// quantile semantics select the first item whose cumulative weight
	// exceeds q·(W−1), and the estimate must be α-accurate for exactly
	// that item.
	const alpha = 0.02
	f := func(seed int64, wRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 0.1 + float64(wRaw)/64 // w ∈ [0.1, 4.1)
		s, _ := New(alpha)
		n := 200
		values := make([]float64, n)
		for i := range values {
			values[i] = math.Exp(rng.NormFloat64() * 2)
			_ = s.Add(values[i])
		}
		sort.Float64s(values)
		if err := s.Reweight(w); err != nil {
			return false
		}
		for _, q := range []float64{0.1, 0.5, 0.9} {
			got, err := s.Quantile(q)
			if err != nil {
				return false
			}
			// First 1-based item position k with k·w > q·(w·n − 1). When
			// q·(W−1) lands exactly on a cumulative-weight boundary, float
			// rounding legitimately selects either neighbor, so accept an
			// α-accurate match for k−1, k, or k+1.
			k := int(math.Floor(q*(w*float64(n)-1)/w)) + 1
			ok := false
			for _, kk := range []int{k - 1, k, k + 1} {
				if kk < 1 || kk > n {
					continue
				}
				if exact.RelativeError(got, values[kk-1]) <= alpha*(1+1e-6) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestChangeMapping(t *testing.T) {
	s, _ := New(0.01)
	rng := rand.New(rand.NewSource(1))
	values := make([]float64, 5000)
	for i := range values {
		values[i] = math.Exp(rng.NormFloat64() * 2)
		_ = s.Add(values[i])
	}
	_ = s.Add(0)
	_ = s.Add(-3)
	values = append(values, 0, -3)

	newMapping, err := mapping.NewLinearlyInterpolated(0.02)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.ChangeMapping(newMapping, store.DenseStoreProvider(), store.DenseStoreProvider(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Count() != s.Count() {
		t.Errorf("count after ChangeMapping = %g, want %g", out.Count(), s.Count())
	}
	// Combined error bound: α_old + α_new (plus slack for re-binning).
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got, err := out.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		want := exact.Quantile(sorted, q)
		if want == 0 {
			continue
		}
		if relErr := math.Abs(got-want) / math.Abs(want); relErr > 0.01+0.02+0.001 {
			t.Errorf("q=%g: rel err %g after ChangeMapping", q, relErr)
		}
	}
}

func TestChangeMappingWithScaleFactor(t *testing.T) {
	s, _ := New(0.01)
	for i := 1; i <= 1000; i++ {
		_ = s.Add(float64(i)) // seconds
	}
	newMapping, _ := mapping.NewLogarithmic(0.01)
	// Convert to milliseconds.
	out, err := s.ChangeMapping(newMapping, store.DenseStoreProvider(), store.DenseStoreProvider(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	v, err := out.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-500000)/500000 > 0.021 {
		t.Errorf("scaled median = %g, want ≈500000", v)
	}
	min, _ := out.Min()
	if math.Abs(min-1000) > 1e-9 {
		t.Errorf("scaled min = %g, want 1000", min)
	}
	sum, _ := out.Sum()
	if math.Abs(sum-500500*1000)/5.005e8 > 1e-9 {
		t.Errorf("scaled sum = %g", sum)
	}
}

func TestChangeMappingErrors(t *testing.T) {
	s, _ := New(0.01)
	_ = s.Add(1)
	newMapping, _ := mapping.NewLogarithmic(0.01)
	for _, factor := range []float64{0, -1, math.NaN()} {
		if _, err := s.ChangeMapping(newMapping, store.DenseStoreProvider(), store.DenseStoreProvider(), factor); err == nil {
			t.Errorf("ChangeMapping(factor=%g): want error", factor)
		}
	}
	// Scaling beyond the indexable range must fail loudly.
	_ = s.Add(1e300)
	if _, err := s.ChangeMapping(newMapping, store.DenseStoreProvider(), store.DenseStoreProvider(), 1e300); err == nil {
		t.Error("ChangeMapping overflowing the mapping range: want error")
	}
}

func TestChangeMappingEmptySketch(t *testing.T) {
	s, _ := New(0.01)
	newMapping, _ := mapping.NewCubicallyInterpolated(0.05)
	out, err := s.ChangeMapping(newMapping, store.DenseStoreProvider(), store.DenseStoreProvider(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !out.IsEmpty() {
		t.Error("ChangeMapping of empty sketch is not empty")
	}
	if err := out.Add(1); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeNeverPanicsOnGarbage(t *testing.T) {
	// Robustness: any byte soup must produce an error, never a panic.
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on %v: %v", data, r)
			}
		}()
		s, err := Decode(data)
		return (s == nil) == (err != nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeTruncationsOfValidEncoding(t *testing.T) {
	s, _ := NewCollapsing(0.01, 256)
	for i := 1; i <= 1000; i++ {
		_ = s.Add(float64(i))
		_ = s.Add(-float64(i))
	}
	data := s.Encode()
	for cut := 0; cut < len(data); cut++ {
		if _, err := Decode(data[:cut]); err == nil {
			t.Fatalf("Decode of %d/%d-byte truncation succeeded", cut, len(data))
		}
	}
	if _, err := Decode(data); err != nil {
		t.Fatalf("Decode of full encoding failed: %v", err)
	}
}

func TestPaperSection22RangeClaim(t *testing.T) {
	// §2.2: "for α = 0.01, a sketch of size 2048 can handle values from
	// 80 microseconds to 1 year and cover all quantiles."
	s, err := NewCollapsing(0.01, 2048)
	if err != nil {
		t.Fatal(err)
	}
	const year = 365.25 * 24 * 3600 // seconds
	const floor = 80e-6
	// Log-spread values across the full claimed range.
	n := 4000
	ratio := math.Pow(year/floor, 1/float64(n-1))
	v := floor
	var values []float64
	for i := 0; i < n; i++ {
		values = append(values, v)
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
		v *= ratio
	}
	if s.Collapsed() {
		t.Fatalf("sketch collapsed within the claimed range (%d bins)", s.NumBins())
	}
	if s.NumBins() > 2048 {
		t.Fatalf("NumBins = %d > 2048", s.NumBins())
	}
	sort.Float64s(values)
	for _, q := range []float64{0, 0.001, 0.5, 0.999, 1} {
		got, err := s.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		want := exact.Quantile(values, q)
		if exact.RelativeError(got, want) > 0.01*(1+1e-9) {
			t.Errorf("q=%g: rel err %g — 'cover all quantiles' violated", q,
				exact.RelativeError(got, want))
		}
	}
}
