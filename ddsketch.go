// Package ddsketch implements DDSketch, a fast and fully-mergeable
// quantile sketch with relative-error guarantees, as described in
//
//	Charles Masson, Jee E. Rim, Homin K. Lee.
//	"DDSketch: A Fast and Fully-Mergeable Quantile Sketch with
//	Relative-Error Guarantees". PVLDB 12(12): 2195–2205, 2019.
//
// A DDSketch with relative accuracy α returns, for any quantile q, an
// estimate x̃q with |x̃q − xq| ≤ α·xq (Definition 1 / Proposition 3 of
// the paper). It does so by counting values in geometrically sized
// buckets (γ^(i−1), γ^i] with γ = (1+α)/(1−α). Because the bucket
// boundaries do not depend on the data, sketches sharing a mapping merge
// exactly by adding bucket counts, making the sketch fully mergeable —
// the property that lets a fleet of agents each sketch their local
// traffic and a central system aggregate them losslessly.
//
// The sketch handles all of ℝ: positive and negative values go to two
// separate stores and zero (plus anything too small to index) has a
// dedicated counter (§2.2 of the paper). Memory can be bounded two
// ways: collapsing stores (Algorithms 3–4) sacrifice the lowest
// quantiles first (Proposition 4 quantifies the quantiles that remain
// accurate), while WithUniformCollapse trades accuracy instead of a
// tail — every bucket pair folds together under γ² (UDDSketch), so all
// quantiles stay within a gracefully degraded α'.
//
// Basic usage:
//
//	sketch, err := ddsketch.NewSketch(
//		ddsketch.WithRelativeAccuracy(0.01),
//		ddsketch.WithMaxBins(2048),
//	)
//	if err != nil { ... }
//	for _, latency := range latencies {
//		if err := sketch.Add(latency); err != nil { ... }
//	}
//	summary, err := sketch.Summary(0.5, 0.99) // count/sum/min/max/avg + quantiles, one pass
//	p99, err := sketch.Snapshot().Quantile(0.99)
//
// The sub-packages mapping and store expose the building blocks for
// custom configurations (faster mappings, other store bounds, …),
// plugged in via WithMapping and WithStores (or NewWithConfig).
//
// On top of the plain sketch, the package provides the concurrency and
// aggregation layers of a production pipeline, all behind the same
// Sketch interface and composed with NewSketch options: Concurrent
// (WithMutex: one sketch behind one lock), Sharded (WithSharding:
// lock-striped shards for parallel writers, merged exactly on read),
// TimeWindowed (WithWindow: a ring of per-interval sketches answering
// trailing-window queries), and WindowedSharded (both: sharded ingest
// drained into a window ring). cmd/ddserver is the HTTP skin over the
// last, an aggregation service consuming encoded sketches from a fleet
// of agents — the architecture of §1 of the paper.
package ddsketch

import (
	"errors"
	"fmt"
	"math"
	"unsafe"

	"github.com/ddsketch-go/ddsketch/mapping"
	"github.com/ddsketch-go/ddsketch/store"
)

// Errors returned by the sketch.
var (
	// ErrEmptySketch is returned by queries that are undefined on a
	// sketch holding no values.
	ErrEmptySketch = errors.New("ddsketch: empty sketch")
	// ErrQuantileOutOfRange is returned when q is outside [0, 1].
	ErrQuantileOutOfRange = errors.New("ddsketch: quantile must be between 0 and 1")
	// ErrValueOutOfRange is returned when a value's magnitude exceeds the
	// mapping's indexable range, or the value is NaN or infinite.
	ErrValueOutOfRange = errors.New("ddsketch: value cannot be indexed by the sketch's mapping")
	// ErrNegativeCount is returned when a weighted insertion has a
	// negative or NaN count.
	ErrNegativeCount = errors.New("ddsketch: count must be positive")
	// ErrIncompatibleSketches is returned when merging sketches whose
	// mappings differ, which would void the accuracy guarantee.
	ErrIncompatibleSketches = errors.New("ddsketch: cannot merge sketches with different mappings")
	// ErrCannotCollapse is returned when a uniform collapse is requested
	// on a sketch whose mapping cannot be coarsened. All four mappings in
	// the mapping package are coarsenable; only a custom IndexMapping
	// that does not implement mapping.Coarsenable is rejected.
	ErrCannotCollapse = errors.New("ddsketch: uniform collapse requires a coarsenable mapping")
)

// DDSketch is a quantile sketch with relative-error guarantees.
//
// A DDSketch is not safe for concurrent use; wrap it in a Concurrent
// sketch (see NewConcurrent) to share one across goroutines.
type DDSketch struct {
	mapping   mapping.IndexMapping
	positive  store.Store // counts of positive values, by mapping index of v
	negative  store.Store // counts of negative values, by mapping index of −v
	zeroCount float64     // values equal to (or indistinguishable from) zero

	// Exact running statistics (§2.2: "it is useful to keep separate
	// track of the minimum and maximum values"). min/max are not
	// adjusted by deletions.
	min float64
	max float64
	sum float64

	// Uniform-collapse (UDDSketch) state. When uniformMaxBins > 0, the
	// sketch keeps the combined index span of both stores within the
	// budget by pairwise-folding every bucket and squaring γ (degrading
	// α uniformly) instead of sacrificing one tail; epoch counts how
	// many such collapses have been applied and baseMapping remembers
	// the epoch-0 mapping so Clear and serialization can re-derive the
	// lineage deterministically.
	uniformMaxBins int
	epoch          int
	baseMapping    mapping.IndexMapping
}

// New returns a sketch with the given relative accuracy α ∈ (0, 1),
// using the memory-optimal logarithmic mapping and unbounded dense
// stores. Its size grows with the number of distinct bucket indexes
// (O(log of the data's dynamic range)); use NewCollapsing to bound it.
//
// New is a thin wrapper over NewSketch(WithRelativeAccuracy(α)).
func New(relativeAccuracy float64) (*DDSketch, error) {
	return newBase(WithRelativeAccuracy(relativeAccuracy))
}

// NewCollapsing returns the paper's bounded-size DDSketch: relative
// accuracy α, at most maxBins buckets per store, collapsing the buckets
// of lowest indexes when full (Algorithm 3). The negative-value store
// collapses its highest indexes so that, globally, the lowest quantiles
// degrade first. With α = 0.01 and maxBins = 2048 the sketch covers
// values from 80 microseconds to 1 year without collapsing (§2.2).
//
// NewCollapsing is a thin wrapper over
// NewSketch(WithRelativeAccuracy(α), WithMaxBins(maxBins)).
func NewCollapsing(relativeAccuracy float64, maxBins int) (*DDSketch, error) {
	return newBase(WithRelativeAccuracy(relativeAccuracy), WithMaxBins(maxBins))
}

// newBase builds an unlayered sketch from NewSketch options; the old
// concrete constructors are thin wrappers over it.
func newBase(opts ...Option) (*DDSketch, error) {
	s, err := NewSketch(opts...)
	if err != nil {
		return nil, err
	}
	return s.(*DDSketch), nil
}

// NewCollapsingHighest mirrors NewCollapsing, collapsing the buckets of
// highest indexes instead, for workloads where the lowest quantiles
// matter most.
func NewCollapsingHighest(relativeAccuracy float64, maxBins int) (*DDSketch, error) {
	return newBase(
		WithRelativeAccuracy(relativeAccuracy),
		WithStores(store.CollapsingHighestProvider(maxBins), store.CollapsingLowestProvider(maxBins)))
}

// NewUniformCollapsing returns the UDDSketch-mode bounded sketch:
// relative accuracy α while the combined index span of both stores fits
// within maxBins, collapsing *uniformly* when it would not — every
// bucket pair folds together under γ' = γ², degrading the accuracy to
// α' = 2α/(1+α²) over the whole range instead of sacrificing the lowest
// quantiles (Epicoco et al., 2020). The right mode for heavy-tailed
// streams under a hard memory budget, where the collapsed tail is
// exactly the quantile users ask for.
//
// NewUniformCollapsing is a thin wrapper over
// NewSketch(WithRelativeAccuracy(α), WithUniformCollapse(maxBins)).
func NewUniformCollapsing(relativeAccuracy float64, maxBins int) (*DDSketch, error) {
	return newBase(WithRelativeAccuracy(relativeAccuracy), WithUniformCollapse(maxBins))
}

// NewFast returns the "DDSketch (fast)" configuration benchmarked in §4
// of the paper: a linearly interpolated mapping that avoids computing
// logarithms on insertion, in exchange for ≈44% more buckets to cover the
// same range.
func NewFast(relativeAccuracy float64, maxBins int) (*DDSketch, error) {
	m, err := mapping.NewLinearlyInterpolated(relativeAccuracy)
	if err != nil {
		return nil, err
	}
	return newBase(WithMapping(m), WithMaxBins(maxBins))
}

// NewWithConfig assembles a sketch from an index mapping and store
// providers for the positive- and negative-value stores.
func NewWithConfig(m mapping.IndexMapping, positive, negative store.Provider) *DDSketch {
	return &DDSketch{
		mapping:  m,
		positive: positive(),
		negative: negative(),
		min:      math.Inf(1),
		max:      math.Inf(-1),
	}
}

// RelativeAccuracy returns the sketch's accuracy parameter α.
func (s *DDSketch) RelativeAccuracy() float64 { return s.mapping.RelativeAccuracy() }

// IndexMapping returns the sketch's index mapping.
func (s *DDSketch) IndexMapping() mapping.IndexMapping { return s.mapping }

// Add inserts a value into the sketch (the paper's Algorithm 1, extended
// to all of ℝ). It returns ErrValueOutOfRange for NaN, infinities, and
// magnitudes beyond the mapping's indexable range; magnitudes too small
// to index are counted as zero.
func (s *DDSketch) Add(value float64) error { return s.AddWithCount(value, 1) }

// AddWithCount inserts a value with the given weight, which must be
// positive. Weighted insertion is what makes pre-aggregated inputs (for
// example, a count of identical timeouts) cheap to record.
func (s *DDSketch) AddWithCount(value, count float64) error {
	if math.IsNaN(count) || count <= 0 {
		return fmt.Errorf("%w: got %v", ErrNegativeCount, count)
	}
	if err := s.apply(value, count); err != nil {
		return err
	}
	if value < s.min {
		s.min = value
	}
	if value > s.max {
		s.max = value
	}
	s.sum += value * count
	return nil
}

// AddBatch inserts every value in order. It behaves exactly like calling
// Add on each value — same bins, same running statistics, same
// stop-at-first-error semantics — but hoists the count validation, the
// mapping bounds, and the store lookups out of the per-value path, which
// is where the paper's "as fast as the hardware allows" headline (§4,
// Figure 8) is won or lost on pre-collected data.
func (s *DDSketch) AddBatch(values []float64) error { return s.AddBatchWithCount(values, 1) }

// AddBatchWithCount inserts every value with the given positive weight,
// equivalent to an AddWithCount loop. The count is validated once, up
// front; a value that cannot be indexed stops the batch and returns the
// error, leaving the values before it recorded.
func (s *DDSketch) AddBatchWithCount(values []float64, count float64) error {
	if math.IsNaN(count) || count <= 0 {
		return fmt.Errorf("%w: got %v", ErrNegativeCount, count)
	}
	if s.uniformMaxBins > 0 {
		return s.addBatchUniform(values, count)
	}
	m := s.mapping
	minIndexable, maxIndexable := m.MinIndexableValue(), m.MaxIndexableValue()
	positive, negative := s.positive, s.negative
	var idx [batchChunk]int
	for lo := 0; lo < len(values); lo += batchChunk {
		hi := min(lo+batchChunk, len(values))
		chunk := values[lo:hi]
		indexChunk(m, chunk, &idx)
		for i, value := range chunk {
			magnitude := math.Abs(value)
			// The guards mirror apply: NaN fails every comparison and ±Inf
			// fails the ≤ maxIndexable ones, so both fall through to the
			// error case without a dedicated branch on the hot path.
			switch {
			case magnitude < minIndexable:
				s.zeroCount += count
			case value > 0 && magnitude <= maxIndexable:
				positive.AddWithCount(idx[i], count)
			case value < 0 && magnitude <= maxIndexable:
				negative.AddWithCount(idx[i], count)
			default:
				return &batchError{value: value, index: lo + i, maxIndexable: maxIndexable}
			}
			if value < s.min {
				s.min = value
			}
			if value > s.max {
				s.max = value
			}
			s.sum += value * count
		}
	}
	return nil
}

// batchChunk is how many values the batch paths process per chunk. For
// the uniform path it is the collapse-check cadence: one check costs
// four index-hint scans (min/max of both stores), so 128 values
// amortize it to noise while keeping the transient over-budget growth
// of the stores small (at most one chunk's worth of fresh buckets
// beyond the bin budget). For both paths it bounds the stack buffer
// indexChunk fills.
const batchChunk = 128

// indexChunk fills idx[:len(chunk)] with m.Index(|v|) for every value
// of chunk, devirtualizing the mapping call: the type switch hoists the
// dynamic dispatch out of the loop, so the concrete Index — a handful
// of float and bit operations for the interpolated mappings — inlines
// into a tight loop. This is where the paper's §4 "fast" mappings pay
// off on pre-collected data.
//
// Values outside the indexable range (zero, subnormal, NaN, ±Inf, or
// beyond the extremes) produce meaningless idx entries without
// panicking; callers classify each value against the indexable bounds
// before reading idx[i], exactly as the per-value path does, so those
// entries are never used.
func indexChunk(m mapping.IndexMapping, chunk []float64, idx *[batchChunk]int) {
	switch mm := m.(type) {
	case *mapping.CubicallyInterpolatedMapping:
		for i, v := range chunk {
			idx[i] = mm.Index(math.Abs(v))
		}
	case *mapping.LogarithmicMapping:
		for i, v := range chunk {
			idx[i] = mm.Index(math.Abs(v))
		}
	case *mapping.LinearlyInterpolatedMapping:
		for i, v := range chunk {
			idx[i] = mm.Index(math.Abs(v))
		}
	case *mapping.QuadraticallyInterpolatedMapping:
		for i, v := range chunk {
			idx[i] = mm.Index(math.Abs(v))
		}
	default:
		for i, v := range chunk {
			idx[i] = m.Index(math.Abs(v))
		}
	}
}

// addBatchUniform is the batch fast path for uniform-collapse sketches.
// A collapse swaps the mapping out from under hoisted locals, so the
// batch is processed in chunks: the mapping locals, indexable bounds,
// and store references are hoisted per chunk, and after each chunk one
// combined-span check runs (maybeCollapse); if a collapse fires, the
// next chunk re-hoists and continues.
//
// The result is bin-for-bin identical to the per-value loop, which
// checks the budget after every insertion: folding buckets pairwise
// commutes with inserting — ⌈Index_γ(v)/2⌉ lands in the same bucket as
// Index_γ²(v) — so collapsing after a chunk instead of mid-chunk folds
// the already-inserted suffix to exactly the buckets a post-collapse
// insertion would have used, and both loops end at the lowest epoch
// whose folded span fits the budget.
//
// One caveat bounds the equivalence: the indexable range itself
// tightens as γ grows (min up from ~1e-308, max down from ~1e308), and
// this loop checks it at the chunk's starting epoch where the per-value
// loop checks it at the current one. A value within one batch's collapse
// factor of those float64 extremes can therefore be indexed (or
// zero-counted) here where the per-value loop, having already
// collapsed, would reject (or index) it. Reaching the divergence takes
// a magnitude beyond ~γ⁻²ᵉ·MaxFloat64 alongside a mid-chunk collapse —
// far outside anything the sketch can meaningfully summarize — and
// either routing stays within the epoch's α' for values both accept.
func (s *DDSketch) addBatchUniform(values []float64, count float64) error {
	var idx [batchChunk]int
	for lo := 0; lo < len(values); lo += batchChunk {
		hi := min(lo+batchChunk, len(values))
		m := s.mapping
		minIndexable, maxIndexable := m.MinIndexableValue(), m.MaxIndexableValue()
		positive, negative := s.positive, s.negative
		chunk := values[lo:hi]
		indexChunk(m, chunk, &idx)
		for i, value := range chunk {
			magnitude := math.Abs(value)
			switch {
			case magnitude < minIndexable:
				s.zeroCount += count
			case value > 0 && magnitude <= maxIndexable:
				positive.AddWithCount(idx[i], count)
			case value < 0 && magnitude <= maxIndexable:
				negative.AddWithCount(idx[i], count)
			default:
				// Fold the recorded prefix back within budget before
				// surfacing the error, exactly as the per-value loop
				// (which collapses after every insertion) would leave it.
				s.maybeCollapse()
				return &batchError{value: value, index: lo + i, maxIndexable: maxIndexable}
			}
			if value < s.min {
				s.min = value
			}
			if value > s.max {
				s.max = value
			}
			s.sum += value * count
		}
		// One combined-span check per chunk: maybeCollapse is a no-op
		// while the span fits and folds to fit (re-deriving the mapping)
		// when it does not.
		s.maybeCollapse()
	}
	return nil
}

// batchError reports a value a batch path could not record and its
// position in the batch. Both batch paths (hoisted and chunked-uniform)
// and every variant return it, so a mid-batch failure reads identically
// whichever path ran; Sharded re-offsets index from chunk-relative to
// batch-relative before returning it.
type batchError struct {
	value        float64
	index        int
	maxIndexable float64
}

func (e *batchError) Error() string {
	return fmt.Sprintf("%v: got %v (batch index %d), max indexable magnitude is %v",
		ErrValueOutOfRange, e.value, e.index, e.maxIndexable)
}

func (e *batchError) Unwrap() error { return ErrValueOutOfRange }

// apply routes a (possibly negative-count) update to the right store.
func (s *DDSketch) apply(value, count float64) error {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return fmt.Errorf("%w: got %v", ErrValueOutOfRange, value)
	}
	magnitude := math.Abs(value)
	switch {
	case magnitude < s.mapping.MinIndexableValue():
		// Zero and anything within floating-point error of it (§2.2).
		s.zeroCount += count
		if s.zeroCount < 0 {
			s.zeroCount = 0
		}
	case magnitude > s.mapping.MaxIndexableValue():
		return fmt.Errorf("%w: got %v, max indexable magnitude is %v",
			ErrValueOutOfRange, value, s.mapping.MaxIndexableValue())
	case value > 0:
		s.positive.AddWithCount(s.mapping.Index(magnitude), count)
		// Inline guard: non-uniform sketches pay one flag check, not a
		// function call, on the paper's §4 hot path.
		if s.uniformMaxBins > 0 && count > 0 {
			s.maybeCollapse()
		}
	default:
		s.negative.AddWithCount(s.mapping.Index(magnitude), count)
		if s.uniformMaxBins > 0 && count > 0 {
			s.maybeCollapse()
		}
	}
	return nil
}

// storeSpan returns the index span (max − min + 1) a store's live
// buckets cover, 0 when empty — the quantity a dense backing array's
// memory scales with, and the one the uniform bin budget bounds.
func storeSpan(st store.Store) int {
	lo, err := st.MinIndex()
	if err != nil {
		return 0
	}
	hi, err := st.MaxIndex()
	if err != nil {
		return 0
	}
	return hi - lo + 1
}

// maybeCollapse applies uniform collapses until the combined index span
// of the two stores fits within the sketch's bin budget. A no-op unless
// the sketch was built with WithUniformCollapse. The iteration cap is a
// safety net only: each collapse at least halves any span above two
// buckets, so a span that fits in an int is inside the budget within 64
// folds.
func (s *DDSketch) maybeCollapse() {
	if s.uniformMaxBins <= 0 {
		return
	}
	for i := 0; i < 64 && storeSpan(s.positive)+storeSpan(s.negative) > s.uniformMaxBins; i++ {
		if err := s.CollapseUniformly(); err != nil {
			return // mapping can no longer coarsen; keep answering correctly
		}
	}
}

// CollapseUniformly applies one uniform collapse (UDDSketch, Epicoco et
// al., 2020): every bucket pair (2j−1, 2j) folds into bucket j of the
// coarsened mapping with γ' = γ², so the relative accuracy degrades to
// α' = 2α/(1+α²) over the whole value range instead of sacrificing one
// tail as the collapsing stores do. Counts, sum, min, max and the zero
// counter are preserved exactly; CollapseEpoch increments.
//
// Sketches built with WithUniformCollapse call this automatically when
// their bin budget fills; calling it explicitly pre-coarsens a sketch
// (e.g. to match a peer's epoch before shipping). It requires a
// mapping implementing mapping.Coarsenable — all four mappings in the
// mapping package do — and fails with ErrCannotCollapse otherwise.
func (s *DDSketch) CollapseUniformly() error {
	m, ok := s.mapping.(mapping.Coarsenable)
	if !ok {
		return fmt.Errorf("%w: have %v", ErrCannotCollapse, s.mapping)
	}
	coarser, err := m.Coarsen()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCannotCollapse, err)
	}
	store.FoldPairwise(s.positive)
	store.FoldPairwise(s.negative)
	if s.baseMapping == nil {
		s.baseMapping = s.mapping
	}
	s.mapping = coarser
	s.epoch++
	return nil
}

// CollapseEpoch returns the number of uniform collapses applied since
// the sketch was created or last cleared: 0 means full α accuracy; each
// epoch degrades α to 2α/(1+α²).
func (s *DDSketch) CollapseEpoch() int { return s.epoch }

// UniformCollapseBins returns the combined bin budget enforced by
// uniform collapsing, or 0 when the mode is off.
func (s *DDSketch) UniformCollapseBins() int { return s.uniformMaxBins }

// Delete removes one previously added occurrence of value. Deleting
// values that were never inserted leaves the sketch in a valid state but
// may make counts inconsistent with the data; Min and Max are not
// adjusted by deletions. Deletion is exact at the bucket level because
// bucket boundaries are data-independent (§2.1: "Deletion works
// similarly").
func (s *DDSketch) Delete(value float64) error { return s.DeleteWithCount(value, 1) }

// DeleteWithCount removes the given weight of value from the sketch.
func (s *DDSketch) DeleteWithCount(value, count float64) error {
	if math.IsNaN(count) || count <= 0 {
		return fmt.Errorf("%w: got %v", ErrNegativeCount, count)
	}
	if err := s.apply(value, -count); err != nil {
		return err
	}
	s.sum -= value * count
	if s.IsEmpty() {
		s.min = math.Inf(1)
		s.max = math.Inf(-1)
		s.sum = 0
	}
	return nil
}

// Count returns the total weight held by the sketch.
func (s *DDSketch) Count() float64 {
	return s.zeroCount + s.positive.TotalCount() + s.negative.TotalCount()
}

// IsEmpty reports whether the sketch holds no values.
func (s *DDSketch) IsEmpty() bool { return s.Count() <= 0 }

// ZeroCount returns the weight of values recorded as zero.
func (s *DDSketch) ZeroCount() float64 { return s.zeroCount }

// Sum returns the exact sum of all inserted values (adjusted by
// deletions).
func (s *DDSketch) Sum() (float64, error) {
	if s.IsEmpty() {
		return 0, ErrEmptySketch
	}
	return s.sum, nil
}

// Avg returns the exact average of all inserted values.
func (s *DDSketch) Avg() (float64, error) {
	if s.IsEmpty() {
		return 0, ErrEmptySketch
	}
	return s.sum / s.Count(), nil
}

// Min returns the exact minimum inserted value (not adjusted by
// deletions).
func (s *DDSketch) Min() (float64, error) {
	if s.IsEmpty() {
		return 0, ErrEmptySketch
	}
	return s.min, nil
}

// Max returns the exact maximum inserted value (not adjusted by
// deletions).
func (s *DDSketch) Max() (float64, error) {
	if s.IsEmpty() {
		return 0, ErrEmptySketch
	}
	return s.max, nil
}

// Quantile returns an α-accurate estimate of the q-quantile of the
// inserted values (the paper's Algorithm 2 and Proposition 3): the
// returned value x̃ satisfies |x̃ − xq| ≤ α·|xq|, where xq is the value
// of rank ⌊1 + q(n−1)⌋, provided the bucket holding xq has not been
// collapsed (Proposition 4).
func (s *DDSketch) Quantile(q float64) (float64, error) {
	if math.IsNaN(q) || q < 0 || q > 1 {
		return 0, fmt.Errorf("%w: got %v", ErrQuantileOutOfRange, q)
	}
	count := s.Count()
	if count <= 0 {
		return 0, ErrEmptySketch
	}
	rank := q * (count - 1)
	negCount := s.negative.TotalCount()

	var value float64
	switch {
	case rank < negCount:
		// Within the negatives, ascending value order is descending
		// magnitude order, so the lower-quantile scan of Algorithm 2 runs
		// from the highest magnitude bucket downward.
		key, err := s.negative.KeyAtRankDescending(rank)
		if err != nil {
			return 0, err
		}
		value = -s.mapping.Value(key)
	case rank < negCount+s.zeroCount:
		value = 0
	default:
		key, err := s.positive.KeyAtRank(rank - negCount - s.zeroCount)
		if err != nil {
			return 0, err
		}
		value = s.mapping.Value(key)
	}
	// The exact extrema tighten the estimate at the edges without ever
	// moving it away from the true quantile.
	return math.Max(s.min, math.Min(s.max, value)), nil
}

// Quantiles returns α-accurate estimates for each of the given
// quantiles.
func (s *DDSketch) Quantiles(qs []float64) ([]float64, error) {
	values := make([]float64, len(qs))
	for i, q := range qs {
		v, err := s.Quantile(q)
		if err != nil {
			return nil, fmt.Errorf("quantile %v: %w", q, err)
		}
		values[i] = v
	}
	return values, nil
}

// CDF returns an estimate of the fraction of inserted values that are
// less than or equal to value. The estimate counts whole buckets, so its
// rank resolution is one bucket.
func (s *DDSketch) CDF(value float64) (float64, error) {
	count := s.Count()
	if count <= 0 {
		return 0, ErrEmptySketch
	}
	if math.IsNaN(value) {
		return 0, fmt.Errorf("%w: got %v", ErrValueOutOfRange, value)
	}
	negCount := s.negative.TotalCount()
	cum := 0.0
	switch {
	case value >= 0:
		cum = negCount + s.zeroCount
		if value > 0 {
			index := indexOrBoundary(s.mapping, value)
			s.positive.ForEach(func(i int, c float64) bool {
				if i > index {
					return false
				}
				cum += c
				return true
			})
		}
	default:
		// Count negatives with magnitude ≥ |value|, i.e. indexes ≥ the
		// index of |value|.
		index := indexOrBoundary(s.mapping, -value)
		s.negative.ForEach(func(i int, c float64) bool {
			if i >= index {
				cum += c
			}
			return true
		})
	}
	return cum / count, nil
}

// indexOrBoundary indexes a positive magnitude, clamping magnitudes
// outside the indexable range to the corresponding extreme index so CDF
// queries never fail.
func indexOrBoundary(m mapping.IndexMapping, magnitude float64) int {
	switch {
	case magnitude < m.MinIndexableValue():
		return math.MinInt64 / 2
	case magnitude > m.MaxIndexableValue():
		return math.MaxInt64 / 2
	default:
		return m.Index(magnitude)
	}
}

// MergeWith folds other into s (the paper's Algorithm 4): bucket counts
// add exactly, so the merged sketch answers queries exactly as a single
// sketch of the combined data would, up to collapsing. other is not
// modified. Merging requires both sketches to use equal mappings —
// except across uniform-collapse epochs of the same lineage, which are
// reconciled by collapsing the finer sketch first (the fusion semantics
// of Cafaro et al., 2021): the merged sketch carries the coarser
// epoch's α' guarantee, exactly as if all values had been sketched at
// that epoch.
func (s *DDSketch) MergeWith(other *DDSketch) error {
	if !s.mapping.Equals(other.mapping) {
		reconciled, err := s.reconcile(other)
		if err != nil {
			return err
		}
		other = reconciled
	}
	s.positive.MergeWith(other.positive)
	s.negative.MergeWith(other.negative)
	s.zeroCount += other.zeroCount
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	s.sum += other.sum
	s.maybeCollapse()
	return nil
}

// reconcile aligns two sketches whose mappings differ but whose
// collapse lineages may still match: if coarsening the finer sketch's
// mapping by the epoch difference yields the coarser one's mapping,
// the two sketches describe the same bucket lineage and merge exactly
// after the finer one collapses up. The finer side is s itself (which
// is coarsened in place — merging in coarser data inherently costs the
// receiver that accuracy) or a temporary copy of other (other is never
// modified). Returns the sketch to merge, now at s's epoch.
func (s *DDSketch) reconcile(other *DDSketch) (*DDSketch, error) {
	incompatible := fmt.Errorf("%w: %v (epoch %d) vs %v (epoch %d)",
		ErrIncompatibleSketches, s.mapping, s.epoch, other.mapping, other.epoch)
	if s.epoch == other.epoch {
		return nil, incompatible
	}
	// Verify the lineage on mappings alone before touching any store, so
	// a failed reconciliation leaves both sketches untouched.
	finer, coarser := s, other
	if s.epoch > other.epoch {
		finer, coarser = other, s
	}
	m, ok := finer.mapping.(mapping.Coarsenable)
	if !ok {
		return nil, incompatible
	}
	for e := finer.epoch; e < coarser.epoch; e++ {
		next, err := m.Coarsen()
		if err != nil {
			return nil, incompatible
		}
		m, ok = next.(mapping.Coarsenable)
		if !ok {
			return nil, incompatible
		}
	}
	if !m.Equals(coarser.mapping) {
		return nil, incompatible
	}
	if finer == s {
		// Coarsening the receiver in place degrades accuracy it will
		// never get back, so it takes an opt-in: only sketches managing
		// their own collapse state (uniform mode, or already collapsed)
		// absorb coarser peers. A plain sketch keeps the historical
		// ErrIncompatibleSketches instead of a silent α downgrade.
		if s.uniformMaxBins == 0 && s.epoch == 0 {
			return nil, incompatible
		}
		for s.epoch < other.epoch {
			if err := s.CollapseUniformly(); err != nil {
				return nil, err
			}
		}
		return other, nil
	}
	tmp := other.Copy()
	for tmp.epoch < s.epoch {
		if err := tmp.CollapseUniformly(); err != nil {
			return nil, err
		}
	}
	return tmp, nil
}

// Summary returns count, sum, min, max, avg, and the requested
// quantiles in one pass: the exact statistics come straight from the
// running counters, and the quantiles are read against the same state.
func (s *DDSketch) Summary(qs ...float64) (Summary, error) {
	return s.summarize(qs)
}

// Snapshot returns a deep, independent copy of the sketch. On a plain
// DDSketch it is Copy under the name the Sketch interface uses; on the
// concurrent variants it is the consistent-read primitive.
func (s *DDSketch) Snapshot() *DDSketch { return s.Copy() }

// Copy returns a deep copy of the sketch.
func (s *DDSketch) Copy() *DDSketch {
	return &DDSketch{
		mapping:        s.mapping,
		positive:       s.positive.Copy(),
		negative:       s.negative.Copy(),
		zeroCount:      s.zeroCount,
		min:            s.min,
		max:            s.max,
		sum:            s.sum,
		uniformMaxBins: s.uniformMaxBins,
		epoch:          s.epoch,
		baseMapping:    s.baseMapping,
	}
}

// Clear empties the sketch, keeping its configuration and allocated
// capacity. A uniformly-collapsed sketch returns to its epoch-0 mapping
// and full α accuracy: collapse history describes data, not
// configuration, so an emptied sketch (e.g. a rotated window slot)
// starts its accuracy budget over.
func (s *DDSketch) Clear() {
	s.positive.Clear()
	s.negative.Clear()
	s.zeroCount = 0
	s.min = math.Inf(1)
	s.max = math.Inf(-1)
	s.sum = 0
	if s.baseMapping != nil {
		s.mapping = s.baseMapping
		s.epoch = 0
	}
}

// NumBins returns the number of non-empty buckets across both stores,
// plus one if the zero counter is in use. This is the quantity Figure 7
// of the paper tracks.
func (s *DDSketch) NumBins() int {
	n := s.positive.NumBins() + s.negative.NumBins()
	if s.zeroCount > 0 {
		n++
	}
	return n
}

// SizeBytes estimates the sketch's in-memory footprint in bytes,
// counting both stores and the fixed fields. This is the quantity
// Figure 6 of the paper tracks. Sizeof keeps the fixed-field term in
// sync with the struct (the uniform-collapse fields grew it past the
// historical constant).
func (s *DDSketch) SizeBytes() int {
	return s.positive.SizeBytes() + s.negative.SizeBytes() + int(unsafe.Sizeof(*s))
}

// Collapsed reports whether the sketch has collapsed: either store has
// folded extreme buckets (lowest/highest modes, where some extreme
// quantiles lost the α guarantee) or at least one uniform collapse has
// run (where every quantile degraded to the epoch's α').
func (s *DDSketch) Collapsed() bool {
	if s.epoch > 0 {
		return true
	}
	type collapser interface{ IsCollapsed() bool }
	if c, ok := s.positive.(collapser); ok && c.IsCollapsed() {
		return true
	}
	if c, ok := s.negative.(collapser); ok && c.IsCollapsed() {
		return true
	}
	return false
}

// ForEach calls f for each (representative value, count) pair in
// ascending value order: negatives, then zero, then positives. It stops
// early if f returns false.
func (s *DDSketch) ForEach(f func(value, count float64) bool) {
	type bin struct {
		index int
		count float64
	}
	if !s.negative.IsEmpty() {
		var bins []bin
		s.negative.ForEach(func(index int, count float64) bool {
			bins = append(bins, bin{index, count})
			return true
		})
		for i := len(bins) - 1; i >= 0; i-- {
			if !f(-s.mapping.Value(bins[i].index), bins[i].count) {
				return
			}
		}
	}
	if s.zeroCount > 0 {
		if !f(0, s.zeroCount) {
			return
		}
	}
	s.positive.ForEach(func(index int, count float64) bool {
		return f(s.mapping.Value(index), count)
	})
}

// Reweight multiplies every count in the sketch by w, which must be
// positive. Combined with periodic merging, this implements exponential
// time decay: an aggregator can reweight its rolling sketch by a decay
// factor before merging each new interval in.
func (s *DDSketch) Reweight(w float64) error {
	if math.IsNaN(w) || w <= 0 {
		return fmt.Errorf("%w: reweight factor %v", ErrNegativeCount, w)
	}
	if w == 1 {
		return nil
	}
	reweightStore(s.positive, w)
	reweightStore(s.negative, w)
	s.zeroCount *= w
	s.sum *= w
	return nil
}

// reweightStore scales every bucket of st by w via count deltas.
func reweightStore(st store.Store, w float64) {
	type bin struct {
		index int
		count float64
	}
	var bins []bin
	st.ForEach(func(index int, count float64) bool {
		bins = append(bins, bin{index, count})
		return true
	})
	for _, b := range bins {
		st.AddWithCount(b.index, b.count*(w-1))
	}
}

// ChangeMapping rebuilds the sketch under a different index mapping and
// store configuration, optionally scaling all values by scaleFactor
// (e.g. a unit conversion from seconds to nanoseconds). Each bucket's
// representative value is re-indexed under the new mapping, so the
// result carries the combined relative error of the old and new
// mappings: roughly α_old + α_new. Weights, including the zero bucket,
// are preserved exactly.
func (s *DDSketch) ChangeMapping(newMapping mapping.IndexMapping, positive, negative store.Provider, scaleFactor float64) (*DDSketch, error) {
	if math.IsNaN(scaleFactor) || scaleFactor <= 0 {
		return nil, fmt.Errorf("%w: scale factor %v", ErrValueOutOfRange, scaleFactor)
	}
	out := NewWithConfig(newMapping, positive, negative)
	var rebinErr error
	rebin := func(src store.Store, dst store.Store) {
		src.ForEach(func(index int, count float64) bool {
			v := s.mapping.Value(index) * scaleFactor
			switch {
			case v < newMapping.MinIndexableValue():
				out.zeroCount += count
			case v > newMapping.MaxIndexableValue():
				rebinErr = fmt.Errorf("%w: bucket value %v under the new mapping", ErrValueOutOfRange, v)
				return false
			default:
				dst.AddWithCount(newMapping.Index(v), count)
			}
			return true
		})
	}
	rebin(s.positive, out.positive)
	rebin(s.negative, out.negative)
	if rebinErr != nil {
		return nil, rebinErr
	}
	out.zeroCount += s.zeroCount
	if !s.IsEmpty() {
		out.min = s.min * scaleFactor
		out.max = s.max * scaleFactor
		out.sum = s.sum * scaleFactor
	}
	return out, nil
}

// String implements fmt.Stringer.
func (s *DDSketch) String() string {
	return fmt.Sprintf("DDSketch(mapping=%v, count=%g, bins=%d)",
		s.mapping, s.Count(), s.NumBins())
}
