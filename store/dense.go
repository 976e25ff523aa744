package store

import (
	"fmt"

	"github.com/ddsketch-go/ddsketch/encoding"
)

// growthPadding is the number of spare buckets allocated beyond the
// requested range when a dense backing array grows, amortizing
// reallocation over many inserts.
const growthPadding = 64

// denseBins is the contiguous-array machinery shared by DenseStore and
// the collapsing dense stores. It owns the array, the index-to-position
// translation, the total count, and the non-empty range hints; the
// growth/collapse policy lives in the store types.
//
// minIdx and maxIdx bound the non-empty range: every positive bucket lies
// within [minIdx, maxIdx], but removals may leave the extremes empty, so
// the accessors re-scan lazily.
type denseBins struct {
	bins   []float64
	offset int // bins[0] holds the count of bucket index offset
	count  float64
	minIdx int
	maxIdx int
}

func (d *denseBins) isEmpty() bool { return d.count <= 0 }

// addAt adds count to the bucket at index, which must already be within
// the allocated array range, clamping the bucket at zero.
func (d *denseBins) addAt(index int, count float64) {
	pos := index - d.offset
	old := d.bins[pos]
	updated := old + count
	if updated < 0 {
		updated = 0
	}
	wasEmpty := d.isEmpty()
	d.bins[pos] = updated
	d.count += updated - old
	if d.count <= 0 { // fully emptied (or float drift): reset cleanly
		d.count = 0
	}
	if updated > 0 {
		// Test emptiness before the add: a count that absorbs the total
		// (2^53 times it or more) must still widen the range, not reset
		// it and strand the existing buckets outside [minIdx, maxIdx].
		if wasEmpty {
			d.minIdx, d.maxIdx = index, index
			return
		}
		if index < d.minIdx {
			d.minIdx = index
		}
		if index > d.maxIdx {
			d.maxIdx = index
		}
	}
}

// ensureRange grows the backing array so that every index in
// [newMin, newMax] is addressable. It never shrinks or collapses.
func (d *denseBins) ensureRange(newMin, newMax int) {
	if d.bins == nil {
		length := newMax - newMin + 1 + growthPadding
		d.bins = make([]float64, length)
		d.offset = newMin - growthPadding/2
		return
	}
	if newMin >= d.offset && newMax < d.offset+len(d.bins) {
		return
	}
	lo, hi := d.offset, d.offset+len(d.bins)-1
	if newMin < lo {
		lo = newMin - growthPadding
	}
	if newMax > hi {
		hi = newMax + growthPadding
	}
	newBins := make([]float64, hi-lo+1)
	copy(newBins[d.offset-lo:], d.bins)
	d.bins = newBins
	d.offset = lo
}

// reset empties the bins and makes every index in [lo, hi] addressable
// (none when lo > hi). The array is kept, zeroed and re-centred on the
// range, when it is long enough; otherwise it is allocated once with
// growthPadding spare buckets.
func (d *denseBins) reset(lo, hi int) {
	if d.isEmpty() {
		clear(d.bins)
	} else {
		// Every positive bucket lies within [minIdx, maxIdx].
		clear(d.bins[d.minIdx-d.offset : d.maxIdx-d.offset+1])
	}
	d.count = 0
	needed := hi - lo + 1
	if needed <= 0 {
		return
	}
	if len(d.bins) < needed {
		d.bins = make([]float64, needed+growthPadding)
	}
	d.offset = lo - (len(d.bins)-needed)/2
}

// relocateRange replaces the backing array with one of at most maxLen
// buckets that addresses every index in [lo, hi] and re-positions the
// live counts. Collapsing stores use it to keep the array bounded while
// the tracked range drifts; the caller guarantees [lo, hi] covers the
// live range and fits within maxLen.
func (d *denseBins) relocateRange(lo, hi, maxLen int) {
	needed := hi - lo + 1
	length := needed + growthPadding
	if length > maxLen {
		length = maxLen
	}
	if length < needed {
		length = needed
	}
	newOffset := lo - (length-needed)/2
	newBins := make([]float64, length)
	if !d.isEmpty() {
		copy(newBins[d.minIdx-newOffset:], d.bins[d.minIdx-d.offset:d.maxIdx-d.offset+1])
	}
	d.bins = newBins
	d.offset = newOffset
}

// shiftLowInto folds every bucket with index < target into the bucket at
// target. target must be within the allocated range. This is the
// collapse operation of the paper's Algorithms 3 and 4.
func (d *denseBins) shiftLowInto(target int) {
	if d.isEmpty() || d.minIdx >= target {
		return
	}
	collapsed := 0.0
	lo := d.minIdx - d.offset
	hi := target - d.offset
	for pos := lo; pos < hi; pos++ {
		collapsed += d.bins[pos]
		d.bins[pos] = 0
	}
	if collapsed > 0 {
		d.bins[hi] += collapsed
		d.minIdx = target
	} else if d.minIdx < target {
		d.minIdx = target
	}
}

// shiftHighInto folds every bucket with index > target into the bucket at
// target, mirroring shiftLowInto.
func (d *denseBins) shiftHighInto(target int) {
	if d.isEmpty() || d.maxIdx <= target {
		return
	}
	collapsed := 0.0
	lo := target - d.offset
	hi := d.maxIdx - d.offset
	for pos := hi; pos > lo; pos-- {
		collapsed += d.bins[pos]
		d.bins[pos] = 0
	}
	if collapsed > 0 {
		d.bins[lo] += collapsed
	}
	d.maxIdx = target
}

func (d *denseBins) minIndex() (int, error) {
	if d.isEmpty() {
		return 0, ErrEmptyStore
	}
	for i := d.minIdx; i <= d.maxIdx; i++ {
		if d.bins[i-d.offset] > 0 {
			d.minIdx = i
			return i, nil
		}
	}
	return 0, ErrEmptyStore
}

func (d *denseBins) maxIndex() (int, error) {
	if d.isEmpty() {
		return 0, ErrEmptyStore
	}
	for i := d.maxIdx; i >= d.minIdx; i-- {
		if d.bins[i-d.offset] > 0 {
			d.maxIdx = i
			return i, nil
		}
	}
	return 0, ErrEmptyStore
}

func (d *denseBins) keyAtRank(rank float64) (int, error) {
	if d.isEmpty() {
		return 0, ErrEmptyStore
	}
	if rank < 0 {
		rank = 0
	}
	cum := 0.0
	last := d.maxIdx
	for i := d.minIdx; i <= d.maxIdx; i++ {
		c := d.bins[i-d.offset]
		if c <= 0 {
			continue
		}
		cum += c
		last = i
		if cum > rank {
			return i, nil
		}
	}
	return last, nil
}

func (d *denseBins) keyAtRankDescending(rank float64) (int, error) {
	if d.isEmpty() {
		return 0, ErrEmptyStore
	}
	if rank < 0 {
		rank = 0
	}
	cum := 0.0
	last := d.minIdx
	for i := d.maxIdx; i >= d.minIdx; i-- {
		c := d.bins[i-d.offset]
		if c <= 0 {
			continue
		}
		cum += c
		last = i
		if cum > rank {
			return i, nil
		}
	}
	return last, nil
}

func (d *denseBins) forEach(f func(index int, count float64) bool) {
	if d.isEmpty() {
		return
	}
	for i := d.minIdx; i <= d.maxIdx; i++ {
		if c := d.bins[i-d.offset]; c > 0 {
			if !f(i, c) {
				return
			}
		}
	}
}

func (d *denseBins) numBins() int {
	n := 0
	d.forEach(func(int, float64) bool { n++; return true })
	return n
}

func (d *denseBins) clear() {
	for i := range d.bins {
		d.bins[i] = 0
	}
	d.count = 0
}

func (d *denseBins) copyFrom(src *denseBins) {
	d.bins = append(d.bins[:0], src.bins...)
	d.offset = src.offset
	d.count = src.count
	d.minIdx = src.minIdx
	d.maxIdx = src.maxIdx
}

// sizeBytes estimates the memory footprint: the backing array plus the
// fixed fields (slice header 24 + offset/min/max 24 + count 8).
func (d *denseBins) sizeBytes() int {
	return 8*cap(d.bins) + 56
}

// denseBinsOf returns the shared dense machinery of a store when it has
// one, enabling array-level fast paths for merges between dense-backed
// stores.
func denseBinsOf(s Store) *denseBins {
	switch t := s.(type) {
	case *DenseStore:
		return &t.denseBins
	case *CollapsingLowestDenseStore:
		return &t.denseBins
	case *CollapsingHighestDenseStore:
		return &t.denseBins
	}
	return nil
}

// DenseStore keeps bucket counts in a single contiguous array spanning
// the full index range seen so far, growing without bound. Insertions
// are a bounds check and an array write, which makes it the fastest
// store when the data's dynamic range is moderate.
type DenseStore struct {
	denseBins
}

var _ Store = (*DenseStore)(nil)

// NewDenseStore returns an empty DenseStore.
func NewDenseStore() *DenseStore { return &DenseStore{} }

// Add increments the bucket at index by one.
func (s *DenseStore) Add(index int) { s.AddWithCount(index, 1) }

// AddWithCount adds count to the bucket at index, clamping at zero.
func (s *DenseStore) AddWithCount(index int, count float64) {
	if count == 0 {
		return
	}
	if count < 0 && (s.bins == nil || index < s.offset || index >= s.offset+len(s.bins)) {
		return // removing from a bucket that was never allocated: no-op
	}
	s.ensureRange(index, index)
	s.addAt(index, count)
}

// IsEmpty reports whether the store holds no weight.
func (s *DenseStore) IsEmpty() bool { return s.isEmpty() }

// TotalCount returns the total weight across all buckets.
func (s *DenseStore) TotalCount() float64 { return s.count }

// MinIndex returns the lowest non-empty bucket index.
func (s *DenseStore) MinIndex() (int, error) { return s.minIndex() }

// MaxIndex returns the highest non-empty bucket index.
func (s *DenseStore) MaxIndex() (int, error) { return s.maxIndex() }

// KeyAtRank returns the lowest index whose cumulative count exceeds rank.
func (s *DenseStore) KeyAtRank(rank float64) (int, error) { return s.keyAtRank(rank) }

// KeyAtRankDescending returns the highest index whose cumulative count,
// accumulated downward from the highest bucket, exceeds rank.
func (s *DenseStore) KeyAtRankDescending(rank float64) (int, error) {
	return s.keyAtRankDescending(rank)
}

// ForEach visits non-empty buckets in ascending index order.
func (s *DenseStore) ForEach(f func(index int, count float64) bool) { s.forEach(f) }

// MergeWith adds every bucket of other into this store. Merges from
// dense-backed stores run directly over the source array.
func (s *DenseStore) MergeWith(other Store) {
	d := denseBinsOf(other)
	if d == nil {
		mergeGeneric(s, other)
		return
	}
	if d.isEmpty() {
		return
	}
	oMin, _ := d.minIndex()
	oMax, _ := d.maxIndex()
	s.ensureRange(oMin, oMax)
	for i := oMin; i <= oMax; i++ {
		if c := d.bins[i-d.offset]; c > 0 {
			s.addAt(i, c)
		}
	}
}

// Copy returns a deep copy of the store.
func (s *DenseStore) Copy() Store {
	c := NewDenseStore()
	c.copyFrom(&s.denseBins)
	return c
}

// Clear empties the store, retaining the allocated array.
func (s *DenseStore) Clear() { s.clear() }

// NumBins returns the number of non-empty buckets.
func (s *DenseStore) NumBins() int { return s.numBins() }

// SizeBytes estimates the in-memory footprint in bytes.
func (s *DenseStore) SizeBytes() int { return s.sizeBytes() }

// Encode appends the store's binary serialization.
func (s *DenseStore) Encode(w *encoding.Writer) {
	w.Byte(typeDense)
	encodeBins(w, s)
}

// String implements fmt.Stringer.
func (s *DenseStore) String() string {
	return fmt.Sprintf("DenseStore(bins=%d, count=%g)", s.NumBins(), s.TotalCount())
}
