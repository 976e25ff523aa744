// Package store implements the bucket-count containers backing DDSketch.
//
// A store maps integer bucket indexes (produced by a mapping.IndexMapping)
// to non-negative float64 counts. The paper discusses several layout
// strategies in §2.2; this package provides the contiguous-array ones:
//
//   - DenseStore: contiguous array over the index range, unbounded growth;
//     the fastest for insertion-heavy workloads with moderate ranges.
//   - CollapsingLowestDenseStore: dense array capped at a maximum number
//     of bins; when full, the lowest buckets are collapsed together
//     (Algorithm 3 of the paper). This is the store that gives DDSketch
//     its bounded-size guarantee while preserving the upper quantiles.
//   - CollapsingHighestDenseStore: the mirror image, collapsing the
//     highest buckets; used for the negative-value store so that the
//     global lowest quantiles degrade first (§2.2).
//
// Counts are float64 (not integers) so that merged, scaled, or weighted
// sketches work naturally. All stores accept negative count deltas to
// support deletion, clamping individual bins at zero.
package store

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/ddsketch-go/ddsketch/encoding"
	"github.com/ddsketch-go/ddsketch/internal/storeops"
)

// Errors returned by stores.
var (
	// ErrEmptyStore is returned by queries that are undefined on a store
	// holding no values.
	ErrEmptyStore = errors.New("store: empty store")
	// ErrUnknownStore is returned when decoding an unrecognized store type.
	ErrUnknownStore = errors.New("store: unknown store type")
	// ErrInvalidBins is returned when decoding bin data that no encoder
	// could have produced: non-positive or non-finite counts, more bins
	// than the input could possibly hold, or bucket indexes outside the
	// range any supported mapping can emit.
	ErrInvalidBins = errors.New("store: invalid bin data")
)

// Decoding limits. Bucket indexes are produced by index mappings whose
// magnitude tops out around log(maxFloat64)/log(gamma); even α = 10⁻⁴
// over the full float64 range stays within ±4·10⁶. Inputs beyond these
// bounds cannot come from a real sketch, and rejecting them keeps a
// corrupted (or hostile) payload from forcing the dense stores into
// absurd allocations.
const (
	// maxDecodedIndexMagnitude bounds each decoded bucket index.
	maxDecodedIndexMagnitude = 1 << 40
	// maxDecodedIndexSpan bounds the spread between the lowest and highest
	// decoded index, which is what dense backing arrays scale with.
	maxDecodedIndexSpan = 1 << 22
)

// Store is a container of counts keyed by integer bucket index.
//
// Implementations are not safe for concurrent use; see the ddsketch
// package for a synchronized sketch wrapper.
type Store interface {
	// Add increments the count of the bucket at index by one.
	Add(index int)

	// AddWithCount adds count to the bucket at index. A negative count
	// removes previously added weight; the bucket is clamped at zero, so
	// removing more weight than a bucket holds silently discards the
	// excess.
	AddWithCount(index int, count float64)

	// IsEmpty reports whether the store holds no weight.
	IsEmpty() bool

	// TotalCount returns the total weight across all buckets.
	TotalCount() float64

	// MinIndex returns the lowest index with a positive count.
	MinIndex() (int, error)

	// MaxIndex returns the highest index with a positive count.
	MaxIndex() (int, error)

	// KeyAtRank returns the lowest index such that the cumulative count
	// of all buckets up to and including it exceeds rank. If rank is at
	// least TotalCount(), it returns the highest non-empty index. It is
	// the store-level primitive behind the paper's Algorithm 2.
	KeyAtRank(rank float64) (int, error)

	// KeyAtRankDescending mirrors KeyAtRank from the other end: it
	// returns the highest index such that the cumulative count of all
	// buckets down to and including it exceeds rank. The sketch uses it
	// to query the negative-value store, where ascending value order is
	// descending magnitude order.
	KeyAtRankDescending(rank float64) (int, error)

	// ForEach calls f for each non-empty bucket in ascending index order,
	// stopping early if f returns false.
	ForEach(f func(index int, count float64) bool)

	// MergeWith adds every bucket of other into this store. The receiver's
	// collapsing policy, if any, applies to the merged content
	// (Algorithm 4 of the paper).
	MergeWith(other Store)

	// Copy returns a deep copy of the store.
	Copy() Store

	// Clear empties the store, retaining allocated capacity where
	// possible.
	Clear()

	// NumBins returns the number of non-empty buckets.
	NumBins() int

	// SizeBytes estimates the in-memory footprint of the store in bytes,
	// counting backing arrays, map overhead, and fixed fields.
	SizeBytes() int

	// Encode appends a self-describing serialization of the store.
	Encode(w *encoding.Writer)
}

// Provider constructs empty stores. Sketches use providers so that
// positive and negative stores, and stores created during decoding or
// copying, share a configuration.
type Provider func() Store

// DenseStoreProvider returns a Provider of unbounded DenseStores.
func DenseStoreProvider() Provider { return func() Store { return NewDenseStore() } }

// CollapsingLowestProvider returns a Provider of
// CollapsingLowestDenseStores with the given bin limit.
func CollapsingLowestProvider(maxBins int) Provider {
	return func() Store { return NewCollapsingLowestDenseStore(maxBins) }
}

// CollapsingHighestProvider returns a Provider of
// CollapsingHighestDenseStores with the given bin limit.
func CollapsingHighestProvider(maxBins int) Provider {
	return func() Store { return NewCollapsingHighestDenseStore(maxBins) }
}

// Store type tags used in the binary encoding. Tags 4 and 5 were
// written by the sparse and buffered-paginated stores of earlier
// releases; no encoder writes them any more, and Decode reads their
// bins into a DenseStore so those payloads stay readable.
const (
	typeDense             byte = 1
	typeCollapsingLowest  byte = 2
	typeCollapsingHighest byte = 3
	typeSparse            byte = 4
	typeBufferedPaginated byte = 5
)

// Decode reads a store previously written by Store.Encode, reconstructing
// the original concrete type and configuration. Bins written under the
// retired sparse and paginated tags decode into a DenseStore.
func Decode(r *encoding.Reader) (Store, error) { return decodeInto(r, nil) }

func init() {
	storeops.Install(decodeInto, func(d *DenseStore, lo, hi int) *DenseStore {
		if d == nil {
			d = NewDenseStore()
		}
		d.reset(lo, hi)
		return d
	})
}

// decodeInto is Decode reusing dst when dst has the encoded type and
// bin limit: a reused store is emptied and keeps its array when the
// array is long enough for the decoded index range. A nil or
// mismatched dst is replaced by a new store.
func decodeInto(r *encoding.Reader, dst Store) (Store, error) {
	tag, err := r.Byte()
	if err != nil {
		return nil, fmt.Errorf("store: decoding type tag: %w", err)
	}
	var s Store
	switch tag {
	case typeDense, typeSparse, typeBufferedPaginated:
		if d, ok := dst.(*DenseStore); ok {
			s = d
		} else {
			s = NewDenseStore()
		}
	case typeCollapsingLowest, typeCollapsingHighest:
		u, err := r.Uvarint()
		if err != nil {
			return nil, fmt.Errorf("store: decoding bin limit: %w", err)
		}
		maxBins := int(u)
		if tag == typeCollapsingLowest {
			if d, ok := dst.(*CollapsingLowestDenseStore); ok && d.maxBins == max(maxBins, 1) {
				s = d
			} else {
				s = NewCollapsingLowestDenseStore(maxBins)
			}
		} else {
			if d, ok := dst.(*CollapsingHighestDenseStore); ok && d.maxBins == max(maxBins, 1) {
				s = d
			} else {
				s = NewCollapsingHighestDenseStore(maxBins)
			}
		}
	default:
		return nil, fmt.Errorf("store: type tag %d: %w", tag, ErrUnknownStore)
	}
	if err := decodeBins(r, s); err != nil {
		return nil, err
	}
	return s, nil
}

// encodeBins appends the store's non-empty buckets as a delta-indexed
// list: a bucket count followed by (index delta, count) pairs.
func encodeBins(w *encoding.Writer, s Store) {
	w.Uvarint(uint64(s.NumBins()))
	prev := 0
	s.ForEach(func(index int, count float64) bool {
		w.Varint(int64(index - prev))
		w.Varfloat64(count)
		prev = index
		return true
	})
}

// decodedBin is one validated bucket of an encoded bucket list.
type decodedBin struct {
	index int
	count float64
}

// binBufPool recycles decodeBins' buffers. Buffers past
// maxPooledBinBuf bins (only a hostile payload needs one) are dropped.
var binBufPool = sync.Pool{New: func() any { return new([]decodedBin) }}

const maxPooledBinBuf = 1 << 13

// decodeBins reads a bucket list written by encodeBins into s, which it
// empties first. Every bin is read and validated before the store is
// touched, so that corrupted or hostile input fails with ErrInvalidBins
// instead of driving the store into huge allocations (see the
// maxDecoded* limits above). The array is then sized once for the
// decoded index range, and the bins are added in encoded order, exactly
// as a loop of AddWithCount calls on an empty store would add them.
func decodeBins(r *encoding.Reader, s Store) error {
	n, err := r.Uvarint()
	if err != nil {
		return fmt.Errorf("store: decoding bin count: %w", err)
	}
	// Each bin costs at least two bytes (one varint, one varfloat), so a
	// count beyond half the remaining input cannot be satisfied.
	if n > uint64(r.Remaining()/2) {
		return fmt.Errorf("%w: bin count %d exceeds input size", ErrInvalidBins, n)
	}
	buf := binBufPool.Get().(*[]decodedBin)
	defer func() {
		if cap(*buf) <= maxPooledBinBuf {
			binBufPool.Put(buf)
		}
	}()
	bins := (*buf)[:0]
	var index, minIndex, maxIndex int64
	for i := uint64(0); i < n; i++ {
		delta, err := r.Varint()
		if err != nil {
			return fmt.Errorf("store: decoding bin %d index: %w", i, err)
		}
		count, err := r.Varfloat64()
		if err != nil {
			return fmt.Errorf("store: decoding bin %d count: %w", i, err)
		}
		index += delta
		// The identity check also rejects indexes a 32-bit int would
		// silently truncate, which would otherwise defeat the span bound.
		if index > maxDecodedIndexMagnitude || index < -maxDecodedIndexMagnitude ||
			index != int64(int(index)) {
			return fmt.Errorf("%w: bucket index %d out of range", ErrInvalidBins, index)
		}
		if i == 0 {
			minIndex, maxIndex = index, index
		} else if index < minIndex {
			minIndex = index
		} else if index > maxIndex {
			maxIndex = index
		}
		if maxIndex-minIndex > maxDecodedIndexSpan {
			return fmt.Errorf("%w: index span [%d, %d] too wide", ErrInvalidBins, minIndex, maxIndex)
		}
		if math.IsNaN(count) || math.IsInf(count, 0) || count <= 0 {
			return fmt.Errorf("%w: bin %d count %v", ErrInvalidBins, i, count)
		}
		bins = append(bins, decodedBin{int(index), count})
	}
	*buf = bins
	lo, hi := int(minIndex), int(maxIndex)
	if n == 0 {
		lo, hi = 0, -1
	}
	// Within a range that fits the bin limit no add can collapse, and
	// AddWithCount of a positive count on an addressable index is addAt.
	// More span than maxBins can only come from a hostile encoder;
	// AddWithCount then collapses it exactly as it always has.
	fits := true
	switch t := s.(type) {
	case *DenseStore:
		t.reset(lo, hi)
	case *CollapsingLowestDenseStore:
		t.reset(max(lo, hi-t.maxBins+1), hi)
		t.isCollapsed = false
		fits = hi-lo < t.maxBins
	case *CollapsingHighestDenseStore:
		t.reset(lo, min(hi, lo+t.maxBins-1))
		t.isCollapsed = false
		fits = hi-lo < t.maxBins
	}
	if d := denseBinsOf(s); d != nil && fits {
		for _, b := range bins {
			d.addAt(b.index, b.count)
		}
		return nil
	}
	for _, b := range bins {
		s.AddWithCount(b.index, b.count)
	}
	return nil
}

// FoldPairwise re-indexes every bucket of s from index i to ⌈i/2⌉,
// folding each bucket pair (2j−1, 2j) into a single bucket j — the
// store half of a uniform collapse (UDDSketch), whose mapping half
// squares γ so that the pair's union is exactly the coarser mapping's
// bucket j. Counts are preserved exactly and the index span at least
// halves once it exceeds two buckets.
//
// The fold never widens the index range, so it is safe on any store;
// uniform-collapse sketches use unbounded dense stores, keeping the
// fold free of interference from a store-level collapsing policy.
func FoldPairwise(s Store) {
	if s.IsEmpty() {
		return
	}
	type bin struct {
		index int
		count float64
	}
	bins := make([]bin, 0, s.NumBins())
	s.ForEach(func(index int, count float64) bool {
		bins = append(bins, bin{index, count})
		return true
	})
	s.Clear()
	for _, b := range bins {
		// ⌈i/2⌉ for any sign: Go's arithmetic shift rounds toward −∞,
		// so (i+1)>>1 is the ceiling for negative indexes too.
		s.AddWithCount((b.index+1)>>1, b.count)
	}
}

// mergeGeneric implements MergeWith on top of iteration and
// AddWithCount, without mutating the source store (the Store.MergeWith
// contract that DDSketch.MergeWith relies on).
func mergeGeneric(dst, src Store) {
	src.ForEach(func(index int, count float64) bool {
		dst.AddWithCount(index, count)
		return true
	})
}
