package ddsketch

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sync"
)

// Sharded is a write-optimized concurrent sketch: values are spread
// across a power-of-two number of independently-locked shard sketches,
// so concurrent writers rarely contend on the same lock. Because
// DDSketch merges are exact (Algorithm 4 of the paper), queries can
// merge the shards on read and answer exactly as a single sketch of all
// inserted values would — sharding costs no accuracy.
//
// Compared to Concurrent, which serializes every Add behind one mutex,
// Sharded trades slightly more memory (one store per shard) and more
// expensive reads (a merge across shards) for near-linear write
// scalability. It is the right shape for the paper's agent workflow
// under heavy traffic: request handlers insert concurrently, and a
// flusher periodically calls Flush to ship a merged snapshot.
type Sharded struct {
	shards []paddedShard
	mask   uint64
	proto  *DDSketch // empty configuration template for merged results
}

// paddedShard pads each shard to its own cache lines so that two shards'
// locks never share a line (false sharing would reintroduce the very
// contention sharding removes).
type paddedShard struct {
	mu     sync.Mutex
	sketch *DDSketch
	_      [128 - 16]byte
}

// DefaultShardCount returns the shard count NewSharded uses when asked
// for an automatic size: GOMAXPROCS rounded up to a power of two,
// doubled so that randomly-chosen shards collide rarely even when every
// processor hosts a writer.
func DefaultShardCount() int {
	n := nextPow2(runtime.GOMAXPROCS(0)) * 2
	if n > 256 {
		n = 256
	}
	return n
}

func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// NewSharded returns a sharded sketch whose shards share prototype's
// mapping and store configuration. Any values already in prototype are
// kept (they seed the first shard). numShards is rounded up to a power
// of two; values below 1 select DefaultShardCount. NewSharded takes
// ownership of prototype: the caller must not use it directly afterwards.
func NewSharded(prototype *DDSketch, numShards int) *Sharded {
	if numShards < 1 {
		numShards = DefaultShardCount()
	}
	numShards = nextPow2(numShards)
	s := &Sharded{
		shards: make([]paddedShard, numShards),
		mask:   uint64(numShards - 1),
		proto:  prototype.Copy(),
	}
	s.proto.Clear()
	s.shards[0].sketch = prototype
	for i := 1; i < numShards; i++ {
		s.shards[i].sketch = s.proto.Copy()
	}
	return s
}

// NumShards returns the number of shards.
func (s *Sharded) NumShards() int { return len(s.shards) }

// RelativeAccuracy returns the sketches' accuracy parameter α.
func (s *Sharded) RelativeAccuracy() float64 { return s.proto.RelativeAccuracy() }

// shard picks a shard for the calling goroutine. math/rand/v2's
// top-level generator is per-OS-thread state with no locking, so shard
// selection itself never becomes a point of contention; with 2×P shards
// the probability that two running writers collide stays low.
func (s *Sharded) shard() *paddedShard {
	return &s.shards[rand.Uint64()&s.mask]
}

// Add inserts a value into one of the shards.
func (s *Sharded) Add(value float64) error {
	sh := s.shard()
	sh.mu.Lock()
	err := sh.sketch.Add(value)
	sh.mu.Unlock()
	return err
}

// AddWithCount inserts a value with the given weight into one of the
// shards.
func (s *Sharded) AddWithCount(value, count float64) error {
	sh := s.shard()
	sh.mu.Lock()
	err := sh.sketch.AddWithCount(value, count)
	sh.mu.Unlock()
	return err
}

// shardBatchMinChunk is the smallest slice of a batch worth dispatching
// to its own shard: below it, amortizing one lock over more values beats
// spreading the load, so small batches touch few shards (a batch under
// the threshold takes exactly one lock).
const shardBatchMinChunk = 128

// AddBatch partitions the batch into contiguous chunks, one per shard,
// so each shard lock is acquired at most once per batch — versus once
// per value for the equivalent Add loop. Because merges are exact, how
// values split across shards never changes any answer.
func (s *Sharded) AddBatch(values []float64) error { return s.AddBatchWithCount(values, 1) }

// AddBatchWithCount inserts every value with the given weight, taking
// each shard lock at most once. Chunks are processed in order, so a
// value that cannot be recorded stops the batch with the values before
// it recorded, exactly like the per-value loop.
func (s *Sharded) AddBatchWithCount(values []float64, count float64) error {
	if math.IsNaN(count) || count <= 0 {
		return fmt.Errorf("%w: got %v", ErrNegativeCount, count)
	}
	n := len(values)
	if n == 0 {
		return nil
	}
	chunks := (n + shardBatchMinChunk - 1) / shardBatchMinChunk
	if chunks > len(s.shards) {
		chunks = len(s.shards)
	}
	chunkSize := (n + chunks - 1) / chunks
	// Start at a random shard so concurrent batch writers spread out;
	// consecutive offsets keep the chunks on distinct shards.
	start := rand.Uint64()
	for c := 0; c < chunks; c++ {
		lo := c * chunkSize
		hi := lo + chunkSize
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		sh := &s.shards[(start+uint64(c))&s.mask]
		sh.mu.Lock()
		err := sh.sketch.AddBatchWithCount(values[lo:hi], count)
		sh.mu.Unlock()
		if err != nil {
			// The shard saw only its chunk; re-offset the reported batch
			// index so the error reads identically to the unsharded paths.
			var be *batchError
			if errors.As(err, &be) {
				be.index += lo
			}
			return err
		}
	}
	return nil
}

// MergeWith folds other into one of the shards. Because merges add
// bucket counts exactly, folding into any single shard is equivalent to
// folding into the whole; picking one at random lets concurrent
// aggregation streams (e.g. an ingest endpoint receiving agent
// sketches) merge in parallel. other is not modified.
//
// Under WithUniformCollapse each shard collapses independently, so the
// receiving shard — not the prototype — decides compatibility: it
// reconciles a sketch from a different collapse epoch of the same
// lineage by collapsing the finer side first, and the merge-on-read
// Snapshot reconciles the shards' mixed epochs the same way.
func (s *Sharded) MergeWith(other *DDSketch) error {
	if s.proto.uniformMaxBins == 0 && !s.proto.mapping.Equals(other.mapping) {
		return fmt.Errorf("%w: %v vs %v", ErrIncompatibleSketches, s.proto.mapping, other.mapping)
	}
	sh := s.shard()
	sh.mu.Lock()
	err := sh.sketch.MergeWith(other)
	sh.mu.Unlock()
	return err
}

// Snapshot returns a merged deep copy of all shards. Each shard is
// copied under its own lock, so the result contains every write that
// completed before the call and is internally consistent per shard; it
// is not a global point-in-time cut across shards (writes racing with
// the snapshot may or may not be included, as with any sharded counter).
func (s *Sharded) Snapshot() *DDSketch {
	merged := s.proto.Copy()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		// Same mapping lineage by construction: shards share the proto's
		// base mapping, and under uniform collapse the merge reconciles
		// their independent epochs (collapsing the finer side), so this
		// merge cannot fail.
		_ = merged.MergeWith(sh.sketch)
		sh.mu.Unlock()
	}
	return merged
}

// Flush returns a merged deep copy of all shards and clears them — the
// agent "send and reset" operation. Writes racing with Flush land
// either in the returned sketch or in the cleared-and-refilling shards,
// never both and never lost.
func (s *Sharded) Flush() *DDSketch {
	merged := s.proto.Copy()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		_ = merged.MergeWith(sh.sketch)
		sh.sketch.Clear()
		sh.mu.Unlock()
	}
	return merged
}

// Summary returns count, sum, min, max, avg, and the requested
// quantiles in exactly one merge pass over the shards, where reading
// each statistic off its own Snapshot would re-merge every time.
func (s *Sharded) Summary(qs ...float64) (Summary, error) {
	return s.Snapshot().summarize(qs)
}

// Count returns the total weight across all shards.
func (s *Sharded) Count() float64 {
	total := 0.0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += sh.sketch.Count()
		sh.mu.Unlock()
	}
	return total
}

// Clear empties every shard.
func (s *Sharded) Clear() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.sketch.Clear()
		sh.mu.Unlock()
	}
}

// String implements fmt.Stringer.
func (s *Sharded) String() string {
	return fmt.Sprintf("Sharded(shards=%d, count=%g)", len(s.shards), s.Count())
}
