package ddsketch

import "sync"

// Concurrent wraps a DDSketch with a reader/writer mutex so that many
// goroutines can record values while others query quantiles — the shape
// of a metrics agent, where request handlers insert and a flusher
// periodically serializes and resets.
//
// Every operation serializes on a single lock, so write throughput does
// not scale with additional writers; under heavy parallel insert load,
// prefer Sharded, which spreads writers across independently-locked
// shards and merges them exactly on read.
type Concurrent struct {
	mu     sync.RWMutex
	sketch *DDSketch
}

// NewConcurrent returns a concurrency-safe wrapper around sketch, taking
// ownership of it: the caller must not use sketch directly afterwards.
func NewConcurrent(sketch *DDSketch) *Concurrent {
	return &Concurrent{sketch: sketch}
}

// Add inserts a value into the sketch.
func (c *Concurrent) Add(value float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sketch.Add(value)
}

// AddWithCount inserts a value with the given weight.
func (c *Concurrent) AddWithCount(value, count float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sketch.AddWithCount(value, count)
}

// AddBatch inserts every value under a single lock acquisition, where
// the equivalent per-value Add loop would lock once per value.
func (c *Concurrent) AddBatch(values []float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sketch.AddBatch(values)
}

// AddBatchWithCount inserts every value with the given weight under a
// single lock acquisition.
func (c *Concurrent) AddBatchWithCount(values []float64, count float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sketch.AddBatchWithCount(values, count)
}

// Delete removes one previously added occurrence of value.
func (c *Concurrent) Delete(value float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sketch.Delete(value)
}

// Count returns the total weight held by the sketch.
func (c *Concurrent) Count() float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.sketch.Count()
}

// Summary returns count, sum, min, max, avg, and the requested
// quantiles, all read under one lock acquisition.
//
// Reads take the write lock: the stores refresh their range hints
// while scanning.
func (c *Concurrent) Summary(qs ...float64) (Summary, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sketch.summarize(qs)
}

// MergeWith folds other into the wrapped sketch.
func (c *Concurrent) MergeWith(other *DDSketch) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sketch.MergeWith(other)
}

// Snapshot returns a deep copy of the wrapped sketch, for lock-free
// querying or serialization.
func (c *Concurrent) Snapshot() *DDSketch {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sketch.Copy()
}

// Flush returns a deep copy of the wrapped sketch and clears it
// atomically — the agent "send and reset" operation from the paper's
// introduction.
func (c *Concurrent) Flush() *DDSketch {
	c.mu.Lock()
	defer c.mu.Unlock()
	snapshot := c.sketch.Copy()
	c.sketch.Clear()
	return snapshot
}

// Clear empties the wrapped sketch, keeping its configuration and
// allocated capacity.
func (c *Concurrent) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sketch.Clear()
}
