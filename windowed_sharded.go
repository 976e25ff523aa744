package ddsketch

import (
	"fmt"
	"sync"
	"time"
)

// WindowedSharded composes the two concurrency/retention layers into the
// full aggregation-service core from §1 of the paper: a lock-striped
// Sharded sketch absorbs concurrent writes (raw values or whole sketches
// shipped by agents), and a TimeWindowed ring retains recent history for
// trailing-window queries. Reads drain the sharded layer into the
// current interval first, so every acknowledged write is visible; a
// periodic Drain (cmd/ddserver runs one from a ticker) keeps values
// attributed to the interval in which they arrived rather than the one
// in which they were first queried.
//
// Both layers merge exactly (Algorithm 4), so the composition costs no
// accuracy: a WindowedSharded answers exactly as a TimeWindowed fed the
// same values at the same times would. Under WithUniformCollapse the
// shards and interval slots all collapse independently; drains and
// reads reconcile their mixed epochs by collapsing the finer side
// first, so the composition holds there too — at the coarsest epoch's
// α' instead of α.
//
// Construct one with NewSketch(WithSharding(k), WithWindow(d, n), ...)
// or NewWindowedSharded. WindowedSharded is safe for concurrent use.
type WindowedSharded struct {
	live *Sharded      // absorbs writes between drains
	ring *TimeWindowed // retains drained history

	// drainMu makes flush-and-merge atomic with respect to other
	// drains: without it, a reader draining between another drain's
	// Flush and MergeWith would see neither the shards' content (already
	// flushed) nor the ring's (not yet merged), transiently hiding
	// acknowledged writes.
	drainMu sync.Mutex
}

// NewWindowedSharded returns a sharded, time-windowed sketch whose
// layers share prototype's mapping and store configuration. Any values
// already in prototype seed the live layer (they reach the window ring
// on the first drain). numShards follows NewSharded's rounding;
// interval and windows follow NewTimeWindowed's validation.
// NewWindowedSharded takes ownership of prototype.
func NewWindowedSharded(prototype *DDSketch, numShards int, interval time.Duration, windows int) (*WindowedSharded, error) {
	return NewWindowedShardedWithClock(prototype, numShards, interval, windows, time.Now)
}

// NewWindowedShardedWithClock is NewWindowedSharded with an injectable
// clock driving window rotation. now must be monotone non-decreasing
// across calls.
func NewWindowedShardedWithClock(prototype *DDSketch, numShards int, interval time.Duration, windows int, now func() time.Time) (*WindowedSharded, error) {
	ringProto := prototype.Copy()
	ringProto.Clear()
	ring, err := NewTimeWindowedWithClock(ringProto, interval, windows, now)
	if err != nil {
		return nil, err
	}
	return &WindowedSharded{
		live: NewSharded(prototype, numShards),
		ring: ring,
	}, nil
}

// NumShards returns the number of shards in the live ingest layer.
func (ws *WindowedSharded) NumShards() int { return ws.live.NumShards() }

// Interval returns the duration of one window slot.
func (ws *WindowedSharded) Interval() time.Duration { return ws.ring.Interval() }

// Windows returns the number of retained interval slots.
func (ws *WindowedSharded) Windows() int { return ws.ring.Windows() }

// RelativeAccuracy returns the sketches' accuracy parameter α.
func (ws *WindowedSharded) RelativeAccuracy() float64 { return ws.live.RelativeAccuracy() }

// Drain folds everything the sharded layer has absorbed since the last
// drain into the current time window. Every query drains first, so
// calling Drain explicitly is only needed to keep interval attribution
// sharp: run it periodically (at least once per interval) from a ticker.
// Writes racing with Drain land either in the drained batch or in the
// refilling shards, never both and never lost.
func (ws *WindowedSharded) Drain() {
	ws.drainMu.Lock()
	defer ws.drainMu.Unlock()
	flushed := ws.live.Flush()
	if flushed.IsEmpty() {
		// Nothing to merge, but the ring must still notice an interval
		// boundary: an idle aggregate would otherwise never close its
		// current interval (or fire the rotate hook) until the next write.
		ws.ring.Rotate()
		return
	}
	// Same mapping by construction, so the merge cannot fail.
	_ = ws.ring.MergeWith(flushed)
}

// SetRotateHook registers fn to receive a deep copy of each window
// interval that closes holding data; see TimeWindowed.SetRotateHook for
// the contract. The hook observes only drained data — values still
// sitting in the shards when an interval closes are attributed to the
// next interval — so run a periodic Drain (cmd/ddserver does, at half
// the interval) to keep what the hook ships aligned with arrival time.
func (ws *WindowedSharded) SetRotateHook(fn func(closed *DDSketch)) {
	ws.ring.SetRotateHook(fn)
}

// Rotate drains the live layer and advances the ring to the interval
// containing the clock's present reading, firing the rotate hook if the
// current interval closes; see TimeWindowed.Rotate.
func (ws *WindowedSharded) Rotate() { ws.Drain() }

// Add inserts a value into the live layer.
func (ws *WindowedSharded) Add(value float64) error { return ws.live.Add(value) }

// AddWithCount inserts a value with the given weight into the live
// layer.
func (ws *WindowedSharded) AddWithCount(value, count float64) error {
	return ws.live.AddWithCount(value, count)
}

// AddBatch inserts every value into the live layer through its
// chunk-per-shard batch path, so each shard lock is acquired at most
// once per batch.
func (ws *WindowedSharded) AddBatch(values []float64) error { return ws.live.AddBatch(values) }

// AddBatchWithCount inserts every value with the given weight into the
// live layer through its batch path.
func (ws *WindowedSharded) AddBatchWithCount(values []float64, count float64) error {
	return ws.live.AddBatchWithCount(values, count)
}

// MergeWith folds other into the live layer — the aggregator-side half
// of the agent workflow. other is not modified.
func (ws *WindowedSharded) MergeWith(other *DDSketch) error { return ws.live.MergeWith(other) }

// MergeEncoded decodes an encoded sketch with c and folds it into the
// live layer: the aggregator's hot path, one call per agent payload.
// It is Decode followed by MergeWith, all or nothing: a payload c
// rejects, or whose mapping conflicts with the aggregate's
// (ErrIncompatibleSketches), changes nothing.
//
// The built-in codecs decode into a pooled scratch sketch whose stores
// keep their arrays between calls, so after warm-up a payload costs no
// allocation. Codecs registered with RegisterCodec go through their
// Decode.
func (ws *WindowedSharded) MergeEncoded(c Codec, payload []byte) error {
	return mergeEncoded(ws.live, c, payload)
}

// Trailing drains and returns a merged deep copy of the last k
// intervals, newest first. k is clamped to [1, Windows()].
func (ws *WindowedSharded) Trailing(k int) *DDSketch {
	ws.Drain()
	return ws.ring.Trailing(k)
}

// Snapshot drains and returns a merged deep copy of every retained
// interval.
func (ws *WindowedSharded) Snapshot() *DDSketch {
	ws.Drain()
	return ws.ring.Snapshot()
}

// Quantiles returns α-accurate estimates for each of the given
// quantiles, all computed against one merged snapshot.
func (ws *WindowedSharded) Quantiles(qs []float64) ([]float64, error) {
	return ws.Snapshot().Quantiles(qs)
}

// Summary returns count, sum, min, max, avg, and the requested
// quantiles over all retained intervals in one drain-and-merge pass.
func (ws *WindowedSharded) Summary(qs ...float64) (Summary, error) {
	return ws.Snapshot().summarize(qs)
}

// TrailingSummary is Summary restricted to the last k intervals.
func (ws *WindowedSharded) TrailingSummary(k int, qs ...float64) (Summary, error) {
	return ws.Trailing(k).summarize(qs)
}

// Count drains and returns the total weight across all retained
// intervals.
func (ws *WindowedSharded) Count() float64 {
	ws.Drain()
	return ws.ring.Count()
}

// Clear empties both layers. The window grid keeps its anchor.
func (ws *WindowedSharded) Clear() {
	ws.live.Clear()
	ws.ring.Clear()
}

// String implements fmt.Stringer.
func (ws *WindowedSharded) String() string {
	return fmt.Sprintf("WindowedSharded(shards=%d, interval=%v, windows=%d, count=%g)",
		ws.NumShards(), ws.Interval(), ws.Windows(), ws.Count())
}
