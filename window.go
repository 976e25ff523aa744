package ddsketch

import (
	"fmt"
	"sync"
	"time"

	"github.com/ddsketch-go/ddsketch/internal/window"
)

// TimeWindowed aggregates values into a ring of fixed-duration interval
// sketches and answers quantile queries over the trailing window — the
// generalization of the paper's introductory agent loop, where an agent
// sketches an interval's traffic, ships it, and resets. Instead of
// discarding each interval after shipping, TimeWindowed retains the
// last `windows` intervals, so queries like "p99 over the last minute"
// are a merge of the relevant interval sketches (exact, by Algorithm 4).
//
// Rotation is O(1): advancing to a new interval moves the ring head and
// clears the expired sketch in place, reusing its allocated stores. The
// clock is injectable so tests (and replay pipelines) can drive time
// deterministically.
//
// Under WithUniformCollapse each interval sketch collapses
// independently and Clear resets its epoch, so every fresh interval
// starts back at full α accuracy; trailing queries over a ring whose
// slots sit at different collapse epochs reconcile them on merge
// (collapsing the finer slots' copies first), answering with the
// coarsest retained epoch's α'.
//
// TimeWindowed is safe for concurrent use; all methods take an internal
// lock. For very high write concurrency, put a Sharded in front and
// periodically fold its Flush output into the window via MergeWith —
// cmd/ddserver wires exactly that.
type TimeWindowed struct {
	mu    sync.Mutex
	grid  window.Grid // anchored at construction
	ring  window.Ring[*DDSketch]
	now   func() time.Time
	proto *DDSketch // empty configuration template for merged results

	// onRotate, when set, receives a deep copy of each interval that
	// closes holding data — the library half of the ship-on-rotation
	// agent loop. See SetRotateHook.
	onRotate func(closed *DDSketch)
}

// NewTimeWindowed returns an aggregator keeping `windows` intervals of
// the given duration, all configured like prototype (which it takes
// ownership of; any existing content seeds the current interval). It
// uses the wall clock; see NewTimeWindowedWithClock for a custom one.
func NewTimeWindowed(prototype *DDSketch, interval time.Duration, windows int) (*TimeWindowed, error) {
	return NewTimeWindowedWithClock(prototype, interval, windows, time.Now)
}

// NewTimeWindowedWithClock is NewTimeWindowed with an injectable clock.
// now must be monotone non-decreasing across calls.
func NewTimeWindowedWithClock(prototype *DDSketch, interval time.Duration, windows int, now func() time.Time) (*TimeWindowed, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("ddsketch: window interval must be positive, got %v", interval)
	}
	if windows < 1 {
		return nil, fmt.Errorf("ddsketch: window count must be at least 1, got %d", windows)
	}
	w := &TimeWindowed{
		grid:  window.NewGrid(now(), interval),
		now:   now,
		proto: prototype.Copy(),
	}
	w.proto.Clear()
	slots := make([]*DDSketch, windows)
	slots[0] = prototype
	for i := 1; i < windows; i++ {
		slots[i] = w.proto.Copy()
	}
	w.ring = window.NewRing(slots, 0)
	return w, nil
}

// Interval returns the duration of one window slot.
func (w *TimeWindowed) Interval() time.Duration { return w.grid.Interval() }

// Windows returns the number of retained interval slots.
func (w *TimeWindowed) Windows() int { return w.ring.Len() }

// advance rotates the ring to the interval containing now, handing a
// closing interval that holds data to the rotate hook before its slot
// can be cleared or reused. Callers must hold w.mu.
func (w *TimeWindowed) advance() {
	// Every older slot already fired the hook when it closed, so exactly
	// one interval closes per rotation.
	w.ring.Advance(w.grid.Gen(w.now()), func(head *DDSketch) {
		if w.onRotate != nil && !head.IsEmpty() {
			w.onRotate(head.Copy())
		}
	})
}

// SetRotateHook registers fn to receive a deep copy of each interval
// that closes holding at least one value — the moment an agent in the
// paper's §1 loop would ship its interval sketch. The hook fires inside
// the rotation that closes the interval (rotation is lazy: it happens
// on the first operation — or explicit Rotate — whose clock reading
// falls in a later interval), synchronously and with the ring's lock
// held: fn must hand the sketch off quickly and must not call back into
// the TimeWindowed. The copy is owned by fn. Intervals that close empty
// are not reported, and Clear discards without firing the hook.
// Passing nil removes the hook.
func (w *TimeWindowed) SetRotateHook(fn func(closed *DDSketch)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.onRotate = fn
}

// Rotate advances the ring to the interval containing the clock's
// present reading, firing the rotate hook if the current interval
// closes. Rotation is otherwise implicit in every read and write, so an
// idle sketch only notices a closed interval at its next operation;
// periodic maintenance (such as cmd/ddserver's drain loop) calls Rotate
// to close idle intervals promptly.
func (w *TimeWindowed) Rotate() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.advance()
}

// Add inserts a value into the current interval.
func (w *TimeWindowed) Add(value float64) error { return w.AddWithCount(value, 1) }

// AddWithCount inserts a value with the given weight into the current
// interval.
func (w *TimeWindowed) AddWithCount(value, count float64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.advance()
	return (*w.ring.Head()).AddWithCount(value, count)
}

// AddBatch inserts every value into the current interval with a single
// lock acquisition and a single rotation check for the whole batch: the
// batch is attributed atomically to the interval current when it begins,
// where the per-value loop would re-check rotation on every value.
func (w *TimeWindowed) AddBatch(values []float64) error { return w.AddBatchWithCount(values, 1) }

// AddBatchWithCount inserts every value with the given weight into the
// current interval, with one lock acquisition and one rotation check per
// batch.
func (w *TimeWindowed) AddBatchWithCount(values []float64, count float64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.advance()
	return (*w.ring.Head()).AddBatchWithCount(values, count)
}

// MergeWith folds other into the current interval — the aggregator-side
// half of the agent workflow, attributing an arriving sketch to the
// interval in which it arrived. other is not modified.
func (w *TimeWindowed) MergeWith(other *DDSketch) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.advance()
	return (*w.ring.Head()).MergeWith(other)
}

// Trailing returns a merged deep copy of the last k intervals, newest
// first from the current one. k is clamped to [1, Windows()]. The copy
// is independent of the ring: callers can query or encode it without
// holding up writers.
func (w *TimeWindowed) Trailing(k int) *DDSketch {
	merged := w.proto.Copy()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.advance()
	// Same mapping lineage by construction: slots share the proto's base
	// mapping, and under uniform collapse the merge reconciles their
	// independent epochs, so this merge cannot fail.
	_ = w.ring.Trailing(k, func(s *DDSketch) error { return merged.MergeWith(s) })
	return merged
}

// Snapshot returns a merged deep copy of every retained interval.
func (w *TimeWindowed) Snapshot() *DDSketch { return w.Trailing(w.ring.Len()) }

// Summary returns count, sum, min, max, avg, and the requested
// quantiles over all retained intervals in exactly one merge pass over
// the ring.
func (w *TimeWindowed) Summary(qs ...float64) (Summary, error) {
	return w.Snapshot().summarize(qs)
}

// Count returns the total weight across all retained intervals.
func (w *TimeWindowed) Count() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.advance()
	total := 0.0
	_ = w.ring.Trailing(w.ring.Len(), func(s *DDSketch) error {
		total += s.Count()
		return nil
	})
	return total
}

// Clear empties every interval. The grid keeps its anchor: the current
// interval is still the one containing the clock's present reading.
func (w *TimeWindowed) Clear() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ring.Clear()
}

// String implements fmt.Stringer.
func (w *TimeWindowed) String() string {
	return fmt.Sprintf("TimeWindowed(interval=%v, windows=%d, count=%g)",
		w.Interval(), w.Windows(), w.Count())
}
