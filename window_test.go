package ddsketch_test

import (
	"errors"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/ddsketch-go/ddsketch"
	"github.com/ddsketch-go/ddsketch/internal/datagen"
	"github.com/ddsketch-go/ddsketch/internal/exact"
)

// fakeClock is a manually advanced clock for deterministic window tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func newWindowedForTest(t *testing.T, interval time.Duration, windows int) (*ddsketch.TimeWindowed, *fakeClock) {
	t.Helper()
	proto, err := ddsketch.NewCollapsing(0.01, 2048)
	if err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	w, err := ddsketch.NewTimeWindowedWithClock(proto, interval, windows, clock.Now)
	if err != nil {
		t.Fatal(err)
	}
	return w, clock
}

func TestTimeWindowedValidation(t *testing.T) {
	proto, err := ddsketch.NewCollapsing(0.01, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ddsketch.NewTimeWindowed(proto, 0, 3); err == nil {
		t.Error("interval 0: want error")
	}
	if _, err := ddsketch.NewTimeWindowed(proto, time.Second, 0); err == nil {
		t.Error("windows 0: want error")
	}
}

func TestTimeWindowedRotation(t *testing.T) {
	w, clock := newWindowedForTest(t, time.Minute, 3)

	// Interval 1: hundred 1s. Interval 2: hundred 10s. Interval 3:
	// hundred 100s.
	for _, v := range []float64{1, 10, 100} {
		for i := 0; i < 100; i++ {
			if err := w.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		clock.Advance(time.Minute)
	}
	// The clock has advanced past the third interval, so the current
	// (empty) interval plus the last two full ones are retained; the 1s
	// have expired.
	if got := w.Count(); got != 200 {
		t.Fatalf("Count after 3 intervals + rotation = %g, want 200", got)
	}
	med, err := w.Snapshot().Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if med < 9 || med > 101 {
		t.Errorf("median over [10s, 100s] = %g, want within [10, 100]", med)
	}

	// Trailing(1) is the current, still-empty interval.
	if got := w.Trailing(1).Count(); got != 0 {
		t.Errorf("Trailing(1).Count = %g, want 0 (fresh interval)", got)
	}
	// Trailing(2) covers the 100s only.
	p, err := w.Trailing(2).Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p < 99 || p > 101 {
		t.Errorf("Trailing(2).Quantile(0.5) = %g, want ≈100", p)
	}
}

func TestTimeWindowedIdleExpiry(t *testing.T) {
	w, clock := newWindowedForTest(t, time.Second, 4)
	for i := 0; i < 100; i++ {
		if err := w.Add(42); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Count(); got != 100 {
		t.Fatalf("Count = %g, want 100", got)
	}
	// An idle gap longer than the whole ring expires everything.
	clock.Advance(10 * time.Second)
	if w.Count() > 0 {
		t.Fatalf("after idle gap: Count = %g, want 0", w.Count())
	}
	// The ring keeps working after the mass expiry.
	if err := w.Add(7); err != nil {
		t.Fatal(err)
	}
	if got := w.Count(); got != 1 {
		t.Fatalf("Count after re-adding = %g, want 1", got)
	}
}

func TestTimeWindowedPartialRotationKeepsRecent(t *testing.T) {
	w, clock := newWindowedForTest(t, time.Second, 4)
	// Fill four consecutive intervals with distinguishable values.
	for i := 0; i < 4; i++ {
		if err := w.AddWithCount(float64(i+1), 10); err != nil {
			t.Fatal(err)
		}
		if i < 3 {
			clock.Advance(time.Second)
		}
	}
	if got := w.Count(); got != 40 {
		t.Fatalf("Count with full ring = %g, want 40", got)
	}
	// Two more intervals pass: the two oldest (values 1 and 2) expire.
	clock.Advance(2 * time.Second)
	if got := w.Count(); got != 20 {
		t.Fatalf("Count after two rotations = %g, want 20", got)
	}
	min, err := w.Snapshot().Min()
	if err != nil {
		t.Fatal(err)
	}
	if min != 3 {
		t.Errorf("Min after expiry = %g, want 3", min)
	}
}

func TestTimeWindowedMerge(t *testing.T) {
	w, clock := newWindowedForTest(t, time.Minute, 2)
	agent, err := ddsketch.NewCollapsing(0.01, 2048)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		if err := agent.Add(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.MergeWith(agent); err != nil {
		t.Fatal(err)
	}
	if err := decodeInto(w, agent.Encode()); err != nil {
		t.Fatal(err)
	}
	if got := w.Count(); got != 200 {
		t.Fatalf("Count after merges = %g, want 200", got)
	}
	// The argument must be untouched.
	if got := agent.Count(); got != 100 {
		t.Fatalf("merge argument Count = %g, want 100", got)
	}
	// Incompatible mappings are rejected.
	other, err := ddsketch.New(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.MergeWith(other); !errors.Is(err, ddsketch.ErrIncompatibleSketches) {
		t.Fatalf("MergeWith(different mapping): got %v, want ErrIncompatibleSketches", err)
	}
	// Merged content rotates out like directly added content.
	clock.Advance(3 * time.Minute)
	if w.Count() > 0 {
		t.Errorf("after expiry: Count = %g, want 0", w.Count())
	}
}

func TestTimeWindowedClear(t *testing.T) {
	w, _ := newWindowedForTest(t, time.Second, 3)
	for i := 0; i < 10; i++ {
		if err := w.Add(float64(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	w.Clear()
	if w.Count() > 0 {
		t.Error("not empty after Clear")
	}
	if _, err := w.Snapshot().Quantile(0.5); !errors.Is(err, ddsketch.ErrEmptySketch) {
		t.Errorf("Quantile after Clear: got %v, want ErrEmptySketch", err)
	}
}

// TestTimeWindowedUniformCollapseRotation: under WithUniformCollapse,
// each interval collapses independently and rotation resets the
// recycled slot to epoch 0, so a fresh interval always starts at full
// α; trailing queries over a ring whose slots sit at different epochs
// reconcile them and answer within the coarsest retained epoch's α'.
func TestTimeWindowedUniformCollapseRotation(t *testing.T) {
	const maxBins = 64
	clock := newFakeClock()
	sk, err := ddsketch.NewSketch(
		ddsketch.WithRelativeAccuracy(0.01),
		ddsketch.WithUniformCollapse(maxBins),
		ddsketch.WithWindow(time.Minute, 3),
		ddsketch.WithClock(clock.Now),
	)
	if err != nil {
		t.Fatal(err)
	}
	w := sk.(*ddsketch.TimeWindowed)

	// Interval 1: a 12-decade stream that must collapse several times.
	wide := datagen.ExpRamp(5000, 12)
	if err := w.AddBatch(wide); err != nil {
		t.Fatal(err)
	}
	wideEpoch := w.Trailing(1).CollapseEpoch()
	if wideEpoch == 0 {
		t.Fatal("wide interval did not collapse")
	}

	// Interval 2: a narrow stream. The recycled slot must restart at
	// epoch 0 and answer at full α, regardless of interval 1's history.
	clock.Advance(time.Minute)
	for i := 0; i < 1000; i++ {
		if err := w.Add(100); err != nil {
			t.Fatal(err)
		}
	}
	fresh := w.Trailing(1)
	if got := fresh.CollapseEpoch(); got != 0 {
		t.Errorf("fresh interval epoch = %d, want 0 (rotation must reset the epoch)", got)
	}
	if got := fresh.RelativeAccuracy(); got != 0.01 {
		t.Errorf("fresh interval α = %v, want 0.01", got)
	}
	med, err := fresh.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(med-100)/100 > 0.01 {
		t.Errorf("fresh interval median = %g, want ≈100 within full α", med)
	}

	// The trailing query across both intervals reconciles the mixed
	// epochs: count is exact, the merged epoch is at least the wide
	// interval's, and every quantile is within the merged α'.
	merged := w.Trailing(2)
	if got, want := merged.Count(), float64(len(wide)+1000); got != want {
		t.Fatalf("Trailing(2) count = %g, want %g", got, want)
	}
	if got := merged.CollapseEpoch(); got < wideEpoch {
		t.Errorf("merged epoch = %d, want ≥ %d (mixed-epoch reconciliation)", got, wideEpoch)
	}
	if bins := merged.NumBins(); bins > maxBins {
		t.Errorf("merged NumBins = %d exceeds budget %d", bins, maxBins)
	}
	combined := append(append([]float64(nil), wide...), make([]float64, 1000)...)
	for i := len(wide); i < len(combined); i++ {
		combined[i] = 100
	}
	sort.Float64s(combined)
	alphaE := merged.RelativeAccuracy()
	for _, q := range []float64{0.01, 0.5, 0.99} {
		est, err := merged.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		truth := exact.Quantile(combined, q)
		if rel := exact.RelativeError(est, truth); rel > alphaE*(1+1e-9) {
			t.Errorf("q=%g: relative error %g exceeds merged α'=%g", q, rel, alphaE)
		}
	}

	// Rotating the wide interval out restores full accuracy end to end.
	clock.Advance(2 * time.Minute)
	if got := w.Snapshot().CollapseEpoch(); got != 0 {
		t.Errorf("epoch after the wide interval expired = %d, want 0", got)
	}
}

func TestTimeWindowedConcurrent(t *testing.T) {
	w, clock := newWindowedForTest(t, time.Millisecond, 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				if err := w.Add(float64(i%100 + 1)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			clock.Advance(time.Millisecond / 4)
			_, _ = w.Snapshot().Quantile(0.9)
			_ = w.Count()
		}
	}()
	wg.Wait()
	<-done
}

// jumpYears moves the clock far into the future in one step, bypassing
// Advance's time.Duration parameter (which saturates at ~292 years).
func (c *fakeClock) jumpYears(years int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.AddDate(years, 0, 0)
}

// TestTimeWindowedFarFutureClockJump: a clock jump larger than
// time.Duration can represent (Sub saturates at ~292 years) must behave
// exactly like any other whole-ring expiry — old data gone, the grid
// re-anchored at the present — instead of leaving w.start centuries
// behind now, which made the *next* operation expire freshly added
// data.
func TestTimeWindowedFarFutureClockJump(t *testing.T) {
	w, clock := newWindowedForTest(t, time.Minute, 3)
	for _, v := range []float64{1, 2, 3} {
		if err := w.Add(v); err != nil {
			t.Fatal(err)
		}
	}

	// 1000 years: one saturated Sub cannot span it, so a lazily
	// re-anchored start would still trail now by centuries.
	clock.jumpYears(1000)
	if got := w.Count(); got != 0 {
		t.Fatalf("count after 1000-year gap = %g, want 0", got)
	}
	if err := w.Add(42); err != nil {
		t.Fatal(err)
	}
	if got := w.Count(); got != 1 {
		t.Fatalf("count right after post-jump add = %g, want 1 (value expired by a stale grid anchor)", got)
	}

	// The ring rotates normally from its new anchor.
	clock.Advance(time.Minute)
	if err := w.Add(43); err != nil {
		t.Fatal(err)
	}
	if got := w.Count(); got != 2 {
		t.Fatalf("count across two post-jump intervals = %g, want 2", got)
	}
	clock.Advance(10 * time.Minute)
	if got := w.Count(); got != 0 {
		t.Fatalf("count after the post-jump ring expired = %g, want 0", got)
	}

	// A huge gap that still fits in a Duration keeps the original grid:
	// the anchor stays interval-aligned after ~200 years of idleness.
	w2, clock2 := newWindowedForTest(t, time.Minute, 3)
	if err := w2.Add(1); err != nil {
		t.Fatal(err)
	}
	clock2.Advance(200 * 365 * 24 * time.Hour)
	if got := w2.Count(); got != 0 {
		t.Fatalf("count after 200-year gap = %g, want 0", got)
	}
	if err := w2.Add(5); err != nil {
		t.Fatal(err)
	}
	clock2.Advance(59 * time.Second) // still inside the current interval
	if got := w2.Count(); got != 1 {
		t.Fatalf("count within the re-anchored interval = %g, want 1", got)
	}
}

// TestTimeWindowedStaleClockKeepsRing: a clock reading behind the ring's
// current interval (a clock stepped back) is stale. It must neither
// rotate the ring nor fire the rotate hook nor lose data; writes land
// in the current interval, and rotation resumes once the clock passes
// that interval — the guard TestRegistryStaleGenerationKeepsRing pins
// on the registry.
func TestTimeWindowedStaleClockKeepsRing(t *testing.T) {
	w, clock := newWindowedForTest(t, time.Second, 3)
	closed := 0
	w.SetRotateHook(func(*ddsketch.DDSketch) { closed++ })
	if err := w.Add(1); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second) // interval 1
	if err := w.Add(2); err != nil {
		t.Fatal(err)
	}
	if closed != 1 {
		t.Fatalf("hooks after the first rotation = %d, want 1", closed)
	}

	clock.Advance(-time.Second) // stale reading: interval 0 again
	w.Rotate()
	if err := w.Add(3); err != nil {
		t.Fatal(err)
	}
	if got := w.Count(); got != 3 {
		t.Fatalf("count after stale operations = %g, want 3", got)
	}
	if got := w.Trailing(1).Count(); got != 2 {
		t.Fatalf("current interval count after a stale write = %g, want 2", got)
	}
	if closed != 1 {
		t.Fatalf("hooks after stale operations = %d, want 1", closed)
	}

	clock.Advance(time.Second) // back to interval 1: still current
	if got := w.Trailing(1).Count(); got != 2 {
		t.Fatalf("interval 1 count once the clock caught up = %g, want 2", got)
	}
	clock.Advance(time.Second) // interval 2 closes interval 1 once
	w.Rotate()
	if closed != 2 {
		t.Fatalf("hooks after interval 1 closed = %d, want 2", closed)
	}
	if got := w.Count(); got != 3 {
		t.Fatalf("count after the next rotation = %g, want 3", got)
	}
}

// TestTimeWindowedRotateHook: the hook receives a deep copy of exactly
// the intervals that close non-empty, once each, in closing order —
// whether the rotation is triggered by a write, a read, or an explicit
// Rotate — and never for empty intervals or Clear.
func TestTimeWindowedRotateHook(t *testing.T) {
	w, clock := newWindowedForTest(t, time.Minute, 3)
	var closed []*ddsketch.DDSketch
	w.SetRotateHook(func(c *ddsketch.DDSketch) { closed = append(closed, c) })

	// Interval 1: two values, closed by a write in interval 2.
	_ = w.Add(1)
	_ = w.Add(2)
	clock.Advance(time.Minute)
	_ = w.Add(10)
	if len(closed) != 1 {
		t.Fatalf("hooks after first rotation = %d, want 1", len(closed))
	}
	if got := closed[0].Count(); got != 2 {
		t.Errorf("closed interval 1 count = %g, want 2", got)
	}
	if v, err := closed[0].Max(); err != nil || v != 2 {
		t.Errorf("closed interval 1 max = %g (%v), want 2", v, err)
	}

	// The copy is independent: mutating it does not touch the ring.
	_ = closed[0].Add(999)
	if got := w.Count(); got != 3 {
		t.Errorf("ring count after mutating the hook's copy = %g, want 3", got)
	}

	// Interval 2 closes via an explicit Rotate, not an operation.
	clock.Advance(time.Minute)
	w.Rotate()
	if len(closed) != 2 {
		t.Fatalf("hooks after explicit Rotate = %d, want 2", len(closed))
	}
	if got := closed[1].Count(); got != 1 {
		t.Errorf("closed interval 2 count = %g, want 1", got)
	}

	// Interval 3 stays empty; rotating over it fires nothing.
	clock.Advance(time.Minute)
	w.Rotate()
	if len(closed) != 2 {
		t.Fatalf("hooks after empty interval closed = %d, want 2 (empty intervals are not shipped)", len(closed))
	}

	// A gap longer than the ring still reports the one interval that
	// actually held data.
	_ = w.Add(7)
	clock.Advance(30 * time.Minute)
	if got := w.Count(); got != 0 {
		t.Fatalf("count after long gap = %g, want 0", got)
	}
	if len(closed) != 3 {
		t.Fatalf("hooks after whole-ring expiry = %d, want 3", len(closed))
	}
	if got := closed[2].Count(); got != 1 {
		t.Errorf("closed interval 4 count = %g, want 1", got)
	}

	// Clear discards without shipping.
	_ = w.Add(8)
	w.Clear()
	if len(closed) != 3 {
		t.Errorf("hooks after Clear = %d, want 3 (Clear must not ship)", len(closed))
	}
}

// TestWindowedShardedRotateHookAndDrain: on the composed aggregate the
// hook sees drained data, and Drain closes intervals even when the
// shards are empty — an idle leaf must still ship its last interval.
func TestWindowedShardedRotateHookAndDrain(t *testing.T) {
	clock := newFakeClock()
	s, err := ddsketch.NewSketch(
		ddsketch.WithMaxBins(2048),
		ddsketch.WithSharding(4),
		ddsketch.WithWindow(time.Minute, 3),
		ddsketch.WithClock(clock.Now),
	)
	if err != nil {
		t.Fatal(err)
	}
	ws := s.(*ddsketch.WindowedSharded)
	var closed []*ddsketch.DDSketch
	ws.SetRotateHook(func(c *ddsketch.DDSketch) { closed = append(closed, c) })

	if err := ws.AddBatch([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	ws.Drain() // values reach the ring inside their own interval
	clock.Advance(time.Minute)
	// No new writes: only the empty-shard Drain path can close the
	// interval and hand it to the hook.
	ws.Drain()
	if len(closed) != 1 {
		t.Fatalf("hooks after idle Drain = %d, want 1", len(closed))
	}
	if got := closed[0].Count(); got != 3 {
		t.Errorf("closed interval count = %g, want 3", got)
	}

	// Values left in the shards when the interval closes belong to the
	// next interval, not the closing one.
	if err := ws.Add(50); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute)
	ws.Drain() // rotates first (closing an empty ring interval), then merges
	clock.Advance(time.Minute)
	ws.Drain()
	if len(closed) != 2 {
		t.Fatalf("hooks after shard-lag rotation = %d, want 2", len(closed))
	}
	if got := closed[1].Count(); got != 1 {
		t.Errorf("lagged interval count = %g, want 1", got)
	}
}
