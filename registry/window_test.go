// Tests for the time-aware keyed plane: per-key window rings sharing
// one rotation grid (WithKeyWindow), trailing-window reads, rotation-
// driven admission decay, full-ring eviction, idle-series expiry, and
// the inverted-index/scan-path equivalence. The acceptance identity —
// a windowed match-all roll-up answers like an unkeyed TimeWindowed
// sketch fed the same stream — lives in
// TestConformanceRegistryWindowedMatchesTimeWindowed so the CI race
// step re-runs it.
package registry

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/ddsketch-go/ddsketch"
	"github.com/ddsketch-go/ddsketch/internal/datagen"
	"github.com/ddsketch-go/ddsketch/internal/window"
)

// fakeClock is a concurrency-safe manual clock shared between a
// registry and its test driver, so rotation is fully deterministic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// jumpYears moves the clock far into the future in one step, past what
// Advance's time.Duration parameter can express (about 292 years).
func (c *fakeClock) jumpYears(years int) {
	c.mu.Lock()
	c.t = c.t.AddDate(years, 0, 0)
	c.mu.Unlock()
}

// TestConformanceRegistryWindowedMatchesTimeWindowed is the windowed
// acceptance identity: a keyed registry under WithKeyWindow, fed a
// stream spread across many keys with the clock advancing, must answer
// every trailing-window match-all roll-up exactly like one unkeyed
// TimeWindowed sketch (same template, same clock, same grid) fed the
// same stream — exact count, and quantiles bucket-for-bucket (all
// merges are exact, so within α follows a fortiori).
func TestConformanceRegistryWindowedMatchesTimeWindowed(t *testing.T) {
	checkWindowedIdentity(t, 1_000, 0)
}

// TestConformanceRegistryWindowedEvictionAdmissionMatchesTimeWindowed
// is the same identity with a budget below the key count and an
// admission threshold above 1, so values keep landing in overflow both
// before admission and through eviction. Each overflow ring sits on the
// registry's grid and eviction merges every interval into the overflow
// slot of the same age, so every trailing window must still answer
// exactly like the unkeyed ring: overflow ages out on schedule.
func TestConformanceRegistryWindowedEvictionAdmissionMatchesTimeWindowed(t *testing.T) {
	m := checkWindowedIdentity(t, 10, 3)
	if st := m.Stats(); st.Evicted == 0 || st.OverflowedValues == 0 {
		t.Fatalf("evicted/overflowed = %d/%d, want both > 0", st.Evicted, st.OverflowedValues)
	}
}

// checkWindowedIdentity feeds one stream spread over 25 keys and five
// intervals to a windowed registry with the given budget and admission
// threshold and to an unkeyed TimeWindowed, then requires every
// match-all roll-up (trailing 1..windows, and 0) to answer like the
// unkeyed ring's trailing window. It returns the registry.
func checkWindowedIdentity(t *testing.T, budget int, threshold float64) *SketchMap {
	t.Helper()
	const (
		windows = 4
		nKeys   = 25
		perGen  = 2_000
	)
	interval := time.Second
	clock := newFakeClock()
	m, err := New(
		WithKeyWindow(windows, interval, clock.Now),
		WithAdmissionThreshold(threshold),
		WithMaxSketches(budget),
		WithSketchOptions(
			ddsketch.WithRelativeAccuracy(0.01),
			ddsketch.WithMaxBins(2048),
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	unkeyed, err := ddsketch.NewSketch(
		ddsketch.WithRelativeAccuracy(0.01),
		ddsketch.WithMaxBins(2048),
		ddsketch.WithWindow(interval, windows),
		ddsketch.WithClock(clock.Now),
	)
	if err != nil {
		t.Fatal(err)
	}
	tw := unkeyed.(*ddsketch.TimeWindowed)

	keys := make([]LabelSet, nKeys)
	for i := range keys {
		keys[i] = mustLabelSet(t, "service=svc"+strconv.Itoa(i%5)+",endpoint=/ep"+strconv.Itoa(i))
	}
	// Five intervals of traffic, so the oldest interval has already
	// rotated out of both rings by the end.
	for gen := 0; gen < 5; gen++ {
		for i, v := range datagen.ParetoSeeded(perGen, uint64(100+gen)) {
			if err := m.Add(keys[(gen+i)%nKeys], v); err != nil {
				t.Fatal(err)
			}
			if err := tw.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		if gen < 4 {
			clock.Advance(interval)
		}
	}

	for k := 1; k <= windows; k++ {
		rollup, matched, err := m.RollUp(MatchAll(), k)
		if err != nil {
			t.Fatalf("window %d: %v", k, err)
		}
		if matched != m.LiveKeys() {
			t.Errorf("window %d: matched %d, live %d", k, matched, m.LiveKeys())
		}
		want := tw.Trailing(k)
		if rollup.Count() != want.Count() {
			t.Errorf("window %d: count %g, want %g", k, rollup.Count(), want.Count())
		}
		assertSameGlobal(t, rollup, want)
	}
	// window 0 ("all retained") must equal the full ring.
	all, _, err := m.RollUp(MatchAll(), 0)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGlobal(t, all, tw.Trailing(windows))
	return m
}

// TestConformanceRegistryWindowedConcurrent drives concurrent windowed
// ingest, clock advancement, Rotate calls, and filtered roll-ups
// (index path) at once — the interleaving-sensitive axis the CI race
// step re-runs. At quiescence the index path must agree bin-for-bin
// with the reference scan.
func TestConformanceRegistryWindowedConcurrent(t *testing.T) {
	const (
		workers = 8
		perW    = 2_000
		keys    = 50
	)
	clock := newFakeClock()
	m, err := New(
		WithKeyWindow(3, time.Second, clock.Now),
		WithMaxSketches(32),
		WithAdmissionThreshold(2),
		WithAdmissionDecay(1),
		WithSegments(8),
	)
	if err != nil {
		t.Fatal(err)
	}
	shared := make([]LabelSet, keys)
	for i := range shared {
		shared[i] = mustLabelSet(t, "worker=shared,key=k"+strconv.Itoa(i))
	}
	filter := mustFilter(t, "worker=shared")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			private := mustLabelSet(t, "worker=w"+strconv.Itoa(w))
			for i := 0; i < perW; i++ {
				v := 1 + float64((w*perW+i)%1000)
				var err error
				if i%3 == 0 {
					err = m.Add(private, v)
				} else {
					err = m.Add(shared[i%keys], v)
				}
				if err != nil {
					t.Error(err)
					return
				}
				switch {
				case w == 0 && i%400 == 0:
					clock.Advance(300 * time.Millisecond)
				case w == 1 && i%500 == 0:
					m.Rotate()
				case i%250 == 0:
					if _, _, err := m.RollUp(filter, 1); err != nil && !errors.Is(err, ddsketch.ErrEmptySketch) {
						t.Error(err)
						return
					}
					_ = m.Stats()
					_, _ = m.Get(shared[i%keys], 2)
				}
			}
		}(w)
	}
	wg.Wait()
	if live := m.LiveKeys(); live > 32 {
		t.Errorf("LiveKeys = %d exceeds budget 32 at quiescence", live)
	}
	// Clock is static now, so both paths see the same generation.
	for _, window := range []int{0, 1, 3} {
		idx, nIdx, err := m.RollUp(filter, window)
		if err != nil && !errors.Is(err, ddsketch.ErrEmptySketch) {
			t.Fatal(err)
		}
		scan, nScan, serr := m.RollUpScan(filter, window)
		if (err == nil) != (serr == nil) || nIdx != nScan {
			t.Fatalf("window %d: index (%d, %v) vs scan (%d, %v)", window, nIdx, err, nScan, serr)
		}
		if err == nil {
			assertSameGlobal(t, idx, scan)
		}
	}
}

// TestRegistryRotationDrivenAdmissionDecay: on a windowed registry,
// WithAdmissionDecay halves the admission counters once per `every`
// elapsed intervals, so a formerly-hot key that goes idle stops being
// admitted — its accumulated weight decays below the threshold — while
// a genuine burst still clears it.
func TestRegistryRotationDrivenAdmissionDecay(t *testing.T) {
	clock := newFakeClock()
	build := func(decay int) *SketchMap {
		m, err := New(
			WithKeyWindow(4, time.Second, clock.Now),
			WithAdmissionThreshold(16),
			WithAdmissionDecay(decay),
			WithSegments(1),
		)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	hot := mustLabelSet(t, "service=api,endpoint=/hot")

	// Control (no decay): weight 15 then 1 crosses the threshold — the
	// accumulated estimate never ages.
	control := build(0)
	if err := control.AddWithCount(hot, 1, 15); err != nil {
		t.Fatal(err)
	}
	if control.LiveKeys() != 0 {
		t.Fatal("control admitted below the threshold")
	}
	if err := control.AddWithCount(hot, 1, 1); err != nil {
		t.Fatal(err)
	}
	if control.LiveKeys() != 1 {
		t.Fatal("control did not admit at the threshold")
	}

	// Decayed: the same 15 units of historical heat, then two idle
	// intervals. Each rotation halves the estimate (15 → 7.5 → 3.75),
	// so trickling weight afterwards never clears the threshold.
	m := build(1)
	if err := m.AddWithCount(hot, 1, 15); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Second)
	for i := 0; i < 6; i++ {
		if err := m.AddWithCount(hot, 1, 1); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Second)
	}
	if m.LiveKeys() != 0 {
		t.Fatalf("formerly-hot key was admitted from decayed weight (LiveKeys = %d)", m.LiveKeys())
	}
	// Nothing was dropped: every pre-admission value still inside the
	// window (one unit in each of generations 5–7; the clock is at 8) is
	// in overflow. Older ones aged out with the overflow ring.
	if st := m.Stats(); st.OverflowWeight != 3 {
		t.Errorf("overflow weight = %g, want 3", st.OverflowWeight)
	}
	// A real burst still clears the gate immediately.
	if err := m.AddWithCount(hot, 1, 20); err != nil {
		t.Fatal(err)
	}
	if m.LiveKeys() != 1 {
		t.Error("burst was not admitted")
	}
}

// TestRegistryWindowedEvictionMergesFullRing: evicting a windowed
// series folds its entire retained ring — every interval, not just the
// current one — into overflow, so global count/sum survive eviction
// under rotation. (The regression this guards: merging only ring[head]
// silently dropped the older intervals.)
func TestRegistryWindowedEvictionMergesFullRing(t *testing.T) {
	clock := newFakeClock()
	m, err := New(
		WithKeyWindow(4, time.Second, clock.Now),
		WithMaxSketches(2),
		WithAdmissionThreshold(0),
		WithSegments(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	a := mustLabelSet(t, "k=a")
	b := mustLabelSet(t, "k=b")
	c := mustLabelSet(t, "k=c")
	// Series a spreads five values over three intervals of its ring.
	for _, v := range []float64{1, 2} {
		if err := m.Add(a, v); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(time.Second)
	for _, v := range []float64{3, 4} {
		if err := m.Add(a, v); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(time.Second)
	if err := m.Add(a, 5); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(b, 10); err != nil {
		t.Fatal(err)
	}
	// Installing c breaches the budget of 2 and evicts a (the LRU).
	if err := m.Add(c, 20); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Evicted != 1 || st.LiveKeys != 2 {
		t.Fatalf("evicted/live = %d/%d, want 1/2", st.Evicted, st.LiveKeys)
	}
	if _, ok := m.Get(a, 0); ok {
		t.Error("evicted series still live")
	}
	// a's full ring (count 5, sum 15) must be in overflow.
	overflow, err := m.Overflow()
	if err != nil {
		t.Fatal(err)
	}
	if overflow.Count() != 5 {
		t.Fatalf("overflow count = %g, want 5 (full ring, not just the current interval)", overflow.Count())
	}
	rollup, _, err := m.RollUp(MatchAll(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rollup.Count() != 7 {
		t.Errorf("match-all count = %g, want 7", rollup.Count())
	}
	if sum, _ := rollup.Sum(); sum != 45 {
		t.Errorf("match-all sum = %g, want 45", sum)
	}
	// Each evicted interval keeps its age in the overflow ring: a
	// trailing-1 match-all sees only the current interval's values (a's
	// 5, b's 10, c's 20).
	r1, _, err := m.RollUp(MatchAll(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Count() != 3 {
		t.Errorf("trailing-1 match-all count = %g, want 3 (overflow ages with the ring)", r1.Count())
	}

	// Intervals that expired before the eviction are NOT resurrected:
	// a victim catches up to the current generation first.
	m2, err := New(
		WithKeyWindow(2, time.Second, clock.Now),
		WithMaxSketches(2),
		WithAdmissionThreshold(0),
		WithSegments(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Add(mustLabelSet(t, "k=x"), 100); err != nil {
		t.Fatal(err)
	}
	clock.Advance(5 * time.Second) // x's whole ring expires
	if err := m2.Add(mustLabelSet(t, "k=y"), 1); err != nil {
		t.Fatal(err)
	}
	if err := m2.Add(mustLabelSet(t, "k=z"), 2); err != nil {
		t.Fatal(err)
	}
	if st := m2.Stats(); st.Evicted != 1 {
		t.Fatalf("evicted = %d, want 1 (x was the LRU)", st.Evicted)
	}
	if overflow, err := m2.Overflow(); err != nil || overflow.Count() != 0 {
		t.Errorf("overflow count = %g, want 0 (x's data had expired before eviction)", overflow.Count())
	}
}

// TestRegistryWindowedExpiry: Rotate drops series whose whole ring went
// empty, freeing budget and index postings without touching overflow.
func TestRegistryWindowedExpiry(t *testing.T) {
	clock := newFakeClock()
	m, err := New(
		WithKeyWindow(2, time.Second, clock.Now),
		WithAdmissionThreshold(0),
		WithSegments(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	a := mustLabelSet(t, "k=a")
	b := mustLabelSet(t, "k=b")
	if err := m.Add(a, 1); err != nil { // generation 0
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	if err := m.Add(b, 2); err != nil { // generation 1
		t.Fatal(err)
	}
	if m.LiveKeys() != 2 {
		t.Fatalf("LiveKeys = %d, want 2", m.LiveKeys())
	}
	// Generation 2 retains intervals {1, 2}: a (data in 0) expires,
	// b (data in 1) survives.
	clock.Advance(time.Second)
	m.Rotate()
	st := m.Stats()
	if st.LiveKeys != 1 || st.Expired != 1 {
		t.Fatalf("live/expired = %d/%d, want 1/1", st.LiveKeys, st.Expired)
	}
	if _, ok := m.Get(a, 0); ok {
		t.Error("expired series still answers Get")
	}
	if _, ok := m.Get(b, 0); !ok {
		t.Error("live series lost")
	}
	if st.Rotations != 2 {
		t.Errorf("rotations = %d, want 2", st.Rotations)
	}
	if st.Windows != 2 || st.WindowInterval != "1s" {
		t.Errorf("windows/interval = %d/%q, want 2/\"1s\"", st.Windows, st.WindowInterval)
	}
	// Expiry merges nothing: the data aged out, it was not evicted.
	if overflow, err := m.Overflow(); err != nil || overflow.Count() != 0 {
		t.Errorf("overflow count = %g, want 0 after expiry", overflow.Count())
	}
	// One more generation retires b too, and the index empties with it.
	clock.Advance(time.Second)
	m.Rotate()
	st = m.Stats()
	if st.LiveKeys != 0 || st.Expired != 2 || st.IndexPostings != 0 {
		t.Fatalf("live/expired/postings = %d/%d/%d, want 0/2/0", st.LiveKeys, st.Expired, st.IndexPostings)
	}
}

// TestRegistryGetTrailingWindow: Get returns an independent snapshot of
// the series restricted to its trailing k intervals, clamped to the
// ring; window 0 means all retained; unwindowed registries ignore it.
func TestRegistryGetTrailingWindow(t *testing.T) {
	clock := newFakeClock()
	m, err := New(
		WithKeyWindow(3, time.Second, clock.Now),
		WithAdmissionThreshold(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	a := mustLabelSet(t, "k=a")
	if err := m.Add(a, 1); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	for _, v := range []float64{2, 3} {
		if err := m.Add(a, v); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(time.Second)
	if err := m.Add(a, 4); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		window    int
		wantCount float64
	}{{0, 4}, {1, 1}, {2, 3}, {3, 4}, {99, 4}} {
		sk, ok := m.Get(a, tc.window)
		if !ok {
			t.Fatalf("window %d: series missing", tc.window)
		}
		if got := sk.Count(); got != tc.wantCount {
			t.Errorf("window %d: count = %g, want %g", tc.window, got, tc.wantCount)
		}
	}
	// The snapshot is independent of the live series.
	snap, _ := m.Get(a, 0)
	if err := m.Add(a, 5); err != nil {
		t.Fatal(err)
	}
	if snap.Count() != 4 {
		t.Errorf("snapshot count changed to %g after a later write", snap.Count())
	}

	// Unwindowed registry: the window parameter is documented as
	// ignored — any value answers over the whole series.
	plain, err := New(WithAdmissionThreshold(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Add(a, 1); err != nil {
		t.Fatal(err)
	}
	if err := plain.Add(a, 2); err != nil {
		t.Fatal(err)
	}
	if sk, ok := plain.Get(a, 1); !ok || sk.Count() != 2 {
		t.Errorf("unwindowed Get(window=1) count = %g, want 2", sk.Count())
	}
}

// TestRegistryWindowedTemplateValidation: WithKeyWindow rejects bad
// ring parameters, and New rejects templates the rings cannot honor
// (anything that is not a plain sketch — the rings provide their own
// windowing and run under segment locks), windowed or not.
func TestRegistryWindowedTemplateValidation(t *testing.T) {
	if _, err := New(WithKeyWindow(0, time.Second, nil)); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("windows=0: err = %v, want ErrInvalidOption", err)
	}
	if _, err := New(WithKeyWindow(4, 0, nil)); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("interval=0: err = %v, want ErrInvalidOption", err)
	}
	for name, opts := range map[string][]ddsketch.Option{
		"mutex":    {ddsketch.WithRelativeAccuracy(0.01), ddsketch.WithMutex()},
		"sharding": {ddsketch.WithRelativeAccuracy(0.01), ddsketch.WithSharding(4)},
		"window": {ddsketch.WithRelativeAccuracy(0.01),
			ddsketch.WithWindow(time.Second, 2)},
	} {
		_, err := New(WithKeyWindow(4, time.Second, nil), WithSketchOptions(opts...))
		if !errors.Is(err, ErrInvalidOption) {
			t.Errorf("template %s: err = %v, want ErrInvalidOption", name, err)
		}
	}
	// A plain template (with collapse, even) is fine, and an unwindowed
	// registry rejects a non-plain template too.
	if _, err := New(
		WithKeyWindow(4, time.Second, nil),
		WithSketchOptions(ddsketch.WithRelativeAccuracy(0.01), ddsketch.WithUniformCollapse(128)),
	); err != nil {
		t.Errorf("plain uniform template rejected: %v", err)
	}
	if _, err := New(WithSketchOptions(
		ddsketch.WithRelativeAccuracy(0.01), ddsketch.WithWindow(time.Second, 2),
	)); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("windowed template on an unwindowed registry: err = %v, want ErrInvalidOption", err)
	}
}

// TestRegistryIndexedRollupMatchesScan pins the index path to the
// reference scan on a deterministic windowed workload: same matched
// count, same encoded bytes, for every filter × window combination.
func TestRegistryIndexedRollupMatchesScan(t *testing.T) {
	clock := newFakeClock()
	m, err := New(
		WithKeyWindow(3, time.Second, clock.Now),
		WithMaxSketches(64),
		WithAdmissionThreshold(0),
		WithSegments(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	v := 1.0
	for gen := 0; gen < 4; gen++ {
		for i := 0; i < 30; i++ {
			ls := mustLabelSet(t,
				"service=svc"+strconv.Itoa(i%3)+",endpoint=/ep"+strconv.Itoa(i%10)+",zone=z"+strconv.Itoa(i%2))
			if err := m.Add(ls, v); err != nil {
				t.Fatal(err)
			}
			v += 0.5
		}
		clock.Advance(time.Second)
	}
	if st := m.Stats(); st.IndexPostings == 0 {
		t.Fatal("no index postings over a populated registry")
	}
	filters := []string{
		"service=svc1",
		"endpoint=/ep3",
		"service=svc0,zone=z0",
		"zone=*",
		"service=svc2,endpoint=*",
		"service=nope",
		"*",
	}
	for _, fs := range filters {
		f := mustFilter(t, fs)
		for _, window := range []int{0, 1, 2, 3} {
			idx, nIdx, err := m.RollUp(f, window)
			scan, nScan, serr := m.RollUpScan(f, window)
			if (err == nil) != (serr == nil) {
				t.Fatalf("%q window %d: index err %v, scan err %v", fs, window, err, serr)
			}
			if nIdx != nScan {
				t.Fatalf("%q window %d: index matched %d, scan matched %d", fs, window, nIdx, nScan)
			}
			if err != nil {
				continue
			}
			if !bytes.Equal(idx.Encode(), scan.Encode()) {
				t.Errorf("%q window %d: index and scan roll-ups are not bin-identical", fs, window)
			}
		}
	}
}

// TestRegistryStaleGenerationKeepsRing: operations sample the registry
// clock before taking the segment lock, so at an interval boundary an
// operation can reach an entry with a generation older than the one a
// concurrent writer already advanced it to. Simulated here by rewinding
// the fake clock, the stale generation must be treated as
// already-current — not underflow the rotation step count and clear the
// series' whole retained ring.
func TestRegistryStaleGenerationKeepsRing(t *testing.T) {
	clock := newFakeClock()
	m, err := New(
		WithKeyWindow(3, time.Second, clock.Now),
		WithAdmissionThreshold(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	a := mustLabelSet(t, "k=a")
	clock.Advance(time.Second) // generation 1
	if err := m.Add(a, 1); err != nil {
		t.Fatal(err)
	}
	clock.Advance(-time.Second) // stale sample: generation 0 again

	// A stale read must not clear the ring.
	sk, ok := m.Get(a, 0)
	if !ok || sk.Count() != 1 {
		t.Fatalf("stale Get: ok=%v count=%g, want true/1", ok, sk.Count())
	}
	// A stale write lands in the entry's current interval instead of
	// rotating the ring backwards.
	if err := m.Add(a, 2); err != nil {
		t.Fatal(err)
	}
	// A stale Rotate must not expire the series.
	m.Rotate()
	if m.LiveKeys() != 1 {
		t.Fatalf("LiveKeys = %d after stale Rotate, want 1", m.LiveKeys())
	}
	clock.Advance(time.Second) // back to generation 1
	if sk, ok = m.Get(a, 1); !ok || sk.Count() != 2 {
		t.Fatalf("trailing-1 after catch-up: ok=%v count=%g, want true/2", ok, sk.Count())
	}
}

// TestRegistryFarFutureClockJump mirrors TestTimeWindowedFarFutureClockJump
// on the registry: after a clock jump too long for time.Duration, the
// rotation grid must keep counting generations, so a series written
// after the jump still ages out on schedule instead of freezing at a
// saturated generation.
func TestRegistryFarFutureClockJump(t *testing.T) {
	clock := newFakeClock()
	m, err := New(
		WithKeyWindow(3, time.Minute, clock.Now),
		WithAdmissionThreshold(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	a := mustLabelSet(t, "k=a")
	if err := m.Add(a, 1); err != nil {
		t.Fatal(err)
	}
	clock.jumpYears(1000)
	if err := m.Add(a, 42); err != nil {
		t.Fatal(err)
	}
	if sk, ok := m.Get(a, 0); !ok || sk.Count() != 1 {
		t.Fatalf("after the jump: ok=%v count=%g, want true/1 (pre-jump data expired, post-jump write kept)", ok, sk.Count())
	}
	clock.Advance(10 * time.Minute)
	m.Rotate()
	if m.LiveKeys() != 0 {
		t.Fatalf("LiveKeys = %d ten intervals after the post-jump write, want 0", m.LiveKeys())
	}
	if _, ok := m.Get(a, 0); ok {
		t.Error("series still live ten intervals after its last write")
	}
}

// TestRegistryStaleGenerationKeepsAdmissionState: the rotation-driven
// admission decay has the same boundary hazard — an admission check
// holding a stale generation must not underflow the due-halvings count
// and reset the segment's count-min state (which would make hot keys
// fail admission and divert their values to overflow).
func TestRegistryStaleGenerationKeepsAdmissionState(t *testing.T) {
	clock := newFakeClock()
	m, err := New(
		WithKeyWindow(4, time.Second, clock.Now),
		WithAdmissionThreshold(4),
		WithAdmissionDecay(1),
		WithSegments(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	hot := mustLabelSet(t, "k=hot")
	clock.Advance(time.Second) // generation 1; first add decays to it
	for i := 0; i < 3; i++ {
		if err := m.Add(hot, 1); err != nil {
			t.Fatal(err)
		}
	}
	if m.LiveKeys() != 0 {
		t.Fatalf("LiveKeys = %d below threshold, want 0", m.LiveKeys())
	}
	clock.Advance(-time.Second) // stale sample: generation 0 < decay generation 1
	// The fourth unit of weight crosses the threshold — unless the stale
	// generation wiped the count-min counters.
	if err := m.Add(hot, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get(hot, 0); !ok {
		t.Fatal("hot key not admitted: stale generation reset the admission state")
	}
}

// TestRegistryEvictMergeFailureKeepsVictim: if folding an eviction
// victim into overflow fails, the victim must stay live with all its
// retained data — eviction never loses data, even on the error path.
// Forced here by sabotaging a segment's overflow ring with slots of an
// incompatible mapping (impossible through the public API, where every
// sketch shares the template's lineage).
func TestRegistryEvictMergeFailureKeepsVictim(t *testing.T) {
	clock := newFakeClock()
	m, err := New(
		WithKeyWindow(2, time.Second, clock.Now),
		WithMaxSketches(1),
		WithAdmissionThreshold(0),
		WithSegments(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	a := mustLabelSet(t, "k=a")
	if err := m.Add(a, 1); err != nil {
		t.Fatal(err)
	}
	seg := m.segs[0]
	goodOverflow := seg.overflow
	bad, err := ddsketch.NewSketch(ddsketch.WithRelativeAccuracy(0.2))
	if err != nil {
		t.Fatal(err)
	}
	badSlot := bad.(*ddsketch.DDSketch)
	seg.overflow = window.NewRing([]*ddsketch.DDSketch{badSlot, badSlot.Copy()}, 0)

	// Installing b exceeds the budget and tries to evict a; the merge
	// into the sabotaged overflow fails and must surface as an error
	// while leaving a live and untouched.
	b := mustLabelSet(t, "k=b")
	if err := m.Add(b, 2); err == nil {
		t.Fatal("Add returned nil, want the eviction merge error")
	}
	if sk, ok := m.Get(a, 0); !ok || sk.Count() != 1 {
		t.Fatalf("victim after failed evict: ok=%v count=%g, want true/1", ok, sk.Count())
	}
	if sk, ok := m.Get(b, 0); !ok || sk.Count() != 1 {
		t.Fatalf("installed series after failed evict: ok=%v count=%g, want true/1", ok, sk.Count())
	}
	if st := m.Stats(); st.Evicted != 0 {
		t.Fatalf("Evicted = %d after failed merge, want 0", st.Evicted)
	}

	// With a compatible overflow restored, the next install retries the
	// eviction and a's data lands in overflow whole.
	seg.overflow = goodOverflow
	if err := m.Add(mustLabelSet(t, "k=c"), 3); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Evicted != 1 {
		t.Fatalf("Evicted = %d after retry, want 1", st.Evicted)
	}
	overflow, err := m.Overflow()
	if err != nil {
		t.Fatal(err)
	}
	if overflow.Count() != 1 {
		t.Fatalf("overflow count = %g after retried evict, want 1 (a's value)", overflow.Count())
	}
}

// writtenGen recovers the newest generation written into r, given r's
// current generation gen, or reports false if r is idle. The window
// package keeps that generation to itself; Zip copies it into a probe
// ring of fresh (nil) slots, which is then advanced until it turns
// idle — safe, since the probe shares no slot with r.
func writtenGen(r *sketchRing, gen uint64) (uint64, bool) {
	if r.Idle() {
		return 0, false
	}
	probe := window.NewRing(make([]*ddsketch.DDSketch, r.Len()), 0)
	_ = window.Zip(&probe, r, func(**ddsketch.DDSketch, *ddsketch.DDSketch) error { return nil })
	for k := uint64(1); ; k++ {
		p := probe
		p.Advance(gen+k, nil)
		if p.Idle() {
			return gen + k - uint64(r.Len()), true
		}
	}
}

// lruInvariantErr checks the invariant Rotate's tail walk relies on, in
// every segment: walking the LRU list from back to front, idle series
// come first (a suffix at the back) and the live ones' written
// generations never decrease. With afterRotate, no series may be idle
// at all — a Rotate with the clock unmoved since must have removed
// every one, the same set a walk over every live series removes. Each
// ring is first caught up to its segment's generation, as any read
// would.
func lruInvariantErr(m *SketchMap, afterRotate bool) error {
	for i, seg := range m.segs {
		seg.mu.Lock()
		var prev uint64
		seenLive := false
		var err error
		for el := seg.lru.Back(); el != nil && err == nil; el = el.Prev() {
			e := el.Value.(*entry)
			e.ring.Advance(seg.gen, nil)
			written, live := writtenGen(&e.ring, seg.gen)
			switch {
			case !live && afterRotate:
				err = fmt.Errorf("segment %d: idle series %q survived Rotate at generation %d", i, e.labels, seg.gen)
			case !live && seenLive:
				err = fmt.Errorf("segment %d: idle series %q is ahead of a live one in LRU order", i, e.labels)
			case live && seenLive && written < prev:
				err = fmt.Errorf("segment %d: series %q written at %d is ahead of one written at %d in LRU order", i, e.labels, written, prev)
			case live:
				seenLive, prev = true, written
			}
		}
		seg.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// TestRegistryRejectedBatchExpiresOnSchedule: a batch rejected on its
// first value (NaN) still touches its live series — the series moves to
// the LRU front and its ring counts the interval as written, exactly as
// for eviction — so the series expires Windows intervals after that
// touch, no earlier and no later, while its LRU neighbour expires on its
// own schedule. A rejected batch for a series that is not live installs
// nothing.
func TestRegistryRejectedBatchExpiresOnSchedule(t *testing.T) {
	clock := newFakeClock()
	m, err := New(
		WithKeyWindow(3, time.Second, clock.Now),
		WithAdmissionThreshold(0),
		WithSegments(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := mustLabelSet(t, "k=a"), mustLabelSet(t, "k=b"), mustLabelSet(t, "k=c")
	nan := []float64{math.NaN(), 1}
	for _, ls := range []LabelSet{a, b} { // generation 0; LRU back→front: a, b
		if err := m.AddBatch(ls, []float64{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(time.Second) // generation 1
	if err := m.AddBatch(a, nan); err == nil {
		t.Fatal("a batch starting with NaN was accepted")
	}
	if err := m.AddBatch(c, nan); err == nil {
		t.Fatal("a batch starting with NaN was accepted")
	}
	if m.LiveKeys() != 2 {
		t.Fatalf("LiveKeys = %d after a rejected first batch, want 2 (nothing installed)", m.LiveKeys())
	}
	if err := lruInvariantErr(m, false); err != nil {
		t.Fatal(err)
	}
	// Generation 3 retains {1, 2, 3}: b (written at 0) expires even
	// though it is no longer at the LRU back; a (touched at 1) stays.
	clock.Advance(2 * time.Second)
	m.Rotate()
	if err := lruInvariantErr(m, true); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get(b, 0); ok {
		t.Error("b still live three intervals after its last write")
	}
	sk, ok := m.Get(a, 0)
	if !ok {
		t.Fatal("a expired two intervals after its rejected batch")
	}
	if sk.Count() != 0 {
		t.Errorf("a count = %g, want 0 (its generation-0 data aged out)", sk.Count())
	}
	clock.Advance(time.Second) // generation 4
	m.Rotate()
	if st := m.Stats(); st.LiveKeys != 0 || st.Expired != 2 || st.IndexPostings != 0 {
		t.Fatalf("live/expired/postings = %d/%d/%d, want 0/2/0", st.LiveKeys, st.Expired, st.IndexPostings)
	}
}

// TestRegistryWriteAfterClockRewindExpiresOnSchedule: a series first
// written after the clock steps back is installed at its segment's
// high-water generation, not the rewound one, so it sits at the LRU
// front with the newest written generation and expires Windows
// intervals after that generation — with the series written before the
// rewind, not ahead of it.
func TestRegistryWriteAfterClockRewindExpiresOnSchedule(t *testing.T) {
	clock := newFakeClock()
	m, err := New(
		WithKeyWindow(3, time.Second, clock.Now),
		WithAdmissionThreshold(0),
		WithSegments(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	a, b := mustLabelSet(t, "k=a"), mustLabelSet(t, "k=b")
	clock.Advance(2 * time.Second) // generation 2
	if err := m.Add(a, 1); err != nil {
		t.Fatal(err)
	}
	clock.Advance(-2 * time.Second) // rewound: the clock reads generation 0
	if err := m.Add(b, 2); err != nil {
		t.Fatal(err)
	}
	m.Rotate()
	if err := lruInvariantErr(m, true); err != nil {
		t.Fatal(err)
	}
	// The clock reaches generation 3, three intervals after the rewound
	// reading b was written at: b must survive, its data lives in
	// generation 2.
	clock.Advance(3 * time.Second)
	m.Rotate()
	if err := lruInvariantErr(m, true); err != nil {
		t.Fatal(err)
	}
	for _, ls := range []LabelSet{a, b} {
		if sk, ok := m.Get(ls, 0); !ok || sk.Count() != 1 {
			t.Fatalf("%v at generation 3: ok=%v, want live with count 1", ls, ok)
		}
	}
	clock.Advance(2 * time.Second) // generation 5: {3, 4, 5} retained
	m.Rotate()
	if st := m.Stats(); st.LiveKeys != 0 || st.Expired != 2 {
		t.Fatalf("live/expired = %d/%d at generation 5, want 0/2", st.LiveKeys, st.Expired)
	}
}

// TestRegistryRotateConcurrent runs batch writers (some batches
// rejected on their first value), a clock that steps forward and now
// and then back, roll-ups, reads and Rotate at once, checking the LRU
// invariant Rotate's tail walk relies on while they run; at quiescence
// a final Rotate must leave no idle series behind. The CI race step
// re-runs it.
func TestRegistryRotateConcurrent(t *testing.T) {
	const (
		writers = 4
		perW    = 1_500
		keys    = 40
	)
	clock := newFakeClock()
	m, err := New(
		WithKeyWindow(3, time.Second, clock.Now),
		WithMaxSketches(24),
		WithAdmissionThreshold(2),
		WithAdmissionDecay(1),
		WithSegments(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	series := make([]LabelSet, keys)
	for i := range series {
		series[i] = mustLabelSet(t, "svc=s"+strconv.Itoa(i%4)+",key=k"+strconv.Itoa(i))
	}
	filter := mustFilter(t, "svc=s1")
	stop := make(chan struct{})
	var writersDone, others sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersDone.Add(1)
		go func(w int) {
			defer writersDone.Done()
			batch := []float64{1, 2, 3}
			for i := 0; i < perW; i++ {
				batch[0] = float64(1 + (w+i)%50)
				if i%17 == 0 {
					batch[0] = math.NaN() // rejected on its first value
				}
				err := m.AddBatch(series[(w*7+i)%keys], batch)
				if err != nil && i%17 != 0 {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	others.Add(2)
	go func() { // clock: mostly forward, occasionally rewound
		defer others.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%5 == 0 {
				clock.Advance(-700 * time.Millisecond)
			} else {
				clock.Advance(400 * time.Millisecond)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	var checkErr error
	go func() { // rotator and reader
		defer others.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m.Rotate()
			if _, _, err := m.RollUp(filter, 1+i%3); err != nil {
				t.Error(err)
				return
			}
			_, _ = m.Get(series[i%keys], 2)
			_ = m.Stats()
			if err := lruInvariantErr(m, false); err != nil && checkErr == nil {
				checkErr = err
			}
		}
	}()
	writersDone.Wait()
	close(stop)
	others.Wait()
	if checkErr != nil {
		t.Fatal(checkErr)
	}
	m.Rotate()
	if err := lruInvariantErr(m, true); err != nil {
		t.Fatal(err)
	}
	if live := m.LiveKeys(); live > 24 {
		t.Errorf("LiveKeys = %d exceeds budget 24 at quiescence", live)
	}
}
