package ddsketch

import (
	"math"
	"sync"
	"testing"
)

func newConcurrent(t *testing.T) *Concurrent {
	t.Helper()
	base, err := NewCollapsing(0.01, 2048)
	if err != nil {
		t.Fatal(err)
	}
	return NewConcurrent(base)
}

func TestConcurrentBasicOperations(t *testing.T) {
	c := newConcurrent(t)
	if c.Count() > 0 {
		t.Error("new concurrent sketch not empty")
	}
	if err := c.Add(5); err != nil {
		t.Fatal(err)
	}
	if err := c.AddWithCount(10, 3); err != nil {
		t.Fatal(err)
	}
	if got := c.Count(); got != 4 {
		t.Errorf("Count = %g", got)
	}
	summary, err := c.Summary(0, 1)
	if err != nil || len(summary.Quantiles) != 2 {
		t.Fatalf("Summary = (%+v, %v)", summary, err)
	}
	if v := summary.Quantiles[1].Value; math.Abs(v-10)/10 > 0.01 {
		t.Errorf("quantile 1 = %g", v)
	}
	if summary.Min != 5 {
		t.Errorf("Min = %g", summary.Min)
	}
	if summary.Max != 10 {
		t.Errorf("Max = %g", summary.Max)
	}
	if summary.Sum != 35 {
		t.Errorf("Sum = %g", summary.Sum)
	}
	if summary.Avg != 8.75 {
		t.Errorf("Avg = %g", summary.Avg)
	}
	if err := c.Delete(5); err != nil {
		t.Fatal(err)
	}
	if got := c.Count(); got != 3 {
		t.Errorf("Count after delete = %g", got)
	}
}

func TestConcurrentParallelAddsAndQueries(t *testing.T) {
	c := newConcurrent(t)
	const writers = 8
	const perWriter = 10000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= perWriter; i++ {
				if err := c.Add(float64(w*perWriter + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Concurrent readers must never observe an inconsistent state.
	var rg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for i := 0; i < 200; i++ {
				if c.Count() <= 0 {
					continue
				}
				if _, err := c.Summary(0.5); err != nil && err != ErrEmptySketch {
					t.Error(err)
					return
				}
				_ = c.Count()
			}
		}()
	}
	wg.Wait()
	rg.Wait()
	if got := c.Count(); got != writers*perWriter {
		t.Errorf("Count = %g, want %d", got, writers*perWriter)
	}
}

func TestConcurrentFlush(t *testing.T) {
	c := newConcurrent(t)
	for i := 1; i <= 100; i++ {
		_ = c.Add(float64(i))
	}
	snapshot := c.Flush()
	if snapshot.Count() != 100 {
		t.Errorf("flushed count = %g", snapshot.Count())
	}
	if c.Count() > 0 {
		t.Error("sketch not empty after Flush")
	}
	// The flushed sketch is independent of the live one.
	_ = c.Add(7)
	if snapshot.Count() != 100 {
		t.Error("flush snapshot aliased to live sketch")
	}
}

func TestConcurrentParallelFlushes(t *testing.T) {
	c := newConcurrent(t)
	const writers = 4
	const perWriter = 5000
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0.0
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= perWriter; i++ {
				if err := c.Add(float64(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// A flusher races the writers; no weight may be lost or duplicated.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			snap := c.Flush()
			mu.Lock()
			total += snap.Count()
			mu.Unlock()
		}
	}()
	wg.Wait()
	total += c.Flush().Count()
	if total != writers*perWriter {
		t.Errorf("total flushed weight = %g, want %d", total, writers*perWriter)
	}
}

func TestConcurrentSnapshotAndEncode(t *testing.T) {
	c := newConcurrent(t)
	_ = c.Add(1)
	_ = c.Add(2)
	snap := c.Snapshot()
	if snap.Count() != 2 {
		t.Errorf("snapshot count = %g", snap.Count())
	}
	if c.Count() != 2 {
		t.Error("Snapshot must not clear the sketch")
	}
	decoded, err := Decode(c.Snapshot().Encode())
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Count() != 2 {
		t.Errorf("decoded count = %g", decoded.Count())
	}
}

func TestConcurrentMergeWith(t *testing.T) {
	c := newConcurrent(t)
	_ = c.Add(1)
	other, _ := NewCollapsing(0.01, 2048)
	_ = other.Add(2)
	if err := c.MergeWith(other); err != nil {
		t.Fatal(err)
	}
	if c.Count() != 2 {
		t.Errorf("Count = %g", c.Count())
	}
	incompatible, _ := NewCollapsing(0.05, 2048)
	if err := c.MergeWith(incompatible); err == nil {
		t.Error("merge with incompatible sketch: want error")
	}
}
