package ddsketch_test

import (
	"errors"
	"math"
	"sort"
	"sync"
	"testing"

	"github.com/ddsketch-go/ddsketch"
	"github.com/ddsketch-go/ddsketch/internal/datagen"
	"github.com/ddsketch-go/ddsketch/internal/exact"
)

func newShardedForTest(t *testing.T, shards int) *ddsketch.Sharded {
	t.Helper()
	proto, err := ddsketch.NewCollapsing(0.01, 2048)
	if err != nil {
		t.Fatal(err)
	}
	return ddsketch.NewSharded(proto, shards)
}

func TestShardedShardCountRounding(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16},
	} {
		if got := newShardedForTest(t, c.in).NumShards(); got != c.want {
			t.Errorf("NumShards(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	if got := newShardedForTest(t, 0).NumShards(); got != ddsketch.DefaultShardCount() {
		t.Errorf("NumShards(0) = %d, want DefaultShardCount() = %d", got, ddsketch.DefaultShardCount())
	}
}

func TestShardedKeepsPrototypeContent(t *testing.T) {
	proto, err := ddsketch.NewCollapsing(0.01, 2048)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		if err := proto.Add(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := ddsketch.NewSharded(proto, 4)
	if got := s.Count(); got != 100 {
		t.Fatalf("Count after wrapping non-empty prototype = %g, want 100", got)
	}
}

// TestShardedConcurrentAccuracy is the core property: concurrent sharded
// inserts followed by a merge-on-read query answer exactly as a single
// sketch would, within the relative accuracy guarantee.
func TestShardedConcurrentAccuracy(t *testing.T) {
	const (
		writers      = 8
		perWriter    = 20_000
		alpha        = 0.01
		amplifiedTol = alpha + 1e-9
	)
	values := datagen.ByName("pareto", writers*perWriter)
	s := newShardedForTest(t, 16)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(chunk []float64) {
			defer wg.Done()
			for _, v := range chunk {
				if err := s.Add(v); err != nil {
					t.Error(err)
					return
				}
			}
		}(values[w*perWriter : (w+1)*perWriter])
	}
	wg.Wait()

	if got, want := s.Count(), float64(len(values)); got != want {
		t.Fatalf("Count = %g, want %g", got, want)
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	merged := s.Snapshot()
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1} {
		est, err := merged.Quantile(q)
		if err != nil {
			t.Fatalf("Quantile(%g): %v", q, err)
		}
		if rel := exact.RelativeError(est, exact.Quantile(sorted, q)); rel > amplifiedTol {
			t.Errorf("Quantile(%g) = %g: relative error %g exceeds α = %g",
				q, est, rel, alpha)
		}
	}

	// Exact statistics survive sharding.
	min, _ := merged.Min()
	max, _ := merged.Max()
	sum, _ := merged.Sum()
	if min != sorted[0] || max != sorted[len(sorted)-1] {
		t.Errorf("Min/Max = %g/%g, want %g/%g", min, max, sorted[0], sorted[len(sorted)-1])
	}
	exactSum := 0.0
	for _, v := range values {
		exactSum += v
	}
	if math.Abs(sum-exactSum) > 1e-6*math.Abs(exactSum) {
		t.Errorf("Sum = %g, want %g", sum, exactSum)
	}
}

// TestShardedFlushLosesNothing checks the send-and-reset loop: flushes
// interleaved with concurrent writers account for every inserted value
// exactly once.
func TestShardedFlushLosesNothing(t *testing.T) {
	const writers, perWriter, flushes = 4, 10_000, 50
	s := newShardedForTest(t, 8)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := s.Add(float64(i%1000 + 1)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	collected := 0.0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < flushes; i++ {
			collected += s.Flush().Count()
		}
	}()
	wg.Wait()
	<-done
	collected += s.Flush().Count()
	if want := float64(writers * perWriter); collected != want {
		t.Fatalf("flushes collected %g values, want %g", collected, want)
	}
	if s.Count() > 0 {
		t.Error("sketch not empty after final flush")
	}
}

func TestShardedMergeIncompatible(t *testing.T) {
	s := newShardedForTest(t, 4)
	other, err := ddsketch.New(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MergeWith(other); !errors.Is(err, ddsketch.ErrIncompatibleSketches) {
		t.Fatalf("MergeWith(different mapping): got %v, want ErrIncompatibleSketches", err)
	}
}

func TestShardedDecodeAndMergeWith(t *testing.T) {
	agent, err := ddsketch.NewCollapsing(0.01, 2048)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 1000; i++ {
		if err := agent.Add(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := newShardedForTest(t, 4)
	if err := decodeInto(s, agent.Encode()); err != nil {
		t.Fatal(err)
	}
	if got := s.Count(); got != 1000 {
		t.Fatalf("Count = %g, want 1000", got)
	}
	if err := decodeInto(s, []byte("garbage")); !errors.Is(err, ddsketch.ErrInvalidEncoding) {
		t.Fatalf("decode and merge (garbage): got %v, want ErrInvalidEncoding", err)
	}
}

func TestShardedEmptyQueries(t *testing.T) {
	s := newShardedForTest(t, 2)
	if s.Count() > 0 {
		t.Error("new sketch not empty")
	}
	empty := s.Snapshot()
	if _, err := empty.Quantile(0.5); !errors.Is(err, ddsketch.ErrEmptySketch) {
		t.Errorf("Quantile on empty: got %v, want ErrEmptySketch", err)
	}
	for _, f := range []func() (float64, error){empty.Min, empty.Max, empty.Sum} {
		if _, err := f(); !errors.Is(err, ddsketch.ErrEmptySketch) {
			t.Errorf("stat on empty: got %v, want ErrEmptySketch", err)
		}
	}
	if err := s.Add(1); err != nil {
		t.Fatal(err)
	}
	s.Clear()
	if s.Count() > 0 {
		t.Error("sketch not empty after Clear")
	}
}

func TestShardedEncodeRoundTrip(t *testing.T) {
	s := newShardedForTest(t, 4)
	for i := 1; i <= 500; i++ {
		if err := s.Add(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	decoded, err := ddsketch.Decode(s.Snapshot().Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got := decoded.Count(); got != 500 {
		t.Fatalf("decoded Count = %g, want 500", got)
	}
}
