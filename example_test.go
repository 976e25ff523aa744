package ddsketch_test

import (
	"fmt"
	"log"
	"sync"
	"time"

	"github.com/ddsketch-go/ddsketch"
	"github.com/ddsketch-go/ddsketch/mapping"
	"github.com/ddsketch-go/ddsketch/store"
)

func Example() {
	sketch, err := ddsketch.NewCollapsing(0.01, 2048)
	if err != nil {
		log.Fatal(err)
	}
	for i := 1; i <= 1000; i++ {
		if err := sketch.Add(float64(i)); err != nil {
			log.Fatal(err)
		}
	}
	median, err := sketch.Quantile(0.5)
	if err != nil {
		log.Fatal(err)
	}
	// The estimate is within 1% of the exact median, 500.
	fmt.Println(median > 495 && median < 505)
	// Output: true
}

func ExampleDDSketch_MergeWith() {
	agentA, _ := ddsketch.NewCollapsing(0.01, 2048)
	agentB, _ := ddsketch.NewCollapsing(0.01, 2048)
	for i := 1; i <= 100; i++ {
		_ = agentA.Add(float64(i))       // values 1..100
		_ = agentB.Add(float64(i + 100)) // values 101..200
	}
	// Merging is exact: the combined sketch answers as if it had seen
	// all 200 values itself.
	if err := agentA.MergeWith(agentB); err != nil {
		log.Fatal(err)
	}
	fmt.Println(agentA.Count())
	// Output: 200
}

func ExampleDDSketch_Encode() {
	original, _ := ddsketch.NewCollapsing(0.01, 2048)
	for i := 1; i <= 1000; i++ {
		_ = original.Add(float64(i))
	}
	decoded, err := ddsketch.Decode(original.Encode())
	if err != nil {
		log.Fatal(err)
	}
	a, _ := original.Quantile(0.99)
	b, _ := decoded.Quantile(0.99)
	fmt.Println(a == b)
	// Output: true
}

func ExampleNewWithConfig() {
	// A custom configuration: the near-optimal cubic mapping with
	// unbounded dense stores.
	m, err := mapping.NewCubicallyInterpolated(0.02)
	if err != nil {
		log.Fatal(err)
	}
	sketch := ddsketch.NewWithConfig(m, store.DenseStoreProvider(), store.DenseStoreProvider())
	_ = sketch.Add(1e-9)
	_ = sketch.Add(1e9)
	fmt.Println(sketch.Count())
	// Output: 2
}

func ExampleDDSketch_Quantiles() {
	sketch, _ := ddsketch.New(0.01)
	for i := 1; i <= 10000; i++ {
		_ = sketch.Add(float64(i))
	}
	values, err := sketch.Quantiles([]float64{0.5, 0.99})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(values))
	// Output: 2
}

func ExampleSharded() {
	// A sharded sketch absorbs concurrent writers without a global lock;
	// merge-on-read queries are exact, so sharding costs no accuracy.
	proto, _ := ddsketch.NewCollapsing(0.01, 2048)
	sharded := ddsketch.NewSharded(proto, 8)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= 250; i++ {
				_ = sharded.Add(float64(w*250 + i))
			}
		}(w)
	}
	wg.Wait()

	median, _ := sharded.Snapshot().Quantile(0.5)
	fmt.Println(sharded.Count())
	fmt.Println(median > 495 && median < 505)
	// Output:
	// 1000
	// true
}

func ExampleTimeWindowed() {
	// A time-windowed aggregator retains a ring of interval sketches and
	// answers trailing-window queries by exact merge. The clock is
	// injectable, so this example drives time by hand.
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }

	proto, _ := ddsketch.NewCollapsing(0.01, 2048)
	w, _ := ddsketch.NewTimeWindowedWithClock(proto, time.Minute, 3, clock)

	_ = w.AddWithCount(10, 100) // first minute: hundred 10s
	now = now.Add(time.Minute)
	_ = w.AddWithCount(1000, 100) // second minute: hundred 1000s

	overall, _ := w.Snapshot().Quantile(0.5)     // across both intervals
	lastMinute, _ := w.Trailing(1).Quantile(0.5) // current interval only
	fmt.Println(overall >= 9.9 && overall <= 10.1)
	fmt.Println(lastMinute >= 990 && lastMinute <= 1010)

	// Four minutes of silence: everything rotates out of the ring.
	now = now.Add(4 * time.Minute)
	fmt.Println(w.Count() <= 0)
	// Output:
	// true
	// true
	// true
}
