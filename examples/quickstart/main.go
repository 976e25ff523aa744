// Quickstart: the one-minute tour of the DDSketch public API.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"

	"github.com/ddsketch-go/ddsketch"
)

func main() {
	// NewSketch is the single entry point for every sketch variant; with
	// no layering options it returns a plain DDSketch. 1% relative
	// accuracy and at most 2048 buckets is the paper's recommended
	// production configuration (§2.2: it covers values from 80µs to 1
	// year). Add WithMutex(), WithSharding(k), or WithWindow(d, n) to
	// change the concurrency/retention shape without changing the API.
	sketch, err := ddsketch.NewSketch(
		ddsketch.WithRelativeAccuracy(0.01),
		ddsketch.WithMaxBins(2048),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Insert some response times (seconds). Values can be any float64:
	// positive, negative, or zero.
	for i := 1; i <= 100000; i++ {
		latency := 0.001 * math.Pow(1.0001, float64(i)) // skewed stream
		if err := sketch.Add(latency); err != nil {
			log.Fatal(err)
		}
	}
	// Weighted insertion: record 500 identical timeouts in one call.
	if err := sketch.AddWithCount(30.0, 500); err != nil {
		log.Fatal(err)
	}

	// One-pass reads: Summary returns count, sum, min, max, avg, and any
	// quantiles you ask for, computed against one consistent view. Each
	// quantile estimate is within 1% of the true value; the other
	// statistics are exact.
	summary, err := sketch.Summary(0.5, 0.95, 0.99)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("count=%.0f p50=%.4fs p95=%.4fs p99=%.4fs\n",
		summary.Count,
		summary.Quantiles[0].Value, summary.Quantiles[1].Value, summary.Quantiles[2].Value)
	fmt.Printf("min=%.4fs avg=%.4fs max=%.4fs\n", summary.Min, summary.Avg, summary.Max)

	// With no layering options NewSketch returns the concrete *DDSketch,
	// whose extras beyond the Sketch interface (NumBins, CDF, Delete, …)
	// stay available behind a type assertion.
	dd := sketch.(*ddsketch.DDSketch)

	// Sketches serialize compactly...
	data := dd.Encode()
	fmt.Printf("serialized size: %d bytes for %.0f values (%d buckets)\n",
		len(data), summary.Count, dd.NumBins())

	// ...and merge losslessly: a sketch decoded elsewhere answers exactly
	// like the original.
	other, err := ddsketch.Decode(data)
	if err != nil {
		log.Fatal(err)
	}
	if err := other.MergeWith(dd); err != nil {
		log.Fatal(err)
	}
	p99, _ := other.Quantile(0.99)
	fmt.Printf("after merging two copies: count=%.0f, p99 unchanged at %.4fs\n",
		other.Count(), p99)
}
