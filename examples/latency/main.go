// Latency monitoring: the running example from the paper's introduction
// (Figures 1–2).
//
// A distributed web application runs many containers; each container's
// agent sketches the latencies of the requests it handles and flushes
// its sketch to the monitoring backend every interval. The backend
// merges the per-container sketches into per-interval aggregates —
// losslessly, because DDSketch is fully mergeable — and can further roll
// intervals up into coarser time windows.
//
// The output reproduces the paper's Figure 2 observation: the *average*
// latency runs far above the median, tracking p75, so percentiles — not
// means — are what a monitoring system must report.
//
// Run with:
//
//	go run ./examples/latency
package main

import (
	"fmt"
	"log"
	"sort"
	"sync"

	"github.com/ddsketch-go/ddsketch"
	"github.com/ddsketch-go/ddsketch/internal/datagen"
)

const (
	containers       = 8
	intervals        = 12
	requestsPerIntvl = 20000 // per container
	relativeAccuracy = 0.01
	sketchMaxBins    = 2048
)

func main() {
	// The backend keeps one merged sketch per interval plus a running
	// rollup of everything seen so far. Everything is built through
	// NewSketch; agents, per-interval aggregates, and the rollup differ
	// only in layering options, not in API.
	perInterval := make([]*ddsketch.DDSketch, intervals)
	rollup, err := ddsketch.NewSketch(
		ddsketch.WithRelativeAccuracy(relativeAccuracy),
		ddsketch.WithMaxBins(sketchMaxBins),
	)
	if err != nil {
		log.Fatal(err)
	}
	var exactAll []float64 // ground truth for the final comparison

	fmt.Println("interval    mean      p50      p75      p95      p99   (seconds)")
	for interval := 0; interval < intervals; interval++ {
		merged, err := ddsketch.NewCollapsing(relativeAccuracy, sketchMaxBins)
		if err != nil {
			log.Fatal(err)
		}

		// Each container runs as a goroutine: requests arrive, the agent
		// records latencies into a mutex-guarded sketch (the WithMutex
		// layering — request handlers insert while a flusher reads), and
		// at the end of the interval the agent flushes (serialize + reset).
		payloads := make(chan []byte, containers)
		var wg sync.WaitGroup
		for c := 0; c < containers; c++ {
			wg.Add(1)
			go func(container int) {
				defer wg.Done()
				sketch, err := ddsketch.NewSketch(
					ddsketch.WithRelativeAccuracy(relativeAccuracy),
					ddsketch.WithMaxBins(sketchMaxBins),
					ddsketch.WithMutex(),
				)
				if err != nil {
					log.Fatal(err)
				}
				// The layering options return concrete types: WithMutex
				// yields a *Concurrent, whose extras beyond the Sketch
				// interface — here the atomic Flush (copy + reset under one
				// lock, so no insert racing the flush is lost) — stay
				// available behind a type assertion.
				agent := sketch.(*ddsketch.Concurrent)
				seed := uint64(interval*containers + container + 1)
				for _, latency := range datagen.Latency(requestsPerIntvl, seed) {
					if err := agent.Add(latency); err != nil {
						log.Fatal(err)
					}
				}
				// Flush: hand the interval's sketch to the backend as its
				// compact binary encoding, and reset for the next one.
				payloads <- agent.Flush().Encode()
			}(c)
		}
		wg.Wait()
		close(payloads)

		// Backend: decode and merge every agent payload. Merging is exact,
		// so the merged sketch answers as if it had seen every request.
		for payload := range payloads {
			if err := merged.DecodeAndMergeWith(payload); err != nil {
				log.Fatal(err)
			}
		}
		perInterval[interval] = merged
		if err := rollup.MergeWith(merged); err != nil {
			log.Fatal(err)
		}

		// Regenerate the exact stream for the ground-truth comparison.
		for c := 0; c < containers; c++ {
			seed := uint64(interval*containers + c + 1)
			exactAll = append(exactAll, datagen.Latency(requestsPerIntvl, seed)...)
		}

		// One-pass read: mean and four percentiles from a single Summary.
		summary, err := merged.Summary(0.5, 0.75, 0.95, 0.99)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8d  %.4f   %.4f   %.4f   %.4f   %.4f\n",
			interval+1, summary.Avg,
			summary.Quantiles[0].Value, summary.Quantiles[1].Value,
			summary.Quantiles[2].Value, summary.Quantiles[3].Value)
	}

	// The Figure 2 observation, quantified over the whole run.
	final := rollup.Snapshot()
	mean, _ := final.Avg()
	p50, _ := final.Quantile(0.5)
	p75, _ := final.Quantile(0.75)
	fmt.Printf("\noverall: mean=%.4fs is %.1fx the median (p50=%.4fs) and %.2fx p75=%.4fs\n",
		mean, mean/p50, p50, mean/p75, p75)
	fmt.Println("=> the average tracks p75, not the median: outliers dominate it (paper Fig. 2)")

	// Rollup accuracy: the merged-of-merged sketch vs exact quantiles of
	// all requests from all containers and intervals.
	sort.Float64s(exactAll)
	fmt.Printf("\nrollup of %d intervals x %d containers (%d requests):\n",
		intervals, containers, len(exactAll))
	fmt.Println("quantile   exact      sketch     rel.err")
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exactV := exactAll[int(q*float64(len(exactAll)-1))]
		est, err := final.Quantile(q)
		if err != nil {
			log.Fatal(err)
		}
		relErr := (est - exactV) / exactV
		if relErr < 0 {
			relErr = -relErr
		}
		fmt.Printf("p%-7g  %.5fs   %.5fs   %.4f%%\n", q*100, exactV, est, relErr*100)
	}
	fmt.Printf("\nsketch size on the wire: %d bytes per interval (vs %d raw float64s)\n",
		len(perInterval[0].Encode()), containers*requestsPerIntvl*8)
}
