// Benchmarks regenerating the performance figures of the paper's
// evaluation (§4) with testing.B. Each benchmark family maps to one
// figure; cmd/ddbench prints the same quantities as tables over a sweep
// of N.
//
//	Figure 6 (size):      BenchmarkFig6SketchSize      (bytes via sketch-kB metric)
//	Figure 7 (bins):      BenchmarkFig7NumBins         (bins metric)
//	Figure 8 (add):       BenchmarkFig8Add             (ns/op is the figure's y-axis)
//	Figure 9 (merge):     BenchmarkFig9Merge           (ns/op ÷ 1000 is the figure's µs)
//	Figure 10 (rel err):  BenchmarkFig10RelativeError  (rel-err metric)
//	Figure 11 (rank err): BenchmarkFig11RankError      (rank-err metric)
//
// plus micro-benchmarks for the mapping and serialization trade-offs the
// paper discusses in §2.2/§4.
package ddsketch_test

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/ddsketch-go/ddsketch"
	"github.com/ddsketch-go/ddsketch/internal/datagen"
	"github.com/ddsketch-go/ddsketch/internal/exact"
	"github.com/ddsketch-go/ddsketch/internal/harness"
	"github.com/ddsketch-go/ddsketch/mapping"
	"github.com/ddsketch-go/ddsketch/store"
)

// benchN keeps a full `go test -bench .` run fast; the ddbench binary
// sweeps N for the paper's full axes.
const benchN = 100_000

var benchDatasets = datagen.Names()

func datasetValues(name string, n int) []float64 {
	return datagen.ByName(name, n)
}

// BenchmarkFig8Add measures the per-Add cost of every sketch on every
// dataset (Figure 8's y-axis is exactly ns/op), plus a batch-ingest
// series over the library's Sketch variants comparing the per-value Add
// path against AddBatch: the plain sketch gains hoisted dispatch, the
// concurrent variants amortize one lock (or one lock per shard chunk,
// or one rotation check) over the whole batch.
func BenchmarkFig8Add(b *testing.B) {
	for _, dataset := range benchDatasets {
		values := datasetValues(dataset, benchN)
		for _, f := range harness.Sketches(dataset) {
			b.Run(fmt.Sprintf("%s/%s", f.Name, dataset), func(b *testing.B) {
				s := f.New()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = s.Add(values[i%len(values)])
				}
			})
		}
	}

	// Batch series: ns/op stays per inserted value, so the perValue and
	// batch sub-benchmarks of each variant are directly comparable. The
	// Uniform rows measure the chunked uniform-collapse batch path
	// against its per-value loop (which pays a bin-budget span check on
	// every insertion): at budget 2048 the span dataset never collapses,
	// at budget 512 it collapses twice early on, so both the steady state
	// and the re-hoisting path are covered.
	const batchSize = 1024
	values := datasetValues("span", benchN)
	maxBins := []ddsketch.Option{ddsketch.WithMaxBins(harness.DDSketchMaxBins)}
	variants := []struct {
		name string
		opts []ddsketch.Option
	}{
		{"DDSketch", maxBins},
		{"Concurrent", append([]ddsketch.Option{ddsketch.WithMutex()}, maxBins...)},
		{"Sharded", append([]ddsketch.Option{ddsketch.WithSharding(0)}, maxBins...)},
		{"TimeWindowed", append([]ddsketch.Option{ddsketch.WithWindow(time.Hour, 4)}, maxBins...)},
		{"WindowedSharded", append([]ddsketch.Option{
			ddsketch.WithSharding(0), ddsketch.WithWindow(time.Hour, 4)}, maxBins...)},
		{"UniformDDSketch", []ddsketch.Option{
			ddsketch.WithUniformCollapse(harness.DDSketchMaxBins)}},
		{"UniformDDSketch512", []ddsketch.Option{ddsketch.WithUniformCollapse(512)}},
	}
	newVariant := func(b *testing.B, opts []ddsketch.Option) ddsketch.Sketch {
		b.Helper()
		s, err := ddsketch.NewSketch(append([]ddsketch.Option{
			ddsketch.WithRelativeAccuracy(harness.DDSketchAlpha),
		}, opts...)...)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	for _, v := range variants {
		b.Run(v.name+"/span/perValue", func(b *testing.B) {
			s := newVariant(b, v.opts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Add(values[i%len(values)])
			}
		})
		b.Run(v.name+"/span/batch", func(b *testing.B) {
			s := newVariant(b, v.opts)
			b.ResetTimer()
			for done := 0; done < b.N; done += batchSize {
				n := batchSize
				if rem := b.N - done; rem < n {
					n = rem
				}
				_ = s.AddBatch(values[done%(len(values)-batchSize) : done%(len(values)-batchSize)+n])
			}
		})
	}
}

// BenchmarkFig9Merge measures the cost of merging two sketches holding
// benchN/2 values each (Figure 9's y-axis is ns/op ÷ 1000).
func BenchmarkFig9Merge(b *testing.B) {
	for _, dataset := range benchDatasets {
		values := datasetValues(dataset, benchN)
		for _, f := range harness.Sketches(dataset) {
			b.Run(fmt.Sprintf("%s/%s", f.Name, dataset), func(b *testing.B) {
				src, _ := harness.Fill(f, values[benchN/2:])
				dst, _ := harness.Fill(f, values[:benchN/2])
				b.ResetTimer()
				// Steady-state merge: repeatedly folding the same source in
				// only increases counts, so per-merge cost is stable and no
				// per-iteration rebuild is needed.
				for i := 0; i < b.N; i++ {
					if err := dst.MergeWith(src); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig6SketchSize reports each sketch's memory footprint after
// absorbing benchN values (Figure 6's y-axis, as the sketch-kB metric).
func BenchmarkFig6SketchSize(b *testing.B) {
	for _, dataset := range benchDatasets {
		values := datasetValues(dataset, benchN)
		for _, f := range harness.Sketches(dataset) {
			b.Run(fmt.Sprintf("%s/%s", f.Name, dataset), func(b *testing.B) {
				var size int
				for i := 0; i < b.N; i++ {
					s, _ := harness.Fill(f, values)
					size = s.SizeBytes()
				}
				b.ReportMetric(float64(size)/1000, "sketch-kB")
			})
		}
	}
}

// BenchmarkFig7NumBins reports the bins used by DDSketch on the pareto
// dataset (Figure 7's y-axis, as the bins metric).
func BenchmarkFig7NumBins(b *testing.B) {
	values := datasetValues("pareto", benchN)
	var bins int
	for i := 0; i < b.N; i++ {
		s, err := ddsketch.NewCollapsing(harness.DDSketchAlpha, harness.DDSketchMaxBins)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range values {
			_ = s.Add(v)
		}
		bins = s.NumBins()
	}
	b.ReportMetric(float64(bins), "bins")
}

// benchAccuracy reports an error metric per sketch/dataset/quantile.
func benchAccuracy(b *testing.B, metric string,
	errFn func(sorted []float64, est float64, q float64) float64) {
	for _, dataset := range benchDatasets {
		values := datasetValues(dataset, benchN)
		sorted := append([]float64(nil), values...)
		sort.Float64s(sorted)
		for _, f := range harness.Sketches(dataset) {
			s, _ := harness.Fill(f, values)
			for _, q := range []float64{0.5, 0.95, 0.99} {
				b.Run(fmt.Sprintf("%s/%s/p%g", f.Name, dataset, q*100), func(b *testing.B) {
					var e float64
					for i := 0; i < b.N; i++ {
						est, err := s.Quantile(q)
						if err != nil {
							b.Fatal(err)
						}
						e = errFn(sorted, est, q)
					}
					b.ReportMetric(e, metric)
				})
			}
		}
	}
}

// BenchmarkFig10RelativeError reports the relative error of each
// sketch's quantile estimates (Figure 10's y-axis, as the rel-err
// metric; ns/op is the query latency).
func BenchmarkFig10RelativeError(b *testing.B) {
	benchAccuracy(b, "rel-err", func(sorted []float64, est float64, q float64) float64 {
		return exact.RelativeError(est, exact.Quantile(sorted, q))
	})
}

// BenchmarkFig11RankError reports the rank error of each sketch's
// quantile estimates (Figure 11's y-axis, as the rank-err metric).
func BenchmarkFig11RankError(b *testing.B) {
	benchAccuracy(b, "rank-err", func(sorted []float64, est float64, q float64) float64 {
		return exact.RankError(sorted, est, q)
	})
}

// BenchmarkMappingIndex isolates the §2.2 mapping trade-off: the cost of
// computing a bucket index with the exact logarithm vs. the interpolated
// approximations behind "DDSketch (fast)".
func BenchmarkMappingIndex(b *testing.B) {
	mappings := []struct {
		name string
		new  func(float64) (mapping.IndexMapping, error)
	}{
		{"Logarithmic", func(a float64) (mapping.IndexMapping, error) { return mapping.NewLogarithmic(a) }},
		{"LinearlyInterpolated", func(a float64) (mapping.IndexMapping, error) { return mapping.NewLinearlyInterpolated(a) }},
		{"QuadraticallyInterpolated", func(a float64) (mapping.IndexMapping, error) { return mapping.NewQuadraticallyInterpolated(a) }},
		{"CubicallyInterpolated", func(a float64) (mapping.IndexMapping, error) { return mapping.NewCubicallyInterpolated(a) }},
	}
	values := datasetValues("span", 4096)
	for _, m := range mappings {
		im, err := m.new(0.01)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.name, func(b *testing.B) {
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += im.Index(values[i&4095])
			}
			_ = sink
		})
	}
}

// BenchmarkStoreAdd isolates the §2.2 store cost: insertion into the
// unbounded dense layout and the collapsing one.
func BenchmarkStoreAdd(b *testing.B) {
	stores := []struct {
		name string
		new  func() store.Store
	}{
		{"Dense", func() store.Store { return store.NewDenseStore() }},
		{"CollapsingLowest", func() store.Store { return store.NewCollapsingLowestDenseStore(2048) }},
	}
	m, err := mapping.NewLogarithmic(0.01)
	if err != nil {
		b.Fatal(err)
	}
	values := datasetValues("span", 4096)
	indexes := make([]int, len(values))
	for i, v := range values {
		indexes[i] = m.Index(v)
	}
	for _, sc := range stores {
		b.Run(sc.name, func(b *testing.B) {
			s := sc.new()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Add(indexes[i&4095])
			}
		})
	}
}

// BenchmarkQuantileQuery measures the query-side cost (not plotted in
// the paper but relevant for serving dashboards: queries walk the
// buckets).
func BenchmarkQuantileQuery(b *testing.B) {
	for _, dataset := range benchDatasets {
		values := datasetValues(dataset, benchN)
		for _, f := range harness.Sketches(dataset) {
			s, _ := harness.Fill(f, values)
			// Prime any solver caches so the steady-state cost is measured.
			if _, err := s.Quantile(0.5); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%s", f.Name, dataset), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := s.Quantile(0.99); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkConcurrentAdd measures parallel insertion throughput through
// the single-mutex Concurrent wrapper: every Add serializes on one lock,
// so adding writers adds contention, not throughput. Run with
// -cpu 1,4,8 to see the collapse; BenchmarkShardedAdd is the fix.
func BenchmarkConcurrentAdd(b *testing.B) {
	values := datasetValues("span", 4096)
	s, err := ddsketch.NewCollapsing(harness.DDSketchAlpha, harness.DDSketchMaxBins)
	if err != nil {
		b.Fatal(err)
	}
	c := ddsketch.NewConcurrent(s)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			_ = c.Add(values[i&4095])
			i++
		}
	})
}

// BenchmarkShardedAdd measures parallel insertion throughput through the
// sharded sketch: writers land on independently-locked shards, so
// parallel writers proceed mostly without contending. Compare against
// BenchmarkConcurrentAdd under -cpu 1,4,8.
func BenchmarkShardedAdd(b *testing.B) {
	values := datasetValues("span", 4096)
	proto, err := ddsketch.NewCollapsing(harness.DDSketchAlpha, harness.DDSketchMaxBins)
	if err != nil {
		b.Fatal(err)
	}
	s := ddsketch.NewSharded(proto, 0)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			_ = s.Add(values[i&4095])
			i++
		}
	})
}

// BenchmarkShardedQuantile measures the price of merge-on-read: a
// quantile query against a sharded sketch merges all shards first.
func BenchmarkShardedQuantile(b *testing.B) {
	values := datasetValues("span", benchN)
	proto, err := ddsketch.NewCollapsing(harness.DDSketchAlpha, harness.DDSketchMaxBins)
	if err != nil {
		b.Fatal(err)
	}
	s := ddsketch.NewSharded(proto, 0)
	for _, v := range values {
		_ = s.Add(v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Snapshot().Quantile(0.99); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedSummary documents the merge-once win of the Summary
// API: reading count, sum, min, max, avg, and three quantiles off a
// sharded sketch costs one shard-merge pass via Summary, but one merge
// pass *per statistic* when each is read off its own snapshot.
func BenchmarkShardedSummary(b *testing.B) {
	values := datasetValues("span", benchN)
	proto, err := ddsketch.NewCollapsing(harness.DDSketchAlpha, harness.DDSketchMaxBins)
	if err != nil {
		b.Fatal(err)
	}
	s := ddsketch.NewSharded(proto, 0)
	for _, v := range values {
		_ = s.Add(v)
	}
	qs := []float64{0.5, 0.95, 0.99}

	b.Run("Summary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Summary(qs...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("NaivePerQueryReads", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				if _, err := s.Snapshot().Quantile(q); err != nil {
					b.Fatal(err)
				}
			}
			for _, query := range []func(*ddsketch.DDSketch) (float64, error){
				(*ddsketch.DDSketch).Sum, (*ddsketch.DDSketch).Min,
				(*ddsketch.DDSketch).Max, (*ddsketch.DDSketch).Avg,
			} {
				if _, err := query(s.Snapshot()); err != nil {
					b.Fatal(err)
				}
			}
			_ = s.Count()
		}
	})
}

// BenchmarkEncode measures sketch serialization, the per-flush cost of
// the agent workflow in the paper's introduction.
func BenchmarkEncode(b *testing.B) {
	values := datasetValues("span", benchN)
	s, err := ddsketch.NewCollapsing(harness.DDSketchAlpha, harness.DDSketchMaxBins)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range values {
		_ = s.Add(v)
	}
	data := s.Encode()
	b.Run("Encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			data = s.Encode()
		}
		b.SetBytes(int64(len(data)))
	})
	b.Run("Decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ddsketch.Decode(data); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(data)))
	})
	b.Run("DecodeAndMergeWith", func(b *testing.B) {
		dst, err := ddsketch.NewCollapsing(harness.DDSketchAlpha, harness.DDSketchMaxBins)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if err := dst.DecodeAndMergeWith(data); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(data)))
	})
}
