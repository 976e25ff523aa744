// Benchmarks for the keyed-aggregation hot paths at production-shaped
// cardinality: per-value and batched keyed ingest against 10⁵ distinct
// series under a 10⁴-sketch budget (so admission, eviction, and
// overflow all stay on the measured path), and match-all/filtered
// roll-ups over a full registry; cmd/ddbench's `keyed` cell records
// those quantities machine-readably for the CI gate. The interval close
// over 10⁴ live windowed series and label-set canonicalization are
// measured here only.
package registry

import (
	"strconv"
	"testing"
	"time"

	"github.com/ddsketch-go/ddsketch"
	"github.com/ddsketch-go/ddsketch/internal/datagen"
)

const (
	benchKeys   = 100_000
	benchBudget = 10_000
	benchN      = 200_000
)

func benchRegistry(b *testing.B) *SketchMap {
	b.Helper()
	m, err := New(
		WithMaxSketches(benchBudget),
		WithAdmissionThreshold(2),
		WithSketchOptions(
			ddsketch.WithRelativeAccuracy(0.01),
			ddsketch.WithMaxBins(2048),
		),
	)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func benchLabelSets(b *testing.B, n int) []LabelSet {
	b.Helper()
	keys := make([]LabelSet, n)
	for i := range keys {
		ls, err := NewLabelSet(
			Label{Name: "service", Value: "svc" + strconv.Itoa(i%100)},
			Label{Name: "endpoint", Value: "/ep" + strconv.Itoa(i)},
		)
		if err != nil {
			b.Fatal(err)
		}
		keys[i] = ls
	}
	return keys
}

// BenchmarkSketchMapAdd measures per-value keyed ingest across 10⁵
// series: hash + segment lock + (map hit | admission test) per value.
func BenchmarkSketchMapAdd(b *testing.B) {
	values := datagen.ParetoSeeded(benchN, 1)
	keys := benchLabelSets(b, benchKeys)
	m := benchRegistry(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Add(keys[i%benchKeys], values[i%benchN]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSketchMapAddBatch measures keyed batch ingest: one series
// flushing 16-value buffers, the shape an agent's per-series buffer
// produces, with the per-call costs amortized over the batch.
func BenchmarkSketchMapAddBatch(b *testing.B) {
	const batch = 16
	values := datagen.ParetoSeeded(benchN, 1)
	keys := benchLabelSets(b, benchKeys)
	m := benchRegistry(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * batch) % (benchN - batch)
		if err := m.AddBatch(keys[i%benchKeys], values[lo:lo+batch]); err != nil {
			b.Fatal(err)
		}
	}
	// ns/op is per batch; divide by 16 for the per-value figure.
}

// BenchmarkSketchMapRollUp measures the match-all roll-up over a
// registry filled to its 10⁴-sketch budget — the read path of a
// "global p99 across all series" dashboard query.
func BenchmarkSketchMapRollUp(b *testing.B) {
	values := datagen.ParetoSeeded(benchN, 1)
	keys := benchLabelSets(b, benchKeys)
	m := benchRegistry(b)
	for i := 0; i < benchN; i++ {
		if err := m.Add(keys[i%benchKeys], values[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.RollUpSummary(MatchAll(), 0, 0.5, 0.95, 0.99); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSketchMapRollUpFiltered measures a constrained roll-up
// (service=svc42 selects ~1% of live series) resolved through the
// inverted label index: each segment walks the svc42 posting list and
// merges only the matches.
func BenchmarkSketchMapRollUpFiltered(b *testing.B) {
	values := datagen.ParetoSeeded(benchN, 1)
	keys := benchLabelSets(b, benchKeys)
	m := benchRegistry(b)
	for i := 0; i < benchN; i++ {
		if err := m.Add(keys[i%benchKeys], values[i]); err != nil {
			b.Fatal(err)
		}
	}
	f, err := ParseFilter("service=svc42")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.RollUpSummary(f, 0, 0.99); err != nil && err != ddsketch.ErrEmptySketch {
			b.Fatal(err)
		}
	}
}

// BenchmarkSketchMapRollUpFilteredScan is the same constrained roll-up
// forced onto the reference full-scan path — the denominator of the
// index speedup the CI bench gate enforces.
func BenchmarkSketchMapRollUpFilteredScan(b *testing.B) {
	values := datagen.ParetoSeeded(benchN, 1)
	keys := benchLabelSets(b, benchKeys)
	m := benchRegistry(b)
	for i := 0; i < benchN; i++ {
		if err := m.Add(keys[i%benchKeys], values[i]); err != nil {
			b.Fatal(err)
		}
	}
	f, err := ParseFilter("service=svc42")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.RollUpScan(f, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSketchMapRotate measures one interval close over 10⁴ live
// windowed series. Every series is rewritten (off the clock) once per
// ring length, always just before it would go idle, so each timed
// Rotate closes an interval in which nothing expires: the cost a drain
// loop pays per tick for a registry that stays fully live.
func BenchmarkSketchMapRotate(b *testing.B) {
	const (
		series  = 10_000
		windows = 256 // long rings keep the off-the-clock rewrites rare
	)
	clock := time.Unix(1_700_000_000, 0)
	m, err := New(
		WithKeyWindow(windows, time.Second, func() time.Time { return clock }),
		WithMaxSketches(series),
		WithAdmissionThreshold(0),
	)
	if err != nil {
		b.Fatal(err)
	}
	keys := benchLabelSets(b, series)
	writeAll := func() {
		for _, k := range keys {
			if err := m.Add(k, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	writeAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		clock = clock.Add(time.Second)
		if i%windows == 0 {
			b.StopTimer()
			writeAll()
			b.StartTimer()
		}
		m.Rotate()
	}
	b.StopTimer()
	if live := m.LiveKeys(); live != series {
		b.Fatalf("LiveKeys = %d, want %d", live, series)
	}
}

// BenchmarkParseLabelSet measures canonicalizing a request's series key
// — the first step of every keyed write — for a 3- and a 5-label key,
// each given out of canonical order.
func BenchmarkParseLabelSet(b *testing.B) {
	for _, in := range []struct{ name, key string }{
		{"labels=3", "service=api,endpoint=/login,status=500"},
		{"labels=5", "service=api,endpoint=/login,status=500,zone=us-east-1a,host=web-042"},
	} {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ParseLabelSet(in.key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
