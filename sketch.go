package ddsketch

// Sketch is the interface shared by every quantile-sketch variant in
// this package: the plain DDSketch, the mutex-guarded Concurrent, the
// lock-striped Sharded, the TimeWindowed ring, and the composed
// WindowedSharded. Because DDSketch merges are exact for sketches
// sharing a mapping (§2.3 of the paper), all of them answer queries
// exactly as a single sketch of the same data would — which is what
// makes them interchangeable behind one interface: callers pick a
// concurrency/retention shape with NewSketch options and program
// against Sketch.
//
// The interface holds only writes, merges and the two reads every
// other read derives from. MergeWith folds data *into* a sketch;
// Snapshot extracts a merged, independent *DDSketch copy *out* of one,
// and that copy answers quantiles, the CDF and encoding. Summary reads
// count, sum, min, max, avg and quantiles at once: on the merged
// variants (Sharded, TimeWindowed, WindowedSharded) it pays for exactly
// one merge pass.
type Sketch interface {
	// Add inserts a value.
	Add(value float64) error
	// AddWithCount inserts a value with the given positive weight.
	AddWithCount(value, count float64) error
	// AddBatch inserts every value in order, answering exactly as the
	// equivalent per-value Add loop would, but with the per-value costs
	// (lock acquisitions, rotation checks, interface dispatch) amortized
	// over the batch. On the first value that cannot be recorded it stops
	// and returns the error, leaving the values before it recorded —
	// again exactly as the per-value loop would. An empty batch is a
	// no-op.
	AddBatch(values []float64) error
	// AddBatchWithCount is AddBatch with every value carrying the given
	// positive weight. An invalid count is rejected up front, before any
	// value is recorded.
	AddBatchWithCount(values []float64, count float64) error

	// MergeWith folds other into the sketch. other is not modified.
	MergeWith(other *DDSketch) error

	// Count returns the total inserted weight.
	Count() float64
	// Summary returns count, sum, min, max, avg, and the requested
	// quantiles, computed in a single snapshot/merge pass.
	Summary(qs ...float64) (Summary, error)
	// Snapshot returns a merged, deep, independent copy of the sketch's
	// current content as a plain DDSketch.
	Snapshot() *DDSketch

	// Clear empties the sketch, keeping its configuration.
	Clear()
}

// Compile-time conformance: every variant implements Sketch.
var (
	_ Sketch = (*DDSketch)(nil)
	_ Sketch = (*Concurrent)(nil)
	_ Sketch = (*Sharded)(nil)
	_ Sketch = (*TimeWindowed)(nil)
	_ Sketch = (*WindowedSharded)(nil)
)

// Summary is a one-pass read of a sketch's aggregate statistics: the
// summary-at-once API that aggregation services want instead of N
// independent query calls (each of which, on a sharded or windowed
// sketch, would pay for its own full merge). The exact statistics come
// straight from the sketch's running counters; each quantile estimate
// carries the usual α relative-error guarantee.
type Summary struct {
	Count float64 `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Avg   float64 `json:"avg"`
	// RelativeAccuracy is the α the quantile estimates below are
	// guaranteed to: the configured accuracy, degraded to 2α/(1+α²)
	// per uniform-collapse epoch when WithUniformCollapse is active.
	RelativeAccuracy float64 `json:"relative_accuracy"`
	// CollapseEpoch is the number of uniform collapses behind the data
	// summarized here (0 when uniform collapse is off or never fired).
	// On sharded and windowed variants it is the epoch of the merged
	// view, i.e. the coarsest epoch any shard or window slot reached.
	CollapseEpoch int             `json:"collapse_epoch"`
	Quantiles     []QuantileValue `json:"quantiles,omitempty"`
}

// QuantileValue pairs a requested quantile with its estimate.
type QuantileValue struct {
	Q     float64 `json:"q"`
	Value float64 `json:"value"`
}

// summarize builds a Summary directly from a plain sketch. It is the
// single underlying implementation: every variant reduces itself to one
// *DDSketch (by snapshot/merge) and reads all statistics off it.
func (s *DDSketch) summarize(qs []float64) (Summary, error) {
	if s.IsEmpty() {
		return Summary{}, ErrEmptySketch
	}
	values, err := s.Quantiles(qs)
	if err != nil {
		return Summary{}, err
	}
	count := s.Count()
	summary := Summary{
		Count:            count,
		Sum:              s.sum,
		Min:              s.min,
		Max:              s.max,
		Avg:              s.sum / count,
		RelativeAccuracy: s.mapping.RelativeAccuracy(),
		CollapseEpoch:    s.epoch,
	}
	if len(qs) > 0 {
		summary.Quantiles = make([]QuantileValue, len(qs))
		for i, q := range qs {
			summary.Quantiles[i] = QuantileValue{Q: q, Value: values[i]}
		}
	}
	return summary, nil
}
