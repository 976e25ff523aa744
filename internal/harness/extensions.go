package harness

import (
	"fmt"
	"sort"
	"time"

	"github.com/ddsketch-go/ddsketch"
	"github.com/ddsketch-go/ddsketch/internal/datagen"
	"github.com/ddsketch-go/ddsketch/internal/exact"
	"github.com/ddsketch-go/ddsketch/internal/kll"
	"github.com/ddsketch-go/ddsketch/internal/tdigest"
	"github.com/ddsketch-go/ddsketch/mapping"
	"github.com/ddsketch-go/ddsketch/store"
)

// This file holds the experiments that go beyond the paper's figures:
// an ablation over the implementation choices §2.2 discusses (index
// mapping × bucket store), and a comparison against t-digest, the
// related-work sketch of §1.2 that the paper describes but does not
// benchmark.

// Ablation sweeps every mapping × store combination of the library on
// the span dataset, reporting insertion speed, memory, and p99 relative
// error. It quantifies the §2.2 trade-offs: interpolated mappings buy
// speed with buckets, and the collapsing store's bin cap bounds memory
// without touching accuracy while the data's range fits under it.
func Ablation(cfg Config) Result {
	n := cfg.N
	if n > 2_000_000 {
		n = 2_000_000
	}
	values := datagen.SpanSeeded(n, cfg.Seed)
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	p99 := exact.Quantile(sorted, 0.99)

	mappings := []struct {
		name string
		new  func(float64) (mapping.IndexMapping, error)
	}{
		{"log", func(a float64) (mapping.IndexMapping, error) { return mapping.NewLogarithmic(a) }},
		{"linear", func(a float64) (mapping.IndexMapping, error) { return mapping.NewLinearlyInterpolated(a) }},
		{"quadratic", func(a float64) (mapping.IndexMapping, error) { return mapping.NewQuadraticallyInterpolated(a) }},
		{"cubic", func(a float64) (mapping.IndexMapping, error) { return mapping.NewCubicallyInterpolated(a) }},
	}
	stores := []struct {
		name     string
		provider store.Provider
	}{
		{"dense", store.DenseStoreProvider()},
		{"collapsing(2048)", store.CollapsingLowestProvider(DDSketchMaxBins)},
	}

	r := Result{
		ID:      "ablation",
		Title:   fmt.Sprintf("Mapping x store ablation (span dataset, N=%d, alpha=%g)", n, DDSketchAlpha),
		Columns: []string{"mapping", "store", "add ns", "size kB", "bins", "p99 rel err"},
		Notes: []string{
			"interpolated mappings trade buckets for insertion speed (1/ln2, 0.75/ln2, 0.70/ln2);",
			"the span data fits under the 2048-bin cap, so dense and collapsing(2048) hold the",
			"same bins at the same p99 error; accuracy holds everywhere",
		},
	}
	for _, m := range mappings {
		for _, st := range stores {
			im, err := m.new(DDSketchAlpha)
			if err != nil {
				continue
			}
			s := ddsketch.NewWithConfig(im, st.provider, st.provider)
			start := time.Now()
			for _, v := range values {
				_ = s.Add(v)
			}
			elapsed := time.Since(start)
			est, err := s.Quantile(0.99)
			if err != nil {
				continue
			}
			r.AddRow(m.name, st.name,
				fmt.Sprintf("%.1f", float64(elapsed.Nanoseconds())/float64(n)),
				fmt.Sprintf("%.2f", float64(s.SizeBytes())/1000),
				s.NumBins(),
				fmt.Sprintf("%.2e", exact.RelativeError(est, p99)))
		}
	}
	return r
}

// Uniform compares the two bounded-memory modes at equal bin budgets on
// heavy-tailed data: the paper's lowest-first collapsing stores
// (Algorithm 3, which sacrifices the lowest quantiles entirely) versus
// uniform collapse (UDDSketch mode, which folds bucket pairs under γ²
// and degrades α over the whole range). On pareto and lognormal streams
// under a tight budget, lowest-first error at the collapsed tail is
// orders of magnitude above α while uniform stays within the epoch's
// α' = 2α/(1+α²)-per-collapse bound at every quantile.
func Uniform(cfg Config) (Result, error) {
	newMapping, err := mappingConstructor(cfg.Mapping)
	if err != nil {
		return Result{}, err
	}
	mappingName := cfg.Mapping
	if mappingName == "" {
		mappingName = "log"
	}
	n := cfg.N
	if n > 2_000_000 {
		n = 2_000_000
	}
	datasets := []struct {
		name   string
		values []float64
	}{
		{"pareto", datagen.ParetoSeeded(n, cfg.Seed)},
		{"lognormal", datagen.LogNormalSeeded(n, 0, 3, cfg.Seed+1)},
	}
	r := Result{
		ID: "uniform",
		Title: fmt.Sprintf("Uniform collapse (UDDSketch) vs collapsing-lowest (N=%d, alpha=%g, mapping=%s)",
			n, DDSketchAlpha, mappingName),
		Columns: []string{"dataset", "max bins", "q",
			"lowest rel err", "uniform rel err", "uniform alpha'", "epochs"},
		Notes: []string{
			"equal bin budgets; lowest-first collapsing destroys the low quantiles of a",
			"heavy-tailed stream, uniform collapse keeps every quantile within alpha'",
		},
	}
	for _, d := range datasets {
		sorted := append([]float64(nil), d.values...)
		sort.Float64s(sorted)
		for _, maxBins := range []int{128, 512} {
			lowestMapping, err := newMapping(DDSketchAlpha)
			if err != nil {
				return Result{}, err
			}
			uniformMapping, err := newMapping(DDSketchAlpha)
			if err != nil {
				return Result{}, err
			}
			lowestSketch, err1 := ddsketch.NewSketch(
				ddsketch.WithMapping(lowestMapping), ddsketch.WithMaxBins(maxBins))
			uniformSketch, err2 := ddsketch.NewSketch(
				ddsketch.WithMapping(uniformMapping), ddsketch.WithUniformCollapse(maxBins))
			if err1 != nil || err2 != nil {
				continue
			}
			lowest := lowestSketch.(*ddsketch.DDSketch)
			uniform := uniformSketch.(*ddsketch.DDSketch)
			for _, v := range d.values {
				_ = lowest.Add(v)
				_ = uniform.Add(v)
			}
			for _, q := range []float64{0.01, 0.25, 0.5, 0.95, 0.99} {
				exactQ := exact.Quantile(sorted, q)
				lowEst, err1 := lowest.Quantile(q)
				uniEst, err2 := uniform.Quantile(q)
				if err1 != nil || err2 != nil {
					continue
				}
				r.AddRow(d.name, maxBins, q,
					fmt.Sprintf("%.2e", exact.RelativeError(lowEst, exactQ)),
					fmt.Sprintf("%.2e", exact.RelativeError(uniEst, exactQ)),
					fmt.Sprintf("%.4f", uniform.RelativeAccuracy()),
					uniform.CollapseEpoch())
			}
		}
	}
	return r, nil
}

// mappingConstructor resolves a Config.Mapping selector name to an
// index-mapping constructor. The empty name selects the logarithmic
// default.
func mappingConstructor(name string) (func(float64) (mapping.IndexMapping, error), error) {
	switch name {
	case "", "log":
		return func(a float64) (mapping.IndexMapping, error) { return mapping.NewLogarithmic(a) }, nil
	case "linear":
		return func(a float64) (mapping.IndexMapping, error) { return mapping.NewLinearlyInterpolated(a) }, nil
	case "quadratic":
		return func(a float64) (mapping.IndexMapping, error) { return mapping.NewQuadraticallyInterpolated(a) }, nil
	case "cubic":
		return func(a float64) (mapping.IndexMapping, error) { return mapping.NewCubicallyInterpolated(a) }, nil
	default:
		return nil, fmt.Errorf("harness: unknown mapping %q (known: log, linear, quadratic, cubic)", name)
	}
}

// Related compares DDSketch with the two related-work sketches of §1.2
// that the paper discusses but does not benchmark: t-digest (biased rank
// error, used by Elasticsearch) and KLL (randomized, fully mergeable,
// O((1/ε)·loglog(1/δ)) space). Both achieve good rank accuracy; neither
// bounds relative error, which is the paper's point.
func Related(cfg Config) Result {
	r := Result{
		ID:      "related",
		Title:   "DDSketch vs t-digest vs KLL (related work, §1.2)",
		Columns: []string{"dataset", "q", "DD rel err", "TD rel err", "KLL rel err", "DD rank err", "TD rank err", "KLL rank err"},
		Notes: []string{
			"t-digest (compression 100) and KLL (k=200) have small rank error but no",
			"relative guarantee; DDSketch bounds relative error at alpha = 0.01 everywhere",
		},
	}
	n := cfg.N
	if n > 2_000_000 {
		n = 2_000_000
	}
	for _, dataset := range datagen.Names() {
		values := datagen.ByName(dataset, n)
		sorted := append([]float64(nil), values...)
		sort.Float64s(sorted)

		dd, err := ddsketch.NewCollapsing(DDSketchAlpha, DDSketchMaxBins)
		if err != nil {
			continue
		}
		td, err := tdigest.New(100)
		if err != nil {
			continue
		}
		kl, err := kll.New(200, cfg.Seed)
		if err != nil {
			continue
		}
		for _, v := range values {
			_ = dd.Add(v)
			_ = td.Add(v)
			_ = kl.Add(v)
		}
		for _, q := range []float64{0.5, 0.99, 0.999} {
			exactQ := exact.Quantile(sorted, q)
			ddEst, err1 := dd.Quantile(q)
			tdEst, err2 := td.Quantile(q)
			klEst, err3 := kl.Quantile(q)
			if err1 != nil || err2 != nil || err3 != nil {
				continue
			}
			r.AddRow(dataset, q,
				fmt.Sprintf("%.2e", exact.RelativeError(ddEst, exactQ)),
				fmt.Sprintf("%.2e", exact.RelativeError(tdEst, exactQ)),
				fmt.Sprintf("%.2e", exact.RelativeError(klEst, exactQ)),
				fmt.Sprintf("%.2e", exact.RankError(sorted, ddEst, q)),
				fmt.Sprintf("%.2e", exact.RankError(sorted, tdEst, q)),
				fmt.Sprintf("%.2e", exact.RankError(sorted, klEst, q)))
		}
	}
	return r
}
