// Cross-validated accuracy harness for the uniform-collapse
// (UDDSketch) mode: heavy-tailed and adversarial streams are run
// through uniform-collapse and lowest-collapse sketches at equal bin
// budgets and checked bucket-for-bucket against internal/exact —
// proving the tail-accuracy win is measured, not claimed — plus the
// mixed-epoch merge identities the fusion semantics promise.
package ddsketch_test

import (
	"errors"
	"sort"
	"sync"
	"testing"

	"github.com/ddsketch-go/ddsketch"
	"github.com/ddsketch-go/ddsketch/internal/datagen"
	"github.com/ddsketch-go/ddsketch/internal/exact"
	"github.com/ddsketch-go/ddsketch/mapping"
)

// TestUniformCollapseAdversarialStream is the headline guarantee: under
// a 10^7-value adversarial stream (an exponential ramp sweeping 30
// decades, each value a fresh bucket at full α) with a budget of 512
// bins, the sketch stays within the budget and every quantile in
// [0.01, 0.99] meets the epoch-adjusted relative-error bound against
// the exact quantiles.
func TestUniformCollapseAdversarialStream(t *testing.T) {
	const maxBins = 512
	n := 10_000_000
	if testing.Short() {
		n = 1_000_000
	}
	values := datagen.ExpRamp(n, 30)

	s, err := ddsketch.NewUniformCollapsing(0.01, maxBins)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddBatch(values); err != nil {
		t.Fatal(err)
	}
	if got := s.Count(); got != float64(n) {
		t.Fatalf("Count = %g, want %d", got, n)
	}
	if bins := s.NumBins(); bins > maxBins {
		t.Fatalf("NumBins = %d exceeds budget %d", bins, maxBins)
	}
	epoch := s.CollapseEpoch()
	if epoch == 0 {
		t.Fatal("30-decade ramp did not force a collapse")
	}
	alphaE := alphaAfterEpochs(0.01, epoch)
	if got := s.RelativeAccuracy(); got != alphaE {
		t.Fatalf("epoch %d: α' = %v, want %v", epoch, got, alphaE)
	}
	// The ramp is generated in ascending order: it is its own sorted
	// copy, so exact quantiles are direct lookups.
	for q := 0.01; q < 0.995; q += 0.01 {
		est, err := s.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		truth := exact.Quantile(values, q)
		if rel := exact.RelativeError(est, truth); rel > alphaE*(1+1e-9) {
			t.Errorf("q=%.2f: estimate %g vs exact %g: relative error %g exceeds α'=%g (epoch %d)",
				q, est, truth, rel, alphaE, epoch)
		}
	}
	t.Logf("n=%d: epoch %d, α'=%.4f, %d bins", n, epoch, alphaE, s.NumBins())
}

// buildUniform fills a fresh uniform-collapse sketch.
func buildUniform(t *testing.T, alpha float64, maxBins int, values []float64) *ddsketch.DDSketch {
	t.Helper()
	s, err := ddsketch.NewUniformCollapsing(alpha, maxBins)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range values {
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestUniformVsLowestCollapseTailError cross-validates the two bounded
// modes against internal/exact on heavy-tailed datasets: wherever
// lowest-first collapsing has destroyed the low quantiles (error far
// beyond α), uniform collapse still answers within its epoch-adjusted
// α' — the accuracy the mode exists to preserve.
func TestUniformVsLowestCollapseTailError(t *testing.T) {
	const (
		alpha   = 0.01
		maxBins = 128
		n       = 100_000
	)
	datasets := map[string][]float64{
		"pareto":    datagen.ParetoSeeded(n, 7),
		"lognormal": datagen.LogNormalSeeded(n, 0, 3, 8),
		"expramp":   datagen.ExpRamp(n, 20),
	}
	tailQs := []float64{0.01, 0.05, 0.25, 0.5}
	for name, values := range datasets {
		t.Run(name, func(t *testing.T) {
			sorted := append([]float64(nil), values...)
			sort.Float64s(sorted)

			lowest, err := ddsketch.NewCollapsing(alpha, maxBins)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range values {
				if err := lowest.Add(v); err != nil {
					t.Fatal(err)
				}
			}
			uniform := buildUniform(t, alpha, maxBins, values)
			if !lowest.Collapsed() || uniform.CollapseEpoch() == 0 {
				t.Fatalf("dataset too narrow: lowest collapsed=%t, uniform epoch=%d",
					lowest.Collapsed(), uniform.CollapseEpoch())
			}
			alphaE := uniform.RelativeAccuracy()

			for _, q := range tailQs {
				truth := exact.Quantile(sorted, q)
				lowEst, err := lowest.Quantile(q)
				if err != nil {
					t.Fatal(err)
				}
				uniEst, err := uniform.Quantile(q)
				if err != nil {
					t.Fatal(err)
				}
				lowErr := exact.RelativeError(lowEst, truth)
				uniErr := exact.RelativeError(uniEst, truth)
				if uniErr > alphaE*(1+1e-9) {
					t.Errorf("q=%g: uniform error %g exceeds α'=%g", q, uniErr, alphaE)
				}
				if q <= 0.05 {
					// The collapsed tail: lowest-first has lost the
					// guarantee outright, and uniform must win by a wide
					// margin, not a rounding artifact.
					if lowErr <= alpha {
						t.Errorf("q=%g: lowest-collapse error %g unexpectedly within α — tail not collapsed", q, lowErr)
					}
					if uniErr*10 > lowErr {
						t.Errorf("q=%g: uniform error %g not decisively below lowest-collapse error %g",
							q, uniErr, lowErr)
					}
				}
			}
			// And the upper quantiles — the ones lowest-first protects —
			// must still be within α' under uniform collapse too.
			for _, q := range []float64{0.95, 0.99} {
				truth := exact.Quantile(sorted, q)
				uniEst, err := uniform.Quantile(q)
				if err != nil {
					t.Fatal(err)
				}
				if uniErr := exact.RelativeError(uniEst, truth); uniErr > alphaE*(1+1e-9) {
					t.Errorf("q=%g: uniform error %g exceeds α'=%g", q, uniErr, alphaE)
				}
			}
		})
	}
}

// TestUniformMixedEpochMergeBinIdentical is the fusion identity:
// encode→decode→merge of sketches at different epochs produces exactly
// the bins of collapsing the finer sketch first and then merging — the
// property that makes the wire path (ddserver ingest) equivalent to
// local reconciliation.
func TestUniformMixedEpochMergeBinIdentical(t *testing.T) {
	// fine stays at a generous budget (low epoch); coarse gets a tight
	// one (high epoch) over a wider stream.
	fine := buildUniform(t, 0.01, 4096, datagen.ExpRamp(50_000, 6))
	coarse := buildUniform(t, 0.01, 64, datagen.ExpRamp(50_000, 12))
	if fine.CollapseEpoch() >= coarse.CollapseEpoch() {
		t.Fatalf("want fine epoch < coarse epoch, got %d and %d",
			fine.CollapseEpoch(), coarse.CollapseEpoch())
	}

	// Path 1: the wire path — decode the coarse sketch and merge it in.
	viaWire := fine.Copy()
	if err := viaWire.DecodeAndMergeWith(coarse.Encode()); err != nil {
		t.Fatal(err)
	}
	// Path 2: collapse the finer sketch up to the coarser epoch
	// explicitly, then merge.
	viaCollapse := fine.Copy()
	for viaCollapse.CollapseEpoch() < coarse.CollapseEpoch() {
		if err := viaCollapse.CollapseUniformly(); err != nil {
			t.Fatal(err)
		}
	}
	if err := viaCollapse.MergeWith(coarse); err != nil {
		t.Fatal(err)
	}

	assertBinIdentical(t, viaWire, viaCollapse)
	if viaWire.CollapseEpoch() != viaCollapse.CollapseEpoch() {
		t.Errorf("epochs diverged: wire %d vs collapse-first %d",
			viaWire.CollapseEpoch(), viaCollapse.CollapseEpoch())
	}
	if got, want := viaWire.Count(), fine.Count()+coarse.Count(); got != want {
		t.Errorf("merged Count = %g, want %g", got, want)
	}

	// The reverse direction — merging the *finer* sketch into the
	// coarser — reconciles by collapsing a copy, leaving the argument
	// untouched.
	reverse := coarse.Copy()
	if err := reverse.MergeWith(fine); err != nil {
		t.Fatal(err)
	}
	if got, want := reverse.Count(), fine.Count()+coarse.Count(); got != want {
		t.Errorf("reverse merged Count = %g, want %g", got, want)
	}
	if fine.CollapseEpoch() != 0 {
		t.Errorf("MergeWith collapsed its argument to epoch %d", fine.CollapseEpoch())
	}
	// Both merge orders hold the same multiset of data at the same
	// epoch, so their bins agree too.
	assertBinIdentical(t, reverse, viaWire)
}

// TestUniformMergeAcceptsPlainAgents: the aggregation-path shape — a
// plain (never-collapsing) agent sketch at the same base α merges into
// a uniform aggregate that has already collapsed, by folding a copy of
// the agent's bins up to the aggregate's epoch. The agent is untouched.
func TestUniformMergeAcceptsPlainAgents(t *testing.T) {
	agg := buildUniform(t, 0.01, 64, datagen.ExpRamp(20_000, 12))
	if agg.CollapseEpoch() == 0 {
		t.Fatal("aggregate never collapsed")
	}
	agent, err := ddsketch.New(0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 1000; i++ {
		if err := agent.Add(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := agg.Count()
	if err := agg.MergeWith(agent); err != nil {
		t.Fatalf("merging a plain agent into a collapsed aggregate: %v", err)
	}
	if err := agg.DecodeAndMergeWith(agent.Encode()); err != nil {
		t.Fatalf("wire-merging a plain agent: %v", err)
	}
	if got, want := agg.Count(), before+2000; got != want {
		t.Fatalf("Count = %g, want %g", got, want)
	}
	if agent.CollapseEpoch() != 0 || agent.Count() != 1000 {
		t.Error("merge mutated the agent sketch")
	}
}

// TestUniformMergeRejectsForeignLineage: epoch reconciliation only
// bridges mappings of the same collapse lineage; a sketch whose base α
// differs stays unmergeable at any epoch combination.
func TestUniformMergeRejectsForeignLineage(t *testing.T) {
	s := buildUniform(t, 0.01, 64, datagen.ExpRamp(10_000, 12))
	if s.CollapseEpoch() == 0 {
		t.Fatal("sketch never collapsed")
	}
	foreign := buildUniform(t, 0.02, 1<<20, []float64{1, 2, 3})
	if err := s.MergeWith(foreign); !errors.Is(err, ddsketch.ErrIncompatibleSketches) {
		t.Errorf("merge across base accuracies: err = %v, want ErrIncompatibleSketches", err)
	}
	// Same epochs, different mappings: also rejected.
	same, _ := ddsketch.New(0.02)
	_ = same.Add(1)
	plain, _ := ddsketch.New(0.01)
	if err := plain.MergeWith(same); !errors.Is(err, ddsketch.ErrIncompatibleSketches) {
		t.Errorf("plain merge across accuracies: err = %v, want ErrIncompatibleSketches", err)
	}

	// A plain sketch never opted into collapsing: absorbing a coarser
	// peer would silently degrade its α in place, so it keeps the
	// historical rejection even when the lineage matches.
	plainReceiver, _ := ddsketch.New(0.01)
	_ = plainReceiver.Add(1)
	if err := plainReceiver.MergeWith(s); !errors.Is(err, ddsketch.ErrIncompatibleSketches) {
		t.Errorf("coarser merge into plain receiver: err = %v, want ErrIncompatibleSketches", err)
	}
	if got := plainReceiver.CollapseEpoch(); got != 0 {
		t.Errorf("rejected merge coarsened the receiver to epoch %d", got)
	}
}

// plainMapping strips the Coarsenable capability from a mapping: the
// embedded interface forwards IndexMapping's methods, but the wrapper
// type itself has no Coarsen, so capability checks fail on it.
type plainMapping struct{ mapping.IndexMapping }

// TestCollapseUniformlyRequiresCoarsenableMapping: the explicit
// collapse and the construction option both work through the
// mapping.Coarsenable capability — every mapping the package ships
// collapses, and only a custom mapping without the capability is
// rejected.
func TestCollapseUniformlyRequiresCoarsenableMapping(t *testing.T) {
	// All four built-in mappings coarsen: the explicit collapse degrades
	// α to 2α/(1+α²) whatever the interpolation degree.
	mappings := map[string]mapping.IndexMapping{}
	log, err := mapping.NewLogarithmic(0.01)
	if err != nil {
		t.Fatal(err)
	}
	mappings["log"] = log
	linear, err := mapping.NewLinearlyInterpolated(0.01)
	if err != nil {
		t.Fatal(err)
	}
	mappings["linear"] = linear
	quadratic, err := mapping.NewQuadraticallyInterpolated(0.01)
	if err != nil {
		t.Fatal(err)
	}
	mappings["quadratic"] = quadratic
	cubic, err := mapping.NewCubicallyInterpolated(0.01)
	if err != nil {
		t.Fatal(err)
	}
	mappings["cubic"] = cubic
	for name, m := range mappings {
		s, err := ddsketch.NewSketch(ddsketch.WithMapping(m), ddsketch.WithUniformCollapse(64))
		if err != nil {
			t.Fatalf("WithUniformCollapse + %s mapping: %v", name, err)
		}
		sk := s.(*ddsketch.DDSketch)
		if err := sk.Add(1); err != nil {
			t.Fatal(err)
		}
		if err := sk.CollapseUniformly(); err != nil {
			t.Errorf("CollapseUniformly on %s mapping: %v", name, err)
		}
		want := 2 * 0.01 / (1 + 0.01*0.01)
		if got := sk.RelativeAccuracy(); got != want {
			t.Errorf("%s: α' after collapse = %v, want %v", name, got, want)
		}
	}

	// A custom mapping without the Coarsenable capability keeps the
	// historical rejection on both paths.
	stub := plainMapping{log}
	opaque, err := ddsketch.NewSketch(ddsketch.WithMapping(stub))
	if err != nil {
		t.Fatal(err)
	}
	if err := opaque.(*ddsketch.DDSketch).CollapseUniformly(); !errors.Is(err, ddsketch.ErrCannotCollapse) {
		t.Errorf("CollapseUniformly on non-coarsenable mapping: err = %v, want ErrCannotCollapse", err)
	}
	if _, err := ddsketch.NewSketch(
		ddsketch.WithMapping(stub), ddsketch.WithUniformCollapse(64),
	); !errors.Is(err, ddsketch.ErrInvalidOption) {
		t.Errorf("WithUniformCollapse + non-coarsenable mapping: err = %v, want ErrInvalidOption", err)
	}

	for _, opts := range [][]ddsketch.Option{
		{ddsketch.WithUniformCollapse(1)},
		{ddsketch.WithUniformCollapse(64), ddsketch.WithMaxBins(64)},
		{ddsketch.WithUniformCollapse(64), ddsketch.WithStores(nil, nil)},
		{ddsketch.WithFastDefaults(), ddsketch.WithMapping(linear)},
	} {
		if _, err := ddsketch.NewSketch(opts...); !errors.Is(err, ddsketch.ErrInvalidOption) {
			t.Errorf("invalid option combination: err = %v, want ErrInvalidOption", err)
		}
	}
}

// TestUniformShardedIndependentCollapse exercises the Sharded variant's
// independent per-shard collapse with concurrent writers, readers, and
// mixed-epoch ingest — the scenario CI runs under the race detector.
func TestUniformShardedIndependentCollapse(t *testing.T) {
	s, err := ddsketch.NewSketch(
		ddsketch.WithRelativeAccuracy(0.01),
		ddsketch.WithUniformCollapse(64),
		ddsketch.WithSharding(8),
	)
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers   = 4
		perWriter = 20_000
	)
	// An already-coarse agent payload merged in concurrently, so
	// reconciliation runs against live collapsing shards.
	agent := buildUniform(t, 0.01, 64, datagen.ExpRamp(10_000, 15))
	payload := agent.Encode()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			values := datagen.ExpRamp(perWriter, 10+float64(w))
			for i, v := range values {
				if err := s.Add(v); err != nil {
					t.Error(err)
					return
				}
				if i%5000 == 4999 {
					if err := decodeInto(s, payload); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if _, err := s.Summary(0.5, 0.99); err != nil && !errors.Is(err, ddsketch.ErrEmptySketch) {
				t.Error(err)
				return
			}
			_ = s.Count()
		}
	}()
	wg.Wait()
	<-done

	merges := writers * (perWriter / 5000)
	want := float64(writers*perWriter) + float64(merges)*agent.Count()
	if got := s.Count(); got != want {
		t.Fatalf("Count = %g, want %g", got, want)
	}
	snap := s.Snapshot()
	if snap.CollapseEpoch() == 0 {
		t.Fatal("no shard ever collapsed")
	}
	if bins := snap.NumBins(); bins > 64 {
		t.Errorf("merged NumBins = %d exceeds budget 64", bins)
	}
}
