// Command bench is the repository's end-to-end benchmark. It runs the
// ddserver aggregation tier, or the keyed registry as a library, in
// this process under one of four workloads, checks the outputs, and
// prints every metric as a "name value unit" line followed by one JSON
// object on the last line:
//
//	bash bench/run.sh --workload values-bulk --seed 1 --seconds 10 --trace 0
//
// --trace 1 replaces the end-to-end run with a traced replay that
// reports per-layer metrics and writes its spans to a JSON file. See
// README.md for the workloads, the metrics and their calibration.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
)

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string // traced runs write their spans here

	// quick shrinks set-up repetitions, query-mix pre-population and
	// trace replays, for the smoke test.
	quick bool
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "values-bulk", "workload to run: values-bulk, sketch-fanin, keyed-agent or query-mix")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured time of the run, warm-up and set-up excluded")
	flag.IntVar(&trace, "trace", 0, "1 replaces the end-to-end run with a traced replay reporting per-layer metrics")
	flag.StringVar(&cfg.spans, "spans", "", "file a traced run writes its spans to (default .bench_build/spans-<workload>.json)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	if cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", "spans-"+cfg.workload+".json")
	}
	in, err := generate(cfg.workload, cfg.seed)
	if err == nil {
		var res *result
		if res, err = run(cfg, in, os.Stdout); err == nil && !res.correct() {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run runs the workload on the generated inputs and prints its report.
func run(cfg config, in *inputs, out io.Writer) (*result, error) {
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(out, "nproc %d GOMAXPROCS %d go %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(out, "inputs_sha256 %s\n", in.sha256)
	var res *result
	var err error
	if cfg.trace {
		res, err = traceRun(cfg, in)
	} else {
		w, p := newWorkload(cfg, in, nil)
		res, err = measure(cfg.seconds, w, p)
	}
	if err != nil {
		return nil, err
	}
	metrics := endToEnd
	if cfg.trace {
		metrics = perLayer
	}
	if err := res.print(out, metrics); err != nil {
		return nil, err
	}
	return res, nil
}

// newWorkload builds the named workload and its end-to-end plan; tr is
// nil except in traced replays.
func newWorkload(cfg config, in *inputs, tr *tracer) (workload, plan) {
	// Set-ups take well under a millisecond except query-mix's, which
	// POSTs its 20,000 series; at that scale the machine's noise is
	// wide, and a median over 201 of them holds within a few percent.
	p := plan{setups: 201, openRate: openRate[cfg.workload]}
	if cfg.quick {
		p.setups = 1
	}
	switch cfg.workload {
	case "values-bulk":
		return &ingestBench{in: in, tr: tr, leaf: true}, p
	case "sketch-fanin":
		return &ingestBench{in: in, tr: tr}, p
	case "keyed-agent":
		return &keyedBench{in: in, tr: tr}, p
	default:
		prepop := len(in.prepop)
		if cfg.quick {
			prepop /= 10
		}
		p.setups, p.mixed, p.heapAtSetup = min(p.setups, 3), true, true
		return &mixBench{in: in, tr: tr, prepop: prepop}, p
	}
}

// openRate is the request rate of each HTTP write workload's open-loop
// phase: about half the closed-loop capacity measured at calibration
// (README.md), fixed so that every commit is offered the same load.
var openRate = map[string]float64{
	"values-bulk":  1000,
	"sketch-fanin": 1000,
}

// metricDef names one reported metric and its unit. BENCHMARK.json
// lists the same metrics (the smoke test checks that they agree) with
// their direction and regression bounds.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"ingest_values_per_s", "1/s"},
	{"write_p50_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"query_p50_ms", "ms"},
	{"freshness_p50_ms", "ms"},
	{"alloc_bytes_per_value", "bytes"},
	{"heap_live_bytes", "bytes"},
	{"setup_s", "s"},
}

// result is one run's report.
type result struct {
	attempted, failed int64
	problems          []string // failed output checks and operations
	notes             []string // context lines printed before the metrics
	values            map[string]float64
}

func (r *result) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

// print writes the report: notes, problems, one "name value unit" line
// per metric, then the JSON object, both from the same metric table.
func (r *result) print(w io.Writer, metrics []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), max(r.attempted, 1), r.failed, make(map[string]value, len(metrics))}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "check failed:", p)
	}
	for _, m := range metrics {
		v, ok := r.values[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		fmt.Fprintf(w, "%s %s %s\n", m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit)
		out.Metrics[m.name] = value{v, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
