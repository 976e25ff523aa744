package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := generate(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w, 1)
		c, _ := generate(w, 2)
		if a.sha256 != b.sha256 {
			t.Errorf("%s: seed 1 hashed to %s, then %s", w, a.sha256, b.sha256)
		}
		if a.sha256 == c.sha256 {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", w)
		}
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	compare := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(listed), len(defs))
			return
		}
		for i, m := range listed {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd)
	compare("per_layer", b.PerLayer, perLayer)
}

// TestSmoke runs every workload briefly, end to end and traced, and
// checks that each run passes its output checks and reports every
// metric BENCHMARK.json names, and that the trace is well formed.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range workloads {
		in, err := generate(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w, seed: 1, seconds: 0.75, trace: trace, quick: true,
				spans: filepath.Join(t.TempDir(), "spans.json")}
			var out bytes.Buffer
			res, err := run(cfg, in, &out)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w, trace, err)
			}
			if !res.correct() {
				t.Errorf("%s trace=%t: incorrect run:\n%s", w, trace, out.String())
			}
			listed := b.EndToEnd
			if trace {
				listed = b.PerLayer
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%t: last line is not JSON: %v", w, trace, err)
			}
			textUnits := make(map[string]string)
			for _, line := range lines {
				if f := strings.Fields(line); len(f) == 3 {
					textUnits[f[0]] = f[2]
				}
			}
			for _, m := range listed {
				if got, ok := last.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s (%s) missing from the JSON line", w, trace, m.Name, m.Unit)
				}
				if textUnits[m.Name] != m.Unit {
					t.Errorf("%s trace=%t: metric %s (%s) missing from the text lines", w, trace, m.Name, m.Unit)
				}
			}
			if trace {
				checkSpans(t, w, cfg.spans, res)
			}
		}
	}
}

func checkSpans(t *testing.T, workload, path string, res *result) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("%s: spans do not parse: %v", workload, err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", workload)
	}
	names := make(map[[2]string]bool)
	for _, s := range spans {
		names[[2]string{s.Req, s.Name}] = true
	}
	for _, s := range spans {
		if s.Parent != "" && !names[[2]string{s.Req, s.Parent}] {
			t.Errorf("%s: span %s of %s names a missing parent %s", workload, s.Name, s.Req, s.Parent)
			break
		}
		if s.End < s.Start {
			t.Errorf("%s: span %s of %s ends before it starts", workload, s.Name, s.Req)
			break
		}
	}
	for _, self := range []string{"transport.self", "ddserver.values.self", "ddserver.ingest.self", "ddserver.query.self"} {
		if p50 := res.values[self+".p50"]; p50 < 0 {
			t.Errorf("%s: median %s time is negative: %g us", workload, self, p50)
		}
	}
}
