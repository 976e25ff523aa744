package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// span is one timed interval of a traced replay. Spans of one request
// share Req; Parent names the span of the same request that contains
// this one.
type span struct {
	Req    string `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the replay began
	End    int64  `json:"end_ns"`
	Path   string `json:"path,omitempty"`   // handler spans: the endpoint served
	Values int    `json:"values,omitempty"` // values the call added
	Bytes  int    `json:"bytes,omitempty"`  // encoded sketch size
}

// tracer records the spans of one replay pass in memory. A plain
// tracer (full false) records only each request's round trip, the
// baseline for tracing overhead; a full one also records the handler
// span, through middleware around the server's handler, and the layer
// spans the workload mirrors onto its shadows.
//
// begin, tick and the mirrors run on the single replay goroutine; the
// middleware runs on server goroutines.
type tracer struct {
	full  bool
	epoch time.Time
	reqs  int
	ticks int

	mu      sync.Mutex
	spans   []span
	current string // request id of handler spans whose request carries none: the interval being closed
}

func newTracer(full bool) *tracer { return &tracer{full: full, epoch: time.Now()} }

func (t *tracer) traced() bool { return t != nil && t.full }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) span(req, name, parent string, start, end time.Time) {
	t.add(span{Req: req, Name: name, Parent: parent, Start: t.ns(start), End: t.ns(end)})
}

// begin numbers the next replayed request; "" when not replaying.
func (t *tracer) begin() string {
	if t == nil {
		return ""
	}
	t.reqs++
	return "r" + strconv.Itoa(t.reqs)
}

// header is the id a request carries to the traced handler.
func (t *tracer) header(id string) string {
	if t.traced() {
		return id
	}
	return ""
}

// request records a request's round trip.
func (t *tracer) request(id string, start, end time.Time) {
	if t != nil {
		t.span(id, "request", "", start, end)
	}
}

// tick numbers the next interval close and makes it the request that
// header-less handler spans (the leaf's forwards) belong to.
func (t *tracer) tick() string {
	if !t.traced() {
		return ""
	}
	t.ticks++
	id := "t" + strconv.Itoa(t.ticks)
	t.setCurrent(id)
	return id
}

func (t *tracer) setCurrent(id string) {
	if t.traced() {
		t.mu.Lock()
		t.current = id
		t.mu.Unlock()
	}
}

// middleware records a ddserver.handler span around every replayed
// request and every request the system makes while an interval closes;
// set-up requests go untraced.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		id, parent := r.Header.Get(traceHeader), "request"
		t.mu.Lock()
		defer t.mu.Unlock()
		if id == "" {
			id, parent = t.current, "tick"
		}
		if id == "" {
			return
		}
		t.spans = append(t.spans, span{Req: id, Name: "ddserver.handler", Parent: parent,
			Start: t.ns(start), End: t.ns(end), Path: r.URL.Path})
	})
}

// mirror collects the layer spans of the public calls a handler made,
// replayed on a shadow after the request: attach moves them inside the
// span they explain, keeping their durations and order.
type mirror struct {
	req, under string
	base       time.Time
	spans      []span // times relative to base
}

func (t *tracer) mirror(req, under string) *mirror {
	return &mirror{req: req, under: under, base: time.Now()}
}

// call times fn as a span named name, a child of parent.
func (m *mirror) call(name, parent string, values int, fn func() error) error {
	start := time.Now()
	err := fn()
	end := time.Now()
	m.spans = append(m.spans, span{Req: m.req, Name: name, Parent: parent, Values: values,
		Start: int64(start.Sub(m.base)), End: int64(end.Sub(m.base))})
	return err
}

// setBytes records the payload size of the last call.
func (m *mirror) setBytes(n int) { m.spans[len(m.spans)-1].Bytes = n }

// attach rebases m's spans onto the start of m.under in the same
// request. The handler span is recorded before the server writes the
// end of its response, so it is there by the time the client has read
// it; the wait only covers a scheduler delay.
func (t *tracer) attach(m *mirror) error {
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		t.mu.Lock()
		for i := len(t.spans) - 1; i >= 0; i-- {
			if s := t.spans[i]; s.Req == m.req && s.Name == m.under {
				for _, c := range m.spans {
					c.Start += s.Start
					c.End += s.Start
					t.spans = append(t.spans, c)
				}
				t.mu.Unlock()
				return nil
			}
		}
		t.mu.Unlock()
		if time.Now().After(deadline) {
			return fmt.Errorf("trace: request %s has no %s span", m.req, m.under)
		}
	}
}

// statusWriter remembers the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// replaySize is how many requests a traced replay sends, and how many
// go into one window interval.
type replaySize struct{ ops, perInterval int }

var replays = map[string]replaySize{
	"values-bulk":  {2000, 100},
	"sketch-fanin": {4000, 200},
	"keyed-agent":  {200_000, 10_000},
	"query-mix":    {2000, 100},
}

// replay sends up to ops requests from one client, closing an interval
// every perInterval requests; a mixed workload alternates writes and
// reads. It stops early at the deadline, if there is one, and returns
// how many requests it sent and the gaps (ms) between one request's
// completion and the next one's start, the generator's own lag.
func replay(w workload, tr *tracer, size replaySize, mixed bool, deadline time.Time) (int, []float64, error) {
	var gaps []float64
	var last time.Time
	for k := 0; k < size.ops; k++ {
		if k > 0 && k%size.perInterval == 0 {
			_, err := w.closeInterval()
			tr.setCurrent("")
			if err != nil {
				return k, gaps, err
			}
			last = time.Time{}
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return k, gaps, nil
		}
		start := time.Now()
		if !last.IsZero() {
			gaps = append(gaps, ms(start.Sub(last)))
		}
		var err error
		if mixed && k%2 == 1 {
			err = w.read(0)
		} else {
			_, err = w.write(0)
		}
		if err != nil {
			return k, gaps, err
		}
		last = time.Now()
	}
	return size.ops, gaps, nil
}

// traceRun replays the workload twice on fresh systems, once with a
// plain tracer and once fully traced, and reports the per-layer metrics
// of the traced pass. Both passes send the same requests in the same
// order; with one client the shadows then evolve exactly as the servers
// do, so their admission and eviction decisions match.
func traceRun(cfg config, in *inputs) (*result, error) {
	size := replays[cfg.workload]
	if cfg.quick {
		size.ops /= 10
	}
	_, p := newWorkload(cfg, in, nil)
	r := &result{values: map[string]float64{}}
	// pass replays on a fresh system; limit, if not zero, bounds the
	// replay's duration.
	pass := func(tr *tracer, size replaySize, limit time.Duration) (int, []float64, counters, error) {
		w, _ := newWorkload(cfg, in, tr)
		defer w.teardown()
		if err := w.setup(); err != nil {
			return 0, nil, counters{}, fmt.Errorf("set-up: %w", err)
		}
		var deadline time.Time
		if limit > 0 {
			deadline = time.Now().Add(limit)
		}
		n, gaps, err := replay(w, tr, size, p.mixed, deadline)
		r.attempted += int64(n)
		if err != nil {
			r.failed++
			r.problems = append(r.problems, err.Error())
		}
		cnt, err := w.counters()
		if err != nil {
			r.problems = append(r.problems, err.Error())
		}
		r.problems = append(r.problems, w.check()...)
		return n, gaps, cnt, nil
	}

	plain := newTracer(false)
	n, gaps, _, err := pass(plain, size, time.Duration(cfg.seconds/2*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	tr := newTracer(true)
	size.ops = n
	_, _, cnt, err := pass(tr, size, 0)
	if err != nil {
		return nil, err
	}
	r.notes = append(r.notes, fmt.Sprintf("replayed %d requests, %d spans", n, len(tr.spans)))
	layerMetrics(r, tr.spans, plain.spans, gaps, cnt)
	if err := writeSpans(cfg.spans, tr.spans); err != nil {
		return nil, err
	}
	return r, nil
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layers are the timed layers of a traced replay, each reported as
// calls, mean, p50 and p99 per operation in its unit. A ns/value layer
// divides each call's time by the values it added.
var layers = []metricDef{
	{"request", "us"},
	{"transport.self", "us"}, // request minus handler: client, HTTP, loopback
	{"ddserver.handler", "us"},
	{"ddserver.values.self", "us"}, // handler minus its layer calls, per endpoint
	{"ddserver.ingest.self", "us"},
	{"ddserver.query.self", "us"},
	{"ddsketch.addbatch", "ns/value"},
	{"ddsketch.drain", "us"},
	{"ddsketch.merge", "us"},
	{"ddsketch.trailing", "us"},
	{"codec.encode.native", "us"},
	{"codec.decode.native", "us"},
	{"codec.decode.datadog", "us"},
	{"registry.parse_labels", "ns"},
	{"registry.addbatch.warm", "ns/value"},
	{"registry.addbatch.cold", "us"},
	{"registry.rotate", "us"},
	{"registry.rollup.filtered", "us"},
	{"registry.rollup.all", "us"},
	{"tick", "us"}, // one interval close, as the pacer measures it
}

// counts are the per-layer metrics that are not timed layers.
var counts = []metricDef{
	{"codec.bytes_per_sketch", "bytes"},
	{"forwarder.attempts", "count"},
	{"forwarder.retries", "count"},
	{"forwarder.shed", "count"},
	{"registry.admit_ratio", "ratio"},
	{"registry.evictions_per_kvalue", "1/kvalue"},
	{"registry.overflow_share", "ratio"},
	{"loadgen.late_p99", "ms"},
	{"trace.explained_share", "ratio"},
	{"trace.overhead_pct", "%"},
}

var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l.name + ".calls", "count"},
			metricDef{l.name + ".mean", l.unit}, metricDef{l.name + ".p50", l.unit}, metricDef{l.name + ".p99", l.unit})
	}
	return append(defs, counts...)
}()

// layerMetrics computes every per-layer metric from the traced pass's
// spans, the plain pass's request spans and gaps, and the counters.
func layerMetrics(r *result, spans, plain []span, gaps []float64, cnt counters) {
	units := make(map[string]string, len(layers))
	for _, l := range layers {
		units[l.name] = l.unit
	}
	obs := make(map[string][]float64)
	observe := func(name string, ns int64, values int) {
		x := float64(ns)
		switch units[name] {
		case "us":
			x /= 1e3
		case "ns/value":
			x /= float64(max(values, 1))
		}
		obs[name] = append(obs[name], x)
	}

	byReq := make(map[string][]span)
	bytes, sketches := 0, 0
	registryValues := 0
	for _, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], s)
		observe(s.Name, s.End-s.Start, s.Values)
		if s.Bytes > 0 {
			bytes += s.Bytes
			sketches++
		}
		if s.Name == "registry.addbatch.warm" || s.Name == "registry.addbatch.cold" {
			registryValues += keyedBatch
		}
	}
	// Self times: a handler's time less its layer calls, a request's
	// time less its handler. explained is the share of server time (of
	// request time, where no server is involved) the layer calls cover.
	var covered, outer int64
	for _, group := range byReq {
		children := make(map[string]int64)
		var request, handler *span
		for i := range group {
			s := &group[i]
			children[s.Parent] += s.End - s.Start
			switch s.Name {
			case "request":
				request = s
			case "ddserver.handler":
				handler = s
			}
		}
		switch {
		case handler != nil:
			d := handler.End - handler.Start
			self := d - children["ddserver.handler"]
			kind := "query"
			switch handler.Path {
			case "/values":
				kind = "values"
			case "/ingest":
				kind = "ingest"
			}
			observe("ddserver."+kind+".self", self, 0)
			covered += children["ddserver.handler"]
			outer += d
			if request != nil {
				observe("transport.self", request.End-request.Start-d, 0)
			}
		case request != nil:
			covered += children["request"]
			outer += request.End - request.Start
		}
	}

	for _, l := range layers {
		xs := obs[l.name]
		r.values[l.name+".calls"] = float64(len(xs))
		r.values[l.name+".mean"] = mean(xs)
		r.values[l.name+".p50"] = quantile(xs, 0.5)
		r.values[l.name+".p99"] = quantile(xs, 0.99)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var plainReq []float64
	for _, s := range plain {
		plainReq = append(plainReq, float64(s.End-s.Start)/1e3)
	}
	r.values["codec.bytes_per_sketch"] = ratio(float64(bytes), float64(sketches))
	r.values["forwarder.attempts"] = float64(cnt.forwardAttempts)
	r.values["forwarder.retries"] = float64(cnt.forwardRetries)
	r.values["forwarder.shed"] = float64(cnt.forwardShed)
	r.values["registry.admit_ratio"] = ratio(float64(cnt.admitted), float64(len(obs["registry.addbatch.cold"])))
	r.values["registry.evictions_per_kvalue"] = ratio(float64(cnt.evicted), float64(registryValues)/1000)
	r.values["registry.overflow_share"] = ratio(cnt.overflow, cnt.retained)
	r.values["loadgen.late_p99"] = quantile(gaps, 0.99)
	r.values["trace.explained_share"] = ratio(float64(covered), float64(outer))
	r.values["trace.overhead_pct"] = 100 * (ratio(mean(obs["request"]), mean(plainReq)) - 1)
}
