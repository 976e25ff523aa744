package main

import (
	"fmt"
	"math"
	"net/http"
	"net/url"
	"slices"
	"time"

	"github.com/ddsketch-go/ddsketch"
	"github.com/ddsketch-go/ddsketch/internal/exact"
	"github.com/ddsketch-go/ddsketch/registry"
)

var checkQuantiles = []float64{0.5, 0.9, 0.99}

// summaryQuantiles are the quantiles ddserver's /summary reports by
// default; shadow roll-ups compute the same.
var summaryQuantiles = []float64{0.5, 0.9, 0.95, 0.99}

// shadowAggregate builds a sketch configured as ddserver builds its
// aggregate, on the given clock: traced replays mirror a server's calls
// into it.
func shadowAggregate(c *clock) (*ddsketch.WindowedSharded, error) {
	m, err := agentMapping()
	if err != nil {
		return nil, err
	}
	sk, err := ddsketch.NewSketch(ddsketch.WithMapping(m), ddsketch.WithMaxBins(2048),
		ddsketch.WithSharding(0), ddsketch.WithWindow(interval, windows), ddsketch.WithClock(c.now))
	if err != nil {
		return nil, err
	}
	return sk.(*ddsketch.WindowedSharded), nil
}

// newRegistry builds the keyed registry of keyed-agent, configured as
// ddserver builds its own for query-mix: windowed, budgeted, admitting
// a series on its first write.
func newRegistry(c *clock) (*registry.SketchMap, error) {
	m, err := agentMapping()
	if err != nil {
		return nil, err
	}
	return registry.New(
		registry.WithMaxSketches(budget),
		registry.WithAdmissionThreshold(1),
		registry.WithSketchOptions(ddsketch.WithMapping(m), ddsketch.WithMaxBins(2048)),
		registry.WithKeyWindow(windows, interval, c.now),
	)
}

// counters are the per-layer counts a traced replay reads off the
// system at its end.
type counters struct {
	forwardAttempts, forwardRetries, forwardShed int64
	admitted, evicted                            uint64  // registry, during the replay
	overflow, retained                           float64 // registry weight at the end
}

// registryCounters reads reg's counts since base.
func registryCounters(reg *registry.SketchMap, base registry.Stats) (counters, error) {
	st := reg.Stats()
	all, _, err := reg.RollUp(registry.MatchAll(), 0)
	if err != nil {
		return counters{}, err
	}
	return counters{
		admitted: st.Admitted - base.Admitted,
		evicted:  st.Evicted - base.Evicted,
		overflow: st.OverflowWeight,
		retained: all.Count(),
	}, nil
}

// ingestBench drives the HTTP ingest path. values-bulk (leaf) POSTs
// raw values to a leaf that forwards every closed interval to a root;
// sketch-fanin POSTs encoded agent sketches straight to a root's
// /ingest. Roots run on a clock that never steps, so they keep every
// value for the output check.
type ingestBench struct {
	in   *inputs
	tr   *tracer
	leaf bool

	client *http.Client
	clock  *clock // the leaf's
	root   *node
	edge   *node          // the leaf
	acks   chan time.Time // root /ingest 2xx completions, in order
	next   [clients]int
	acked  [clients][]int64 // acknowledged requests per client and pool entry

	// Traced replays mirror every call into shadows of the leaf's and
	// the root's aggregates; forwarded collects what the shadow leaf
	// ships, and m is the mirror the shadow leaf's rotate hook records
	// its encode into.
	shadowLeaf, shadowRoot *ddsketch.WindowedSharded
	forwarded              [][]byte
	m                      *mirror
}

// ackBuffer holds root acknowledgements until closeInterval collects
// them: one per forwarded interval, and intervals close one at a time.
const ackBuffer = 64

func (b *ingestBench) setup() error {
	b.client = newClient()
	b.clock = &clock{}
	b.acks = make(chan time.Time, ackBuffer)
	b.next = [clients]int{}
	for c := range b.acked {
		b.acked[c] = make([]int64, len(b.in.values))
	}
	var err error
	if b.root, err = startNode(serverConfig(&clock{}), b.wrapRoot); err != nil {
		return err
	}
	nodes := []*node{b.root}
	if b.leaf {
		cfg := serverConfig(b.clock)
		cfg.Forward.URL = b.root.url + "/ingest"
		cfg.Forward.BackoffBase = 50 * time.Millisecond
		var wrap func(http.Handler) http.Handler
		if b.tr.traced() {
			wrap = b.tr.middleware
		}
		if b.edge, err = startNode(cfg, wrap); err != nil {
			return err
		}
		nodes = append(nodes, b.edge)
	}
	if b.tr.traced() {
		if err := b.setupShadows(); err != nil {
			return err
		}
	}
	return ready(b.client, nodes...)
}

func (b *ingestBench) setupShadows() error {
	var err error
	if b.shadowRoot, err = shadowAggregate(&clock{}); err != nil {
		return err
	}
	if !b.leaf {
		return nil
	}
	if b.shadowLeaf, err = shadowAggregate(b.clock); err != nil {
		return err
	}
	b.shadowLeaf.SetRotateHook(func(closed *ddsketch.DDSketch) {
		encode := func() error {
			payload, err := ddsketch.NativeCodec.Encode(closed)
			b.forwarded = append(b.forwarded, payload)
			return err
		}
		if b.m == nil {
			_ = encode()
			return
		}
		_ = b.m.call("codec.encode.native", "ddsketch.drain", 0, encode)
		b.m.setBytes(len(b.forwarded[len(b.forwarded)-1]))
	})
	return nil
}

// wrapRoot adds the root's tracing middleware, and on values-bulk
// signals every acknowledged /ingest, which is how the benchmark sees a
// forwarded interval land.
func (b *ingestBench) wrapRoot(h http.Handler) http.Handler {
	if b.tr.traced() {
		h = b.tr.middleware(h)
	}
	if !b.leaf {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		if r.URL.Path == "/ingest" && sw.status/100 == 2 {
			select {
			case b.acks <- time.Now():
			default:
			}
		}
	})
}

func (b *ingestBench) teardown() {
	if b.edge != nil {
		b.edge.close()
		b.edge = nil
	}
	if b.root != nil {
		b.root.close()
		b.root = nil
	}
	if b.client != nil {
		b.client.CloseIdleConnections()
	}
}

func (b *ingestBench) write(c int) (int, error) {
	i := int(b.in.schedule[(b.next[c]*clients+c)%scheduleLen])
	b.next[c]++
	var target, ctype string
	var body []byte
	want := http.StatusOK
	if b.leaf {
		target, ctype, body = b.edge.url+"/values", "text/plain", b.in.bodies[i]
	} else {
		target, ctype, body, want = b.root.url+"/ingest", b.in.ctypes[i], b.in.payloads[i], http.StatusAccepted
	}
	id := b.tr.begin()
	start := time.Now()
	_, err := send(b.client, http.MethodPost, target, ctype, body, b.tr.header(id), want)
	b.tr.request(id, start, time.Now())
	if err != nil {
		return 0, err
	}
	b.acked[c][i]++
	if b.tr.traced() {
		if err := b.mirrorWrite(id, i); err != nil {
			return 0, err
		}
	}
	return len(b.in.values[i]), nil
}

// mirrorWrite replays the public calls the handler made for pool entry
// i on the shadows, as children of the request's handler span.
func (b *ingestBench) mirrorWrite(id string, i int) error {
	m := b.tr.mirror(id, "ddserver.handler")
	if b.leaf {
		vals := b.in.values[i]
		if err := m.call("ddsketch.addbatch", "ddserver.handler", len(vals), func() error {
			return b.shadowLeaf.AddBatch(vals)
		}); err != nil {
			return err
		}
		return b.tr.attach(m)
	}
	if err := b.mirrorIngest(m, b.in.payloads[i], b.in.ctypes[i]); err != nil {
		return err
	}
	return b.tr.attach(m)
}

// mirrorIngest decodes payload and merges it into the shadow root, as
// the root's /ingest handler does.
func (b *ingestBench) mirrorIngest(m *mirror, payload []byte, ctype string) error {
	codec := ddsketch.CodecByContentType(ctype)
	var sk *ddsketch.DDSketch
	err := m.call("codec.decode."+codec.Name(), "ddserver.handler", 0, func() (err error) {
		sk, err = codec.Decode(payload)
		return err
	})
	if err != nil {
		return err
	}
	m.setBytes(len(payload))
	return m.call("ddsketch.merge", "ddserver.handler", 0, func() error { return b.shadowRoot.MergeWith(sk) })
}

func (b *ingestBench) read(int) error {
	_, err := send(b.client, http.MethodGet, b.root.url+"/quantile?q=0.5,0.9,0.99", "", nil, "", http.StatusOK)
	return err
}

func (b *ingestBench) halfTick() {
	if b.leaf {
		b.edge.tick <- time.Time{}
	}
	b.root.tick <- time.Time{}
}

// closeInterval closes one interval. On values-bulk it steps the leaf's
// clock, drains and rotates the leaf, and waits for the root to
// acknowledge the interval the leaf forwarded; on sketch-fanin it
// drains the root.
func (b *ingestBench) closeInterval() (time.Duration, error) {
	id := b.tr.tick()
	start := time.Now()
	if !b.leaf {
		b.root.settle()
		lag := time.Since(start)
		if b.tr.traced() {
			b.tr.span(id, "tick", "", start, start.Add(lag))
			m := b.tr.mirror(id, "tick")
			_ = m.call("ddsketch.drain", "tick", 0, func() error { b.shadowRoot.Drain(); return nil })
			b.shadowRoot.Drain()
			return lag, b.tr.attach(m)
		}
		return lag, nil
	}
	spooled := func() int64 {
		fs, _ := b.edge.srv.ForwardStats()
		return fs.Spooled
	}
	before := spooled()
	b.clock.advance()
	b.edge.settle()
	for n := spooled() - before; n > 0; n-- {
		select {
		case <-b.acks:
		case <-time.After(5 * time.Second):
			return 0, fmt.Errorf("forwarded interval not acknowledged: %w", errTimeout)
		}
	}
	lag := time.Since(start)
	if b.tr.traced() {
		b.tr.span(id, "tick", "", start, start.Add(lag))
		if err := b.mirrorClose(id); err != nil {
			return 0, err
		}
	}
	return lag, nil
}

// mirrorClose replays an interval close of values-bulk on the shadows:
// the two drains of settle, then the root's decode and merge of what
// the shadow leaf forwarded.
func (b *ingestBench) mirrorClose(id string) error {
	b.m = b.tr.mirror(id, "tick")
	_ = b.m.call("ddsketch.drain", "tick", 0, func() error { b.shadowLeaf.Drain(); return nil })
	m := b.m
	b.m = nil
	b.shadowLeaf.Drain()
	if err := b.tr.attach(m); err != nil {
		return err
	}
	for _, payload := range b.forwarded {
		m := b.tr.mirror(id, "ddserver.handler")
		if err := b.mirrorIngest(m, payload, ddsketch.NativeCodec.ContentType()); err != nil {
			return err
		}
		if err := b.tr.attach(m); err != nil {
			return err
		}
	}
	b.forwarded = b.forwarded[:0]
	return nil
}

// check compares the root with what the clients had acknowledged: the
// count must match exactly, less what the leaf shed, and p50/p90/p99
// must be within α of the exact quantiles of the acknowledged values.
func (b *ingestBench) check() []string {
	var problems []string
	shed := 0.0
	if b.leaf {
		shedWeight, err := b.flush()
		if err != nil {
			return []string{err.Error()}
		}
		shed = shedWeight
	}
	acks := make([]int64, len(b.in.values))
	sent := 0.0
	for i := range acks {
		for c := range b.acked {
			acks[i] += b.acked[c][i]
		}
		sent += float64(acks[i]) * float64(len(b.in.values[i]))
	}
	agg := b.root.srv.Aggregate()
	if got, want := agg.Count(), sent-shed; got != want {
		problems = append(problems, fmt.Sprintf("root count %g, want acknowledged %g minus shed %g", got, sent, shed))
	}
	if b.tr.traced() {
		if got, want := b.shadowRoot.Count(), agg.Count(); got != want {
			problems = append(problems, fmt.Sprintf("shadow root count %g diverged from the root's %g", got, want))
		}
	}
	if shed > 0 {
		// Which values were shed is unknown, so the exact quantiles are.
		return problems
	}
	est, err := agg.Quantiles(checkQuantiles)
	if err != nil {
		return append(problems, fmt.Sprintf("root quantiles: %v", err))
	}
	for j, want := range weightedQuantiles(b.in.values, acks, checkQuantiles) {
		if e := exact.RelativeError(est[j], want); e > alpha*(1+1e-9) {
			problems = append(problems, fmt.Sprintf("root p%g = %g, exact %g: relative error %.4g > α", 100*checkQuantiles[j], est[j], want, e))
		}
	}
	return problems
}

// flush closes the leaf's open interval and waits until its forwarder
// has delivered or shed everything it spooled, returning the shed
// weight.
func (b *ingestBench) flush() (float64, error) {
	settle := func() {
		b.edge.settle()
		if b.tr.traced() {
			b.shadowLeaf.Drain()
			b.shadowLeaf.Drain()
		}
	}
	settle()
	b.clock.advance()
	settle()
	if b.tr.traced() {
		for _, payload := range b.forwarded {
			sk, err := ddsketch.NativeCodec.Decode(payload)
			if err == nil {
				err = b.shadowRoot.MergeWith(sk)
			}
			if err != nil {
				return 0, err
			}
		}
		b.forwarded = b.forwarded[:0]
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		fs, _ := b.edge.srv.ForwardStats()
		if fs.SpoolDepth == 0 && fs.Forwarded+fs.Shed+fs.Rejected == fs.Spooled {
			if fs.Rejected > 0 {
				return 0, fmt.Errorf("root rejected %d forwarded intervals: %s", fs.Rejected, fs.LastError)
			}
			return fs.ShedWeight, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("leaf still forwarding after 10s: %+v: %w", fs, errTimeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (b *ingestBench) counters() (counters, error) {
	if !b.leaf {
		return counters{}, nil
	}
	fs, _ := b.edge.srv.ForwardStats()
	return counters{forwardAttempts: fs.Attempts, forwardRetries: fs.Retries, forwardShed: fs.Shed}, nil
}

// weightedQuantiles returns the exact lower quantiles, in the sense of
// exact.Quantile, of the multiset holding values[i] acks[i] times.
func weightedQuantiles(values [][]float64, acks []int64, qs []float64) []float64 {
	type entry struct {
		v float64
		w int64
	}
	var all []entry
	var n int64
	for i, vs := range values {
		if acks[i] == 0 {
			continue
		}
		for _, v := range vs {
			all = append(all, entry{v, acks[i]})
		}
		n += acks[i] * int64(len(vs))
	}
	slices.SortFunc(all, func(a, b entry) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return 0
	})
	out := make([]float64, len(qs))
	for j, q := range qs {
		rank := int64(math.Floor(1 + q*float64(n-1)))
		var cum int64
		for _, e := range all {
			if cum += e.w; cum >= rank {
				out[j] = e.v
				break
			}
		}
	}
	return out
}

// keyedBench is keyed-agent: an embedder writing straight into a
// windowed registry.SketchMap, with no HTTP in the way.
type keyedBench struct {
	in *inputs
	tr *tracer

	clock   *clock
	reg     *registry.SketchMap
	filters []registry.Filter
	next    [clients]int
	reads   [clients]int
	added   [clients][]int64 // values added per client, by the generation read before the call
}

func (b *keyedBench) setup() error {
	b.clock = &clock{}
	b.next, b.reads, b.added = [clients]int{}, [clients]int{}, [clients][]int64{}
	b.filters = b.filters[:0]
	for _, s := range b.in.filters {
		f, err := registry.ParseFilter(s)
		if err != nil {
			return err
		}
		b.filters = append(b.filters, f)
	}
	var err error
	b.reg, err = newRegistry(b.clock)
	return err
}

func (b *keyedBench) teardown() { b.reg = nil }

func (b *keyedBench) write(c int) (int, error) {
	p := (b.next[c]*clients + c) % zipfLen
	b.next[c]++
	key, batch := b.in.series[b.in.zipf[p]], b.in.keyedBatchAt(p)
	gen := b.clock.gen()
	var err error
	if b.tr.traced() {
		err = b.tracedWrite(key, batch)
	} else {
		id := b.tr.begin()
		start := time.Now()
		var ls registry.LabelSet
		if ls, err = registry.ParseLabelSet(key); err == nil {
			err = b.reg.AddBatch(ls, batch)
		}
		b.tr.request(id, start, time.Now())
	}
	if err != nil {
		return 0, err
	}
	for int64(len(b.added[c])) <= gen {
		b.added[c] = append(b.added[c], 0)
	}
	b.added[c][gen] += int64(len(batch))
	return len(batch), nil
}

// tracedWrite times the label parse and the add as the request's two
// children. Whether the series was live (a warm add) or not (a cold
// add: admission, install, eviction) is looked up between the two and
// left out of the request's time.
func (b *keyedBench) tracedWrite(key string, batch []float64) error {
	id := b.tr.begin()
	t0 := time.Now()
	ls, err := registry.ParseLabelSet(key)
	t1 := time.Now()
	if err != nil {
		return err
	}
	_, warm := b.reg.Get(ls, 1)
	t2 := time.Now()
	err = b.reg.AddBatch(ls, batch)
	t3 := t1.Add(time.Since(t2))
	name, values := "registry.addbatch.cold", 0
	if warm {
		name, values = "registry.addbatch.warm", len(batch)
	}
	b.tr.request(id, t0, t3)
	b.tr.span(id, "registry.parse_labels", "request", t0, t1)
	b.tr.add(span{Req: id, Name: name, Parent: "request", Start: b.tr.ns(t1), End: b.tr.ns(t3), Values: values})
	return err
}

// read rolls up one hot series' 1% group over three intervals; reads
// cycle through the groups of the hottest series, so that their cost
// does not hang on how many live series one group happens to hold.
func (b *keyedBench) read(c int) error {
	f := b.filters[(b.reads[c]*clients+c)%len(b.filters)]
	b.reads[c]++
	_, _, err := b.reg.RollUpSummary(f, 3, checkQuantiles...)
	return err
}

func (b *keyedBench) halfTick() {}

func (b *keyedBench) closeInterval() (time.Duration, error) {
	id := b.tr.tick()
	start := time.Now()
	b.clock.advance()
	rotate := time.Now()
	b.reg.Rotate()
	end := time.Now()
	if b.tr.traced() {
		b.tr.span(id, "tick", "", start, end)
		b.tr.span(id, "registry.rotate", "tick", rotate, end)
	}
	return end.Sub(start), nil
}

// check requires the budget to hold and the match-all roll-up to hold
// no more than was added, and at least what was added in the intervals
// the windows still retain: older intervals may have aged out, unless
// eviction moved them into the unwindowed overflow.
func (b *keyedBench) check() []string {
	var problems []string
	if live := b.reg.LiveKeys(); live > budget {
		problems = append(problems, fmt.Sprintf("%d live series over the budget of %d", live, budget))
	}
	all, _, err := b.reg.RollUp(registry.MatchAll(), 0)
	if err != nil {
		return append(problems, fmt.Sprintf("match-all roll-up: %v", err))
	}
	var total, recent int64
	for c := range b.added {
		total1, recent1 := retainedBounds(b.added[c], b.clock.gen())
		total += total1
		recent += recent1
	}
	if got := all.Count(); got < float64(recent) || got > float64(total) {
		problems = append(problems, fmt.Sprintf("match-all roll-up holds %g values, want between %d retained and %d added", got, recent, total))
	}
	return problems
}

// retainedBounds sums values added by generation: all of them, and
// those added in the generations a window ring at generation now still
// retains.
func retainedBounds(byGen []int64, now int64) (total, recent int64) {
	for gen, v := range byGen {
		total += v
		if int64(gen) > now-windows {
			recent += v
		}
	}
	return total, recent
}

func (b *keyedBench) counters() (counters, error) {
	return registryCounters(b.reg, registry.Stats{})
}

// mixBench is query-mix: one ddserver with a windowed keyed registry,
// pre-populated past its budget, with client 0 writing unkeyed and
// keyed batches while client 1 cycles through the read endpoints.
type mixBench struct {
	in     *inputs
	tr     *tracer
	prepop int // series POSTed at set-up

	client *http.Client
	clock  *clock
	srv    *node
	reads  []string
	next   [clients]int
	readN  int
	keyed  []int64 // keyed values acknowledged, by the generation read before the request

	// Traced replays mirror every call into shadows of the server's
	// aggregate and registry; regBase is the registry's state after
	// pre-population.
	shadowAgg *ddsketch.WindowedSharded
	shadowReg *registry.SketchMap
	filter    registry.Filter
	regBase   registry.Stats
}

func (b *mixBench) setup() error {
	b.client = newClient()
	b.clock = &clock{}
	b.next, b.readN, b.keyed = [clients]int{}, 0, nil
	b.reads = []string{
		"/quantile?q=0.5,0.9,0.99&window=2",
		"/summary?window=6",
		"/summary?filter=" + url.QueryEscape(b.in.filters[0]) + "&window=3",
		"/summary?filter=*",
		"/sketch?format=native",
	}
	cfg := serverConfig(b.clock)
	cfg.RegistryWindows = windows
	cfg.RegistryInterval = interval
	cfg.RegistrySketches = budget
	cfg.RegistryAdmission = 1
	var wrap func(http.Handler) http.Handler
	if b.tr.traced() {
		wrap = b.tr.middleware
		var err error
		if b.shadowAgg, err = shadowAggregate(b.clock); err != nil {
			return err
		}
		if b.shadowReg, err = newRegistry(b.clock); err != nil {
			return err
		}
		if b.filter, err = registry.ParseFilter(b.in.filters[0]); err != nil {
			return err
		}
	}
	var err error
	if b.srv, err = startNode(cfg, wrap); err != nil {
		return err
	}
	if err := ready(b.client, b.srv); err != nil {
		return err
	}
	return b.populate()
}

// populate POSTs one keyed batch for each of the first prepop series,
// past the registry's budget, so that set-up already evicts into
// overflow. Replays send them from one client, in order, so the shadow
// registry can follow.
func (b *mixBench) populate() error {
	bodies := b.in.prepop[:b.prepop]
	n := clients
	if b.tr != nil {
		n = 1
	}
	errs := make(chan error, n)
	for c := 0; c < n; c++ {
		go func() {
			for i := c; i < len(bodies); i += n {
				if _, err := send(b.client, http.MethodPost, b.srv.url+"/values", "text/plain", bodies[i], "", http.StatusOK); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	var first error
	for c := 0; c < n; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return first
	}
	b.keyed = append(b.keyed, int64(len(bodies)*keyedBatch))
	// One unkeyed batch too, so that no read of the unkeyed plane finds
	// it empty before the writer's first batch lands.
	if _, err := send(b.client, http.MethodPost, b.srv.url+"/values", "text/plain", b.in.bodies[0], "", http.StatusOK); err != nil {
		return err
	}
	if !b.tr.traced() {
		return nil
	}
	if err := b.shadowAgg.AddBatch(b.in.values[0]); err != nil {
		return err
	}
	for i := range bodies {
		ls, err := registry.ParseLabelSet(b.in.series[b.in.prepopSeries[i]])
		if err == nil {
			err = b.shadowReg.AddBatch(ls, b.in.keyedBatchAt(i))
		}
		if err != nil {
			return err
		}
	}
	b.regBase = b.shadowReg.Stats()
	return nil
}

func (b *mixBench) teardown() {
	if b.srv != nil {
		b.srv.close()
		b.srv = nil
	}
	if b.client != nil {
		b.client.CloseIdleConnections()
	}
}

// write alternates an unkeyed batch and a keyed batch.
func (b *mixBench) write(c int) (int, error) {
	k := b.next[c]
	b.next[c]++
	keyed := k%2 == 1
	var body []byte
	var vals []float64
	i := int(b.in.schedule[(k/2)%scheduleLen])
	if keyed {
		i = (k / 2) % keyedBodies
		body, vals = b.in.keyed[i], b.in.keyedVals[i]
	} else {
		body, vals = b.in.bodies[i], b.in.values[i]
	}
	gen := b.clock.gen()
	id := b.tr.begin()
	start := time.Now()
	_, err := send(b.client, http.MethodPost, b.srv.url+"/values", "text/plain", body, b.tr.header(id), http.StatusOK)
	b.tr.request(id, start, time.Now())
	if err != nil {
		return 0, err
	}
	if keyed {
		for int64(len(b.keyed)) <= gen {
			b.keyed = append(b.keyed, 0)
		}
		b.keyed[gen] += int64(len(vals))
	}
	if b.tr.traced() {
		if err := b.mirrorWrite(id, keyed, i, vals); err != nil {
			return 0, err
		}
	}
	return len(vals), nil
}

func (b *mixBench) mirrorWrite(id string, keyed bool, i int, vals []float64) error {
	m := b.tr.mirror(id, "ddserver.handler")
	if !keyed {
		if err := m.call("ddsketch.addbatch", "ddserver.handler", len(vals), func() error {
			return b.shadowAgg.AddBatch(vals)
		}); err != nil {
			return err
		}
		return b.tr.attach(m)
	}
	var ls registry.LabelSet
	if err := m.call("registry.parse_labels", "ddserver.handler", 0, func() (err error) {
		ls, err = registry.ParseLabelSet(b.in.series[b.in.zipf[i]])
		return err
	}); err != nil {
		return err
	}
	name, values := "registry.addbatch.cold", 0
	if _, warm := b.shadowReg.Get(ls, 1); warm {
		name, values = "registry.addbatch.warm", len(vals)
	}
	if err := m.call(name, "ddserver.handler", values, func() error { return b.shadowReg.AddBatch(ls, vals) }); err != nil {
		return err
	}
	return b.tr.attach(m)
}

func (b *mixBench) read(int) error {
	k := b.readN
	b.readN++
	id := b.tr.begin()
	start := time.Now()
	_, err := send(b.client, http.MethodGet, b.srv.url+b.reads[k%len(b.reads)], "", nil, b.tr.header(id), http.StatusOK)
	b.tr.request(id, start, time.Now())
	if err != nil || !b.tr.traced() {
		return err
	}
	return b.mirrorRead(id, k%len(b.reads))
}

// mirrorRead replays read kind k (an index into b.reads) on the shadows.
func (b *mixBench) mirrorRead(id string, k int) error {
	m := b.tr.mirror(id, "ddserver.handler")
	var err error
	switch k {
	case 0:
		err = m.call("ddsketch.trailing", "ddserver.handler", 0, func() error {
			_, err := b.shadowAgg.Trailing(2).Quantiles(checkQuantiles)
			return err
		})
	case 1:
		err = m.call("ddsketch.trailing", "ddserver.handler", 0, func() error {
			_, err := b.shadowAgg.TrailingSummary(windows, summaryQuantiles...)
			return err
		})
	case 2:
		err = m.call("registry.rollup.filtered", "ddserver.handler", 0, func() error {
			_, _, err := b.shadowReg.RollUpSummary(b.filter, 3, summaryQuantiles...)
			return err
		})
	case 3:
		err = m.call("registry.rollup.all", "ddserver.handler", 0, func() error {
			_, _, err := b.shadowReg.RollUpSummary(registry.MatchAll(), windows, summaryQuantiles...)
			return err
		})
	case 4:
		var snap *ddsketch.DDSketch
		_ = m.call("ddsketch.trailing", "ddserver.handler", 0, func() error { snap = b.shadowAgg.Trailing(windows); return nil })
		var payload []byte
		err = m.call("codec.encode.native", "ddserver.handler", 0, func() (err error) {
			payload, err = ddsketch.NativeCodec.Encode(snap)
			return err
		})
		m.setBytes(len(payload))
	}
	if err != nil {
		return err
	}
	return b.tr.attach(m)
}

func (b *mixBench) halfTick() { b.srv.tick <- time.Time{} }

func (b *mixBench) closeInterval() (time.Duration, error) {
	id := b.tr.tick()
	start := time.Now()
	b.clock.advance()
	b.srv.settle()
	lag := time.Since(start)
	if !b.tr.traced() {
		return lag, nil
	}
	b.tr.span(id, "tick", "", start, start.Add(lag))
	m := b.tr.mirror(id, "tick")
	_ = m.call("ddsketch.drain", "tick", 0, func() error { b.shadowAgg.Drain(); return nil })
	_ = m.call("registry.rotate", "tick", 0, func() error { b.shadowReg.Rotate(); return nil })
	b.shadowAgg.Drain()
	b.shadowReg.Rotate()
	return lag, b.tr.attach(m)
}

// check requires filter=* to hold no more keyed values than were
// acknowledged, and at least those acknowledged in the intervals the
// registry's windows still retain.
func (b *mixBench) check() []string {
	got, err := summaryCount(b.client, b.srv.url+"/summary?filter=*")
	if err != nil {
		return []string{fmt.Sprintf("filter=* roll-up: %v", err)}
	}
	var problems []string
	total, recent := retainedBounds(b.keyed, b.clock.gen())
	if got < float64(recent) || got > float64(total) {
		problems = append(problems, fmt.Sprintf("filter=* holds %g keyed values, want between %d retained and %d acknowledged", got, recent, total))
	}
	if b.tr.traced() {
		all, _, err := b.shadowReg.RollUp(registry.MatchAll(), 0)
		if err != nil {
			return append(problems, err.Error())
		}
		if all.Count() != got {
			problems = append(problems, fmt.Sprintf("shadow registry holds %g keyed values, the server %g", all.Count(), got))
		}
	}
	return problems
}

func (b *mixBench) counters() (counters, error) {
	if !b.tr.traced() {
		return counters{}, nil
	}
	return registryCounters(b.shadowReg, b.regBase)
}
