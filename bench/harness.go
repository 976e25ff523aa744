package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ddsketch-go/ddsketch/internal/datagen"
	"github.com/ddsketch-go/ddsketch/internal/ddserver"
	"github.com/ddsketch-go/ddsketch/internal/exact"
)

const (
	// clients is the number of load goroutines, and of HTTP connections
	// to each server: the core count of the 2-CPU box the benchmark was
	// calibrated on, kept fixed so the load is the same everywhere.
	clients  = 2
	alpha    = 0.01
	interval = 200 * time.Millisecond // window interval of every windowed layer
	windows  = 6
	budget   = 10_000 // live keyed series
)

// clock is a server clock the benchmark steps one window interval at a
// time, so windows rotate exactly when the benchmark closes an
// interval, whatever the machine's speed. A clock that is never stepped
// keeps a server in one window forever.
type clock struct{ steps atomic.Int64 }

var clockEpoch = time.Unix(1_700_000_000, 0)

func (c *clock) now() time.Time { return clockEpoch.Add(time.Duration(c.steps.Load()) * interval) }
func (c *clock) advance()       { c.steps.Add(1) }
func (c *clock) gen() int64     { return c.steps.Load() }

// serverConfig is ddserver's default configuration on the benchmark's
// interval grid and clock.
func serverConfig(c *clock) ddserver.Config {
	cfg := ddserver.DefaultConfig()
	cfg.Alpha = alpha
	cfg.Interval = interval
	cfg.Windows = windows
	cfg.Now = c.now
	return cfg
}

// node is one ddserver running on a loopback listener, with its drain
// loop fed by a tick channel the benchmark owns.
type node struct {
	srv       *ddserver.Server
	url       string
	hs        *http.Server
	tick      chan time.Time
	stop      chan struct{}
	loopDone  chan struct{}
	serveDone chan struct{}
}

// startNode builds a server from cfg and serves it, wrapping its
// handler with wrap when that is non-nil.
func startNode(cfg ddserver.Config, wrap func(http.Handler) http.Handler) (*node, error) {
	srv, err := ddserver.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	n := &node{
		srv:       srv,
		url:       "http://" + ln.Addr().String(),
		hs:        &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		tick:      make(chan time.Time),
		stop:      make(chan struct{}),
		loopDone:  make(chan struct{}),
		serveDone: make(chan struct{}),
	}
	go func() {
		defer close(n.serveDone)
		_ = n.hs.Serve(ln)
	}()
	go func() {
		defer close(n.loopDone)
		srv.RunDrainLoop(n.tick, n.stop)
	}()
	return n, nil
}

// settle ticks the drain loop twice. The loop takes the second tick
// only after it has drained and rotated for the first, so settle
// returns once the first tick's work is done.
func (n *node) settle() {
	n.tick <- time.Time{}
	n.tick <- time.Time{}
}

func (n *node) close() {
	close(n.stop)
	<-n.loopDone
	_ = n.hs.Close()
	<-n.serveDone
	n.srv.Close()
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
}

// traceHeader carries a replayed request's id to the traced handler.
const traceHeader = "X-Bench-Req"

// send issues one request and reads the whole response, returning an
// error for transport failures and for any status but want.
func send(c *http.Client, method, url, ctype string, body []byte, id string, want int) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if id != "" {
		req.Header.Set(traceHeader, id)
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

func ready(c *http.Client, nodes ...*node) error {
	for _, n := range nodes {
		if _, err := send(c, http.MethodGet, n.url+"/healthz", "", nil, "", http.StatusOK); err != nil {
			return err
		}
	}
	return nil
}

// summaryCount reads the count of a /summary response.
func summaryCount(c *http.Client, url string) (float64, error) {
	body, err := send(c, http.MethodGet, url, "", nil, "", http.StatusOK)
	if err != nil {
		return 0, err
	}
	var resp struct {
		Summary struct {
			Count float64 `json:"count"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, err
	}
	return resp.Summary.Count, nil
}

// maxSamples bounds the observations one samples value keeps.
const maxSamples = 1 << 17

// samples keeps a uniform reservoir of at most maxSamples observations,
// so percentiles of a long phase cost bounded memory and stay unbiased.
type samples struct {
	xs  []float64
	n   int64
	rng *datagen.RNG
}

func newSamples(seed uint64) *samples { return &samples{rng: datagen.NewRNG(seed)} }

func (s *samples) add(x float64) {
	s.n++
	if len(s.xs) < maxSamples {
		s.xs = append(s.xs, x)
		return
	}
	if j := s.rng.Uint64() % uint64(s.n); j < maxSamples {
		s.xs[j] = x
	}
}

// quantile returns the exact lower q-quantile of the kept observations,
// or 0 when there are none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return exact.Quantile(sorted, q)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return exact.Mean(xs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// op is one client request: it returns the values it delivered.
type op func(client int) (values int, err error)

// tally is one client's record of a phase.
type tally struct {
	ops, failed, values int64
	lat                 *samples // ms
	errs                []error  // the first few failures, for the report
}

func (t *tally) record(lat time.Duration, values int, err error) {
	t.ops++
	if err != nil {
		t.failed++
		if len(t.errs) < 3 {
			t.errs = append(t.errs, err)
		}
		return
	}
	t.values += int64(values)
	t.lat.add(ms(lat))
}

// merged folds per-client tallies into one.
func merged(ts ...*tally) *tally {
	out := &tally{lat: &samples{}}
	for _, t := range ts {
		out.ops += t.ops
		out.failed += t.failed
		out.values += t.values
		out.lat.xs = append(out.lat.xs, t.lat.xs...)
		out.errs = append(out.errs, t.errs...)
	}
	return out
}

// closedLoop runs ops[c] on goroutine c until d has passed: each client
// sends its next request as soon as the previous one completes.
func closedLoop(d time.Duration, ops ...op) []*tally {
	deadline := time.Now().Add(d)
	tallies := make([]*tally, len(ops))
	var wg sync.WaitGroup
	for c, fn := range ops {
		t := &tally{lat: newSamples(uint64(c) + 1)}
		tallies[c] = t
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				start := time.Now()
				if !start.Before(deadline) {
					return
				}
				values, err := fn(c)
				t.record(time.Since(start), values, err)
			}
		}()
	}
	wg.Wait()
	return tallies
}

// openLoop sends rate requests per second for d, whatever the system's
// speed: request i is due at start + i/rate and goes out on client
// i mod clients, late if that client is still busy. Latency is timed
// from the due time on an ideal schedule: each request's measured
// service time queues behind its predecessor's on the same client, so
// a slow response counts against the requests it delays, while the
// generator's own lateness does not (Go's timers wake up to ~1 ms late
// on an idle Linux box, far more than a request takes). late collects
// that lateness, in ms.
func openLoop(d time.Duration, rate float64, fn op) (tallies []*tally, late []float64) {
	n := int(d.Seconds() * rate)
	start := time.Now()
	tallies = make([]*tally, clients)
	lates := make([][]float64, clients)
	var wg sync.WaitGroup
	for c := range tallies {
		t := &tally{lat: newSamples(uint64(c) + 101)}
		tallies[c] = t
		wg.Add(1)
		go func() {
			defer wg.Done()
			var done time.Time // the previous request's completion on the ideal schedule
			for i := c; i < n; i += clients {
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				lates[c] = append(lates[c], ms(sent.Sub(due)))
				values, err := fn(c)
				begin := due
				if done.After(due) {
					begin = done
				}
				done = begin.Add(time.Since(sent))
				t.record(done.Sub(due), values, err)
			}
		}()
	}
	wg.Wait()
	for _, l := range lates {
		late = append(late, l...)
	}
	return tallies, late
}

// pacer is the system's maintenance clock: while running, it ticks
// every half interval, alternating a drain (half) with an interval
// close (closeFn: step the clock, drain and rotate, deliver), and
// records each close's latency when record is set.
type pacer struct {
	half    func()
	closeFn func() (time.Duration, error)

	stop, done chan struct{}
	record     bool

	// Written by the pacer goroutine, read once it has stopped.
	lags   []float64 // ms
	closes int64
	errs   []error
}

func (p *pacer) start(record bool) {
	p.stop, p.done, p.record = make(chan struct{}), make(chan struct{}), record
	go func() {
		defer close(p.done)
		t := time.NewTicker(interval / 2)
		defer t.Stop()
		for i := 1; ; i++ {
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
			if i%2 == 1 {
				p.half()
				continue
			}
			lag, err := p.closeFn()
			p.closes++
			switch {
			case err != nil:
				p.errs = append(p.errs, err)
			case p.record:
				p.lags = append(p.lags, ms(lag))
			}
		}
	}()
}

// pause stops the pacer and waits for its goroutine to exit.
func (p *pacer) pause() {
	close(p.stop)
	<-p.done
}

// workload is one system under test and the requests the benchmark
// drives it with. Its methods other than setup and teardown are called
// between the two; write and read from client goroutines, the interval
// methods from the pacer or the trace replay, check once the load has
// stopped.
type workload interface {
	setup() error
	teardown()
	write(c int) (values int, err error)
	read(c int) error
	halfTick()
	closeInterval() (time.Duration, error)
	check() []string
	counters() (counters, error) // traced replays only
}

// plan shapes a workload's end-to-end run.
type plan struct {
	setups   int     // set-ups timed; setup_s is their median
	openRate float64 // requests/s of the open-loop write phase; 0 for none
	mixed    bool    // client 0 writes while client 1 reads, instead of a read phase

	// heapAtSetup reads heap_live_bytes once set-up is done rather than
	// at the end: for a system whose end state hangs on how many writes
	// landed in the last few intervals, which the machine's speed sets.
	heapAtSetup bool
}

// Phase lengths, as shares of the measured time.
const (
	warmShare = 0.15
	readShare = 0.2
	openShare = 0.5 // of the write time, when there is an open-loop phase

	// Rounds the measured time is split into: up to maxRounds, each
	// measuring at least roundTime, so that intervals close in every
	// round's write phases.
	maxRounds = 10
	roundTime = 2 * time.Second
)

// measure runs one workload end to end and reports every end-to-end
// metric: set-up, then the load phases of runLoad, then the workload's
// output checks.
func measure(seconds float64, w workload, p plan) (*result, error) {
	heapBase := liveHeap()
	setups := make([]float64, p.setups)
	for i := range setups {
		// Each set-up starts from a collected heap, so that none of them
		// is timed reusing, or not, the memory of the one before.
		runtime.GC()
		start := time.Now()
		if err := w.setup(); err != nil {
			w.teardown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = time.Since(start).Seconds()
		if i < len(setups)-1 {
			w.teardown()
		}
	}
	defer w.teardown()
	var heap uint64
	if p.heapAtSetup {
		heap = liveHeap()
	}

	r := runLoad(time.Duration(seconds*float64(time.Second)), w, p)
	r.problems = append(r.problems, w.check()...)
	r.values["setup_s"] = quantile(setups, 0.5)
	if !p.heapAtSetup {
		// The load phases' records are garbage by now, so the heap holds
		// the inputs, which the base reading counted, and the system.
		heap = liveHeap()
	}
	r.values["heap_live_bytes"] = float64(int64(heap) - int64(heapBase))
	return r, nil
}

// liveHeap returns the bytes the heap holds after a full collection.
// It collects twice: the first collection moves sync.Pool contents to
// the pools' victim caches, where they stay reachable until the second.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return mem.HeapAlloc
}

// runLoad drives a set-up workload for total plus a warm-up, in rounds
// of a closed-loop write phase (capacity), an open-loop write phase
// (latency) when the plan has one, and a closed-loop read phase on both
// clients; a mixed plan instead runs one closed-loop phase per round in
// which client 0 writes and client 1 reads. The pacer closes intervals
// during the write phases and pauses for reads, which therefore see the
// state the writes left. Each metric pools the samples of every round:
// interleaving the phases spreads each of them over the whole run, so
// that no metric rests on one stretch of it.
func runLoad(total time.Duration, w workload, p plan) *result {
	writeTime := total
	if !p.mixed {
		writeTime -= time.Duration(readShare * float64(total))
	}
	openTime := time.Duration(0)
	if p.openRate > 0 {
		openTime = time.Duration(openShare * float64(writeTime))
	}
	closedTime := writeTime - openTime

	read := func(c int) (int, error) { return 0, w.read(c) }
	ops := []op{w.write, w.write}
	if p.mixed {
		ops[1] = read
	}
	pc := &pacer{half: w.halfTick, closeFn: w.closeInterval}
	pc.start(false)
	all := closedLoop(time.Duration(warmShare*float64(total)), ops...)
	pc.pause()

	var writeLat, readLat, late []float64
	var closedFor, readFor time.Duration
	var allocs uint64
	var values, readOps int64
	var mem runtime.MemStats
	n := max(1, min(maxRounds, int(total/roundTime)))
	rounds := time.Duration(n)
	for range n {
		pc.start(true)
		runtime.ReadMemStats(&mem)
		allocBase := mem.TotalAlloc
		closed := closedLoop(closedTime/rounds, ops...)
		runtime.ReadMemStats(&mem)
		allocs += mem.TotalAlloc - allocBase
		closedFor += closedTime / rounds
		all = append(all, closed...)
		writes, reads := merged(closed...), []*tally{closed[len(closed)-1]}
		if p.mixed {
			writes = closed[0]
		}
		values += writes.values
		latency := writes
		if openTime > 0 {
			open, lates := openLoop(openTime/rounds, p.openRate, w.write)
			all = append(all, open...)
			latency, late = merged(open...), append(late, lates...)
		}
		pc.pause()
		if !p.mixed {
			// Collect the write phase's garbage first: a collection it
			// made due would otherwise land on whichever reads follow.
			runtime.GC()
			reads = closedLoop((total-writeTime)/rounds, read, read)
			all = append(all, reads...)
			readFor += (total - writeTime) / rounds
		}
		writeLat = append(writeLat, latency.lat.xs...)
		for _, t := range reads {
			readOps += t.ops
			readLat = append(readLat, t.lat.xs...)
		}
	}
	if p.mixed {
		readFor = closedFor
	}

	r := &result{values: map[string]float64{}}
	sum := merged(all...)
	r.attempted, r.failed = sum.ops+pc.closes, sum.failed+int64(len(pc.errs))
	for _, err := range append(sum.errs, pc.errs...) {
		r.problems = append(r.problems, err.Error())
	}
	if len(pc.lags) == 0 {
		r.problems = append(r.problems, "no interval closed during the measured phases")
	}
	r.notes = append(r.notes, fmt.Sprintf("%d rounds; samples: write %d, query %d, interval closes %d",
		n, len(writeLat), len(readLat), len(pc.lags)))
	if late != nil {
		r.notes = append(r.notes, fmt.Sprintf("open loop at %g/s: generator late p50 %.3f ms, p99 %.3f ms",
			p.openRate, quantile(late, 0.5), quantile(late, 0.99)))
	}
	// The tails follow the host more than the code (README.md,
	// Calibration), so they are printed for reading, not gated.
	r.notes = append(r.notes, fmt.Sprintf("tails: write p90 %.4g ms, p99 %.4g ms; query p90 %.4g ms, p99 %.4g ms",
		quantile(writeLat, 0.9), quantile(writeLat, 0.99), quantile(readLat, 0.9), quantile(readLat, 0.99)))

	r.values["ingest_values_per_s"] = float64(values) / closedFor.Seconds()
	r.values["write_p50_ms"] = quantile(writeLat, 0.5)
	r.values["queries_per_s"] = float64(readOps) / readFor.Seconds()
	r.values["query_p50_ms"] = quantile(readLat, 0.5)
	r.values["freshness_p50_ms"] = quantile(pc.lags, 0.5)
	r.values["alloc_bytes_per_value"] = float64(allocs) / float64(max(values, 1))
	return r
}

// errTimeout reports a wait the system did not end in time.
var errTimeout = errors.New("timed out")
