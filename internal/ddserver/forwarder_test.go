package ddserver

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ddsketch-go/ddsketch"
)

// testForwardConfig returns fast-retry forwarding settings so failure
// tests converge in milliseconds instead of the production seconds.
func testForwardConfig(url string) ForwardConfig {
	cfg := DefaultForwardConfig()
	cfg.URL = url
	cfg.Timeout = 2 * time.Second
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffCap = 8 * time.Millisecond
	return cfg
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", timeout, what)
}

// encodeValues builds a plain default-config sketch over values and
// returns it for enqueueing.
func sketchOf(t *testing.T, values ...float64) *ddsketch.DDSketch {
	t.Helper()
	sk, err := ddsketch.NewCollapsing(0.01, 2048)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range values {
		if err := sk.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	return sk
}

// TestForwarderRetryBackoffSchedule pins the retry schedule: per-failure
// delays start at BackoffBase, double each consecutive failure, saturate
// at BackoffCap, and reset after a success. Jitter is replaced with the
// identity and sleeps are recorded instead of slept.
func TestForwarderRetryBackoffSchedule(t *testing.T) {
	var fails atomic.Int64
	fails.Store(6) // six failures, then accept everything
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fails.Add(-1) >= 0 {
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	}))
	t.Cleanup(upstream.Close)

	cfg := testForwardConfig(upstream.URL)
	cfg.BackoffBase = 10 * time.Millisecond
	cfg.BackoffCap = 40 * time.Millisecond
	fwd, err := newForwarder(cfg, time.Now)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var slept []time.Duration
	fwd.jitter = func(d time.Duration) time.Duration { return d }
	fwd.sleep = func(ctx context.Context, d time.Duration) bool {
		mu.Lock()
		slept = append(slept, d)
		mu.Unlock()
		return ctx.Err() == nil
	}
	go fwd.run()
	t.Cleanup(fwd.Close)

	fwd.enqueue(sketchOf(t, 1, 2, 3))
	waitFor(t, 5*time.Second, "first interval delivered", func() bool {
		return fwd.snapshot().Forwarded == 1
	})

	mu.Lock()
	got := append([]time.Duration(nil), slept...)
	mu.Unlock()
	want := []time.Duration{
		10 * time.Millisecond, // after failure 1
		20 * time.Millisecond, // doubled
		40 * time.Millisecond, // doubled to the cap
		40 * time.Millisecond, // capped
		40 * time.Millisecond,
		40 * time.Millisecond,
	}
	if len(got) != len(want) {
		t.Fatalf("slept %d times (%v), want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sleep %d = %v, want %v", i, got[i], want[i])
		}
	}

	st := fwd.snapshot()
	if st.Attempts != 7 || st.Retries != 6 {
		t.Errorf("attempts/retries = %d/%d, want 7/6", st.Attempts, st.Retries)
	}
	if st.LastError != "" {
		t.Errorf("LastError = %q, want cleared after success", st.LastError)
	}

	// Backoff resets after the success: the next interval's first
	// failure sleeps BackoffBase again.
	fails.Store(1)
	fwd.enqueue(sketchOf(t, 4))
	waitFor(t, 5*time.Second, "second interval delivered", func() bool {
		return fwd.snapshot().Forwarded == 2
	})
	mu.Lock()
	last := slept[len(slept)-1]
	mu.Unlock()
	if last != 10*time.Millisecond {
		t.Errorf("post-success backoff = %v, want reset to %v", last, 10*time.Millisecond)
	}
}

// TestForwarderPermanentRejection: a 4xx the root will always repeat
// (here 409 from an incompatible sketch) drops the interval with the
// Rejected counter instead of retrying forever.
func TestForwarderPermanentRejection(t *testing.T) {
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "incompatible", http.StatusConflict)
	}))
	t.Cleanup(upstream.Close)

	fwd, err := newForwarder(testForwardConfig(upstream.URL), time.Now)
	if err != nil {
		t.Fatal(err)
	}
	fwd.jitter = func(d time.Duration) time.Duration { return d }
	go fwd.run()
	t.Cleanup(fwd.Close)

	fwd.enqueue(sketchOf(t, 1))
	waitFor(t, 5*time.Second, "interval rejected", func() bool {
		return fwd.snapshot().Rejected == 1
	})
	st := fwd.snapshot()
	if st.Retries != 0 {
		t.Errorf("retries = %d, want 0 (permanent rejection must not retry)", st.Retries)
	}
	if st.SpoolDepth != 0 {
		t.Errorf("spool depth = %d, want 0 after rejection dequeues", st.SpoolDepth)
	}
	if !strings.Contains(st.LastError, "409") {
		t.Errorf("LastError = %q, want the rejecting status", st.LastError)
	}
}

// TestForwarderShedWhileInFlight: an interval shed while its POST is in
// flight, and then accepted by the root, did reach the root. The
// forwarder must not dequeue some other, never-sent interval in its
// place, and must take the shed back, so that the root ends up holding
// exactly what was spooled minus the counted sheds.
func TestForwarderShedWhileInFlight(t *testing.T) {
	inFlight := make(chan struct{})
	release := make(chan struct{})
	var releaseOnce sync.Once
	var first atomic.Bool
	var mu sync.Mutex
	received := 0.0
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if first.CompareAndSwap(false, true) {
			close(inFlight)
			<-release
		}
		sk, err := ddsketch.Decode(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		received += sk.Count()
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
	}))
	t.Cleanup(upstream.Close)
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })

	cfg := testForwardConfig(upstream.URL)
	cfg.Spool = 2
	fwd, err := newForwarder(cfg, time.Now)
	if err != nil {
		t.Fatal(err)
	}
	go fwd.run()
	t.Cleanup(fwd.Close)

	// Interval 1 (weight 1) goes out, and the root holds its POST.
	fwd.enqueue(sketchOf(t, 1))
	select {
	case <-inFlight:
	case <-time.After(5 * time.Second):
		t.Fatal("the first interval was never sent")
	}
	// Intervals 2..4 (weights 2..4) close meanwhile; the 2-slot spool
	// sheds intervals 1 and 2.
	total := 1.0
	for n := 2; n <= 4; n++ {
		values := make([]float64, n)
		for i := range values {
			values[i] = float64(i + 1)
		}
		fwd.enqueue(sketchOf(t, values...))
		total += float64(n)
	}
	if st := fwd.snapshot(); st.Shed != 2 || st.ShedWeight != 3 {
		t.Fatalf("shed %d (weight %g) before release, want 2 (weight 3)", st.Shed, st.ShedWeight)
	}

	releaseOnce.Do(func() { close(release) })
	waitFor(t, 5*time.Second, "the spool to drain", func() bool {
		st := fwd.snapshot()
		return st.SpoolDepth == 0 && st.Forwarded+st.Shed == st.Spooled
	})
	st := fwd.snapshot()
	mu.Lock()
	got := received
	mu.Unlock()
	if got != total-st.ShedWeight {
		t.Errorf("root holds weight %g, want sent %g minus shed weight %g", got, total, st.ShedWeight)
	}
	if st.Forwarded != 3 || st.Shed != 1 || st.ShedWeight != 2 {
		t.Errorf("forwarded/shed/shed weight = %d/%d/%g, want 3/1/2 (only interval 2 was lost)",
			st.Forwarded, st.Shed, st.ShedWeight)
	}
}

// leafRootPair builds a forwarding leaf in front of a root. The root
// listens on a real TCP listener (not httptest) so tests can kill and
// revive it on a stable address. Returns the leaf HTTP endpoint too,
// for /stats and /metrics scrapes.
type leafRootPair struct {
	root      *Server
	rootClock *testClock
	rootAddr  string
	rootSrv   *http.Server

	leaf      *Server
	leafClock *testClock
	leafTS    *httptest.Server
}

func newLeafRootPair(t *testing.T, mutate func(leafCfg, rootCfg *Config)) *leafRootPair {
	t.Helper()
	p := &leafRootPair{rootClock: newTestClock(), leafClock: newTestClock()}

	rootCfg := DefaultConfig()
	rootCfg.Interval = time.Minute
	rootCfg.Windows = 8
	rootCfg.Shards = 2
	rootCfg.Now = p.rootClock.Now

	leafCfg := DefaultConfig()
	leafCfg.Interval = time.Minute
	leafCfg.Windows = 4
	leafCfg.Shards = 1
	leafCfg.Now = p.leafClock.Now

	if mutate != nil {
		mutate(&leafCfg, &rootCfg)
	}
	spool := leafCfg.Forward.Spool // keep a test's spool override

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p.rootAddr = ln.Addr().String()

	root, err := NewServer(rootCfg)
	if err != nil {
		t.Fatal(err)
	}
	p.root = root
	p.startRoot(t, ln)

	leafCfg.Forward = testForwardConfig("http://" + p.rootAddr + "/ingest")
	leafCfg.Forward.Spool = spool
	leaf, err := NewServer(leafCfg)
	if err != nil {
		t.Fatal(err)
	}
	p.leaf = leaf
	t.Cleanup(leaf.Close)
	p.leafTS = httptest.NewServer(leaf.Handler())
	t.Cleanup(p.leafTS.Close)
	return p
}

// startRoot serves the root on ln (a fresh listener when reviving).
func (p *leafRootPair) startRoot(t *testing.T, ln net.Listener) {
	t.Helper()
	srv := &http.Server{Handler: p.root.Handler()}
	p.rootSrv = srv
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
}

// killRoot stops the root's listener; the root's state survives.
func (p *leafRootPair) killRoot(t *testing.T) {
	t.Helper()
	if err := p.rootSrv.Close(); err != nil {
		t.Fatal(err)
	}
}

// reviveRoot rebinds the same address with the same root server.
func (p *leafRootPair) reviveRoot(t *testing.T) {
	t.Helper()
	var ln net.Listener
	// The old socket can linger briefly after Close; rebinding the same
	// port may need a few tries.
	waitFor(t, 5*time.Second, "rebinding root address", func() bool {
		var err error
		ln, err = net.Listen("tcp", p.rootAddr)
		return err == nil
	})
	p.startRoot(t, ln)
}

// postValues sends a whitespace-separated batch to the leaf.
func (p *leafRootPair) postValues(t *testing.T, body string) {
	t.Helper()
	resp, err := http.Post(p.leafTS.URL+"/values", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /values: status %d", resp.StatusCode)
	}
}

// rotate closes the leaf's current interval: drain the batch into it,
// advance the clock past the boundary, drain again so the ring notices
// and the rotate hook hands the closed interval to the forwarder.
func (p *leafRootPair) rotate(t *testing.T) {
	t.Helper()
	p.leaf.Aggregate().Drain()
	p.leafClock.Advance(time.Minute)
	p.leaf.Aggregate().Drain()
}

// summaryJSON fetches /summary with a fixed quantile list for exact
// comparison between servers.
func summaryJSON(t *testing.T, srv *Server, qs string) map[string]any {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	out := getJSON(t, ts.URL+"/summary?q="+qs, http.StatusOK)
	return out["summary"].(map[string]any)
}

// assertBitIdentical compares two servers' summaries field by field:
// count, sum, min, max, avg, and every quantile must match exactly —
// not within α. Mergeability is exact (Algorithm 4), so a root fed
// interval sketches answers bit-for-bit what direct ingestion answers.
func assertBitIdentical(t *testing.T, got, want *Server) {
	t.Helper()
	const qs = "0.01,0.1,0.25,0.5,0.75,0.9,0.95,0.99,0.999,1"
	gotSummary, wantSummary := summaryJSON(t, got, qs), summaryJSON(t, want, qs)
	for _, field := range []string{"count", "sum", "min", "max", "avg", "relative_accuracy", "collapse_epoch"} {
		if g, w := gotSummary[field], wantSummary[field]; g != w {
			t.Errorf("%s = %v, want %v (bit-identical)", field, g, w)
		}
	}
	gq := gotSummary["quantiles"].([]any)
	wq := wantSummary["quantiles"].([]any)
	if len(gq) != len(wq) {
		t.Fatalf("quantile list lengths differ: %d vs %d", len(gq), len(wq))
	}
	for i := range gq {
		g := gq[i].(map[string]any)
		w := wq[i].(map[string]any)
		if g["value"] != w["value"] {
			t.Errorf("q=%v: %v != %v (bit-identical)", g["q"], g["value"], w["value"])
		}
	}
}

// TestLeafRootBitIdentity is the tentpole acceptance test: a leaf with
// a forward URL reproduces, at the root, count/sum and all quantiles
// bit-identical to ingesting the same stream directly. Values are
// integers (< 2^53) so sums are order-independent and the comparison
// can be exact.
func TestLeafRootBitIdentity(t *testing.T) {
	p := newLeafRootPair(t, nil)

	// A control server configured exactly like the root ingests the
	// same raw values directly.
	controlCfg := DefaultConfig()
	controlCfg.Interval = time.Minute
	controlCfg.Windows = 8
	controlCfg.Shards = 2
	controlCfg.Now = newTestClock().Now
	control, err := NewServer(controlCfg)
	if err != nil {
		t.Fatal(err)
	}
	controlTS := httptest.NewServer(control.Handler())
	t.Cleanup(controlTS.Close)

	// Three intervals of distinct integer batches.
	total := 0.0
	for interval := 0; interval < 3; interval++ {
		var batch strings.Builder
		for i := 1; i <= 500; i++ {
			fmt.Fprintf(&batch, "%d ", interval*1000+i)
		}
		p.postValues(t, batch.String())
		resp, err := http.Post(controlTS.URL+"/values", "text/plain", strings.NewReader(batch.String()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		total += 500
		p.rotate(t)
	}

	waitFor(t, 10*time.Second, "root to receive all intervals", func() bool {
		return p.root.Aggregate().Count() == total
	})
	assertBitIdentical(t, p.root, control)

	// The leaf's own observability agrees: three intervals spooled and
	// forwarded, nothing shed, a fresh last success.
	fs, ok := p.leaf.ForwardStats()
	if !ok {
		t.Fatal("leaf reports no forwarding")
	}
	if fs.Spooled != 3 || fs.Forwarded != 3 || fs.Shed != 0 || fs.Rejected != 0 {
		t.Errorf("spooled/forwarded/shed/rejected = %d/%d/%d/%d, want 3/3/0/0",
			fs.Spooled, fs.Forwarded, fs.Shed, fs.Rejected)
	}
	if fs.ForwardedWeight != total {
		t.Errorf("forwarded weight = %g, want %g", fs.ForwardedWeight, total)
	}
	if fs.LastSuccessAgeSeconds < 0 {
		t.Error("last_success_age_seconds < 0 after successful deliveries")
	}

	// The leaf's /stats carries the forward block.
	stats := getJSON(t, p.leafTS.URL+"/stats", http.StatusOK)
	fwdStats, ok := stats["forward"].(map[string]any)
	if !ok {
		t.Fatal("/stats missing the forward block on a forwarding leaf")
	}
	if got := fwdStats["forwarded"].(float64); got != 3 {
		t.Errorf("/stats forward.forwarded = %g, want 3", got)
	}
}

// TestLeafRootUniformSmallBudget: a uniform-collapse leaf at a small
// bin budget feeds a uniform-collapse root at the full budget — the
// heterogeneous-budget scenario mixed-epoch merging makes wire-safe.
// The root must be bit-identical to a control that ingested the same
// agent sketch directly, and its quantiles must respect the leaf's
// degraded α'.
func TestLeafRootUniformSmallBudget(t *testing.T) {
	mutate := func(leafCfg, rootCfg *Config) {
		leafCfg.Uniform = true
		leafCfg.MaxBins = 64
		rootCfg.Uniform = true
		rootCfg.MaxBins = 2048
	}
	p := newLeafRootPair(t, mutate)

	// An agent stream wide enough to collapse the leaf's 64 bins.
	agent := sketchOfUniform(t, 64)
	if agent.CollapseEpoch() == 0 {
		t.Fatal("agent sketch never collapsed; the test needs epoch > 0")
	}
	resp, err := http.Post(p.leafTS.URL+"/ingest", "application/x-ddsketch", bytes.NewReader(agent.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("leaf /ingest: status %d", resp.StatusCode)
	}
	p.rotate(t)

	want := agent.Count()
	waitFor(t, 10*time.Second, "root to receive the collapsed interval", func() bool {
		return p.root.Aggregate().Count() == want
	})

	// Control: the same agent sketch ingested directly into a
	// root-configured server.
	controlCfg := DefaultConfig()
	controlCfg.Interval = time.Minute
	controlCfg.Windows = 8
	controlCfg.Shards = 2
	controlCfg.Uniform = true
	controlCfg.MaxBins = 2048
	controlCfg.Now = newTestClock().Now
	control, err := NewServer(controlCfg)
	if err != nil {
		t.Fatal(err)
	}
	controlTS := httptest.NewServer(control.Handler())
	t.Cleanup(controlTS.Close)
	resp, err = http.Post(controlTS.URL+"/ingest", "application/x-ddsketch", bytes.NewReader(agent.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("control /ingest: status %d", resp.StatusCode)
	}

	assertBitIdentical(t, p.root, control)
}

// sketchOfUniform builds a uniform-collapsing sketch over a stream wide
// enough to force collapse at the given budget.
func sketchOfUniform(t *testing.T, maxBins int) *ddsketch.DDSketch {
	t.Helper()
	sk, err := ddsketch.NewUniformCollapsing(0.01, maxBins)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		// 1..2000 squared spans ~6.6 decades: plenty for 64 bins at α=1%.
		v := float64(i+1) * float64(i+1)
		if err := sk.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	return sk
}

// TestLeafRootDownAtStartup: the root is unreachable when the leaf's
// first interval closes. The leaf retries with backoff until the root
// comes up, then delivers everything — nothing lost, retries counted.
func TestLeafRootDownAtStartup(t *testing.T) {
	p := newLeafRootPair(t, nil)
	p.killRoot(t)

	p.postValues(t, "1 2 3 4 5")
	p.rotate(t)

	// The delivery loop is failing: attempts grow, nothing forwarded.
	waitFor(t, 5*time.Second, "retries against the down root", func() bool {
		fs, _ := p.leaf.ForwardStats()
		return fs.Retries >= 2
	})
	fs, _ := p.leaf.ForwardStats()
	if fs.Forwarded != 0 {
		t.Fatalf("forwarded = %d with the root down", fs.Forwarded)
	}
	if fs.SpoolDepth != 1 {
		t.Fatalf("spool depth = %d, want 1", fs.SpoolDepth)
	}
	if fs.LastError == "" {
		t.Error("LastError empty while the root is down")
	}
	if fs.LastSuccessAgeSeconds != -1 {
		t.Errorf("last_success_age_seconds = %g, want -1 before any success", fs.LastSuccessAgeSeconds)
	}

	p.reviveRoot(t)
	waitFor(t, 10*time.Second, "delivery after the root came up", func() bool {
		return p.root.Aggregate().Count() == 5
	})
	fs, _ = p.leaf.ForwardStats()
	if fs.Shed != 0 {
		t.Errorf("shed = %d, want 0 (spool had capacity)", fs.Shed)
	}
}

// TestLeafRootFlappingDurability is the acceptance scenario: kill the
// root for three window rotations and restart it; while the spool has
// capacity nothing is lost, and the root converges to the leaf's exact
// totals.
func TestLeafRootFlappingDurability(t *testing.T) {
	p := newLeafRootPair(t, nil)

	// Interval 1 delivers while the root is healthy.
	p.postValues(t, "1 2 3")
	p.rotate(t)
	waitFor(t, 10*time.Second, "first interval delivered", func() bool {
		return p.root.Aggregate().Count() == 3
	})

	// Root dies; three more intervals close and spool up.
	p.killRoot(t)
	total := 3.0
	for interval := 0; interval < 3; interval++ {
		var batch strings.Builder
		for i := 1; i <= 10+interval; i++ {
			fmt.Fprintf(&batch, "%d ", i)
		}
		p.postValues(t, batch.String())
		total += float64(10 + interval)
		p.rotate(t)
	}
	waitFor(t, 5*time.Second, "three intervals spooled", func() bool {
		fs, _ := p.leaf.ForwardStats()
		return fs.SpoolDepth == 3 && fs.Retries >= 1
	})

	// Root returns: the spool drains oldest-first, nothing lost. The
	// root merges a POST before the leaf reads its response, so wait for
	// the leaf's side too before reading its counters.
	p.reviveRoot(t)
	waitFor(t, 10*time.Second, "root to converge after restart", func() bool {
		fs, _ := p.leaf.ForwardStats()
		return p.root.Aggregate().Count() == total && fs.SpoolDepth == 0
	})
	fs, _ := p.leaf.ForwardStats()
	if fs.Shed != 0 || fs.ShedWeight != 0 {
		t.Errorf("shed = %d (weight %g), want 0 while the spool had capacity", fs.Shed, fs.ShedWeight)
	}
	if fs.Forwarded != 4 {
		t.Errorf("forwarded = %d, want 4", fs.Forwarded)
	}
	if fs.SpoolDepth != 0 {
		t.Errorf("spool depth = %d, want 0 after convergence", fs.SpoolDepth)
	}
}

// TestLeafRootSpoolOverflowSheds: when a root outage outlives the spool
// the oldest intervals are shed — and every shed, with its weight, is
// visible on /stats and /metrics. Root totals converge to leaf totals
// minus exactly the counted sheds.
func TestLeafRootSpoolOverflowSheds(t *testing.T) {
	p := newLeafRootPair(t, func(leafCfg, rootCfg *Config) {
		leafCfg.Forward.Spool = 2
	})
	p.killRoot(t)

	// Five intervals close against a dead root; the 2-slot spool keeps
	// only the two newest. Weights 1,2,3,4,5 make the shed accounting
	// unambiguous: intervals 1..3 (weight 6) are shed.
	total := 0.0
	for interval := 1; interval <= 5; interval++ {
		var batch strings.Builder
		for i := 0; i < interval; i++ {
			fmt.Fprintf(&batch, "%d ", 100+i)
		}
		p.postValues(t, batch.String())
		total += float64(interval)
		p.rotate(t)
	}

	waitFor(t, 5*time.Second, "sheds recorded", func() bool {
		fs, _ := p.leaf.ForwardStats()
		return fs.Shed == 3
	})
	fs, _ := p.leaf.ForwardStats()
	if fs.ShedWeight != 1+2+3 {
		t.Errorf("shed weight = %g, want 6 (intervals 1..3)", fs.ShedWeight)
	}
	if fs.SpoolDepth != 2 {
		t.Errorf("spool depth = %d, want the capacity 2", fs.SpoolDepth)
	}

	// Every shed appears in /metrics.
	resp, err := http.Get(p.leafTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(raw)
	for _, want := range []string{
		"ddserver_forward_shed_total 3\n",
		"ddserver_forward_shed_weight_total 6\n",
		"ddserver_forward_spool_capacity 2\n",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", strings.TrimSpace(want))
		}
	}

	// The root recovers and receives what survived: total minus sheds.
	// An attempt already under way when its interval was shed may still
	// land once the root is back; the forwarder then takes that shed
	// back, so the identity is checked against the settled counters.
	p.reviveRoot(t)
	waitFor(t, 10*time.Second, "surviving intervals delivered", func() bool {
		fs, _ := p.leaf.ForwardStats()
		return fs.SpoolDepth == 0 && fs.Forwarded+fs.Shed == fs.Spooled &&
			p.root.Aggregate().Count() == total-fs.ShedWeight
	})
}
