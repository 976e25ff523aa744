package ddserver

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"github.com/ddsketch-go/ddsketch"
)

// ForwardConfig tunes the leaf half of a leaf→root tier: where closed
// window intervals are shipped, in which wire format, and how hard the
// leaf tries before shedding.
type ForwardConfig struct {
	// URL of the root's ingest endpoint (…/ingest). Empty disables
	// forwarding.
	URL string

	// Format names the codec the leaf encodes intervals with. The
	// native codec is lossless (collapse lineage and exact statistics
	// travel); datadog is lossy by its documented rules but feeds a
	// DataDog agent directly.
	Format string

	// Spool bounds how many closed intervals may wait for delivery.
	// When a root outage outlives the spool, the oldest interval is
	// shed — dropped and counted, never silently lost.
	Spool int

	// Timeout bounds one delivery attempt (connect + POST + response).
	Timeout time.Duration

	// BackoffBase and BackoffCap shape the retry schedule after a
	// failed attempt: the delay starts at BackoffBase, doubles per
	// consecutive failure, and saturates at BackoffCap. Full jitter is
	// applied on top (a uniform draw in (0, delay]) so a fleet of
	// leaves does not thunder back in lockstep when a root returns.
	BackoffBase time.Duration
	BackoffCap  time.Duration
}

// DefaultForwardConfig returns the forwarding defaults, matching
// cmd/ddserver's flag defaults. URL stays empty: forwarding is opt-in.
func DefaultForwardConfig() ForwardConfig {
	return ForwardConfig{
		Format:      "native",
		Spool:       64,
		Timeout:     5 * time.Second,
		BackoffBase: 200 * time.Millisecond,
		BackoffCap:  30 * time.Second,
	}
}

// ForwardStats is a point-in-time snapshot of the forwarding counters,
// serialized as the "forward" block of GET /stats and the
// ddserver_forward_* series of GET /metrics.
type ForwardStats struct {
	URL    string `json:"url"`
	Format string `json:"format"`

	SpoolDepth    int `json:"spool_depth"`
	SpoolCapacity int `json:"spool_capacity"`

	// Spooled counts intervals handed to the forwarder; Forwarded
	// counts those delivered (2xx from the root). Spooled - Forwarded -
	// Shed - Rejected - SpoolDepth = intervals dropped by Close.
	Spooled   int64 `json:"spooled"`
	Forwarded int64 `json:"forwarded"`

	// Attempts counts every POST tried; Retries counts the subset that
	// re-sent a previously attempted interval.
	Attempts int64 `json:"attempts"`
	Retries  int64 `json:"retries"`

	// Shed counts intervals dropped because the spool was full when a
	// newer interval closed; ShedWeight is the total sketch weight
	// (value count) they carried — the root is short exactly this much.
	// An interval shed while its delivery attempt was in flight counts
	// as shed only if that attempt fails retryably; if the root accepts
	// or rejects it, it counts as Forwarded or Rejected instead.
	Shed       int64   `json:"shed"`
	ShedWeight float64 `json:"shed_weight"`

	// Rejected counts intervals the root refused with a non-retryable
	// status (4xx other than 408/429) — retrying a payload the root
	// deems malformed or incompatible would loop forever.
	Rejected int64 `json:"rejected"`

	// EncodeErrors counts intervals that could not be encoded at all.
	EncodeErrors int64 `json:"encode_errors"`

	// ForwardedWeight is the total sketch weight delivered to the root.
	ForwardedWeight float64 `json:"forwarded_weight"`

	// LastSuccessAgeSeconds is the age of the last 2xx delivery, or -1
	// if none has succeeded yet — the root-freshness number a leaf
	// dashboard alerts on.
	LastSuccessAgeSeconds float64 `json:"last_success_age_seconds"`

	// LastError is the most recent delivery error, cleared on success.
	LastError string `json:"last_error,omitempty"`
}

// spoolEntry is one closed window interval awaiting delivery. seq
// numbers entries in enqueue order, so the delivery loop can tell
// whether the entry it sent is still spooled.
type spoolEntry struct {
	payload []byte
	weight  float64
	seq     uint64
}

// forwarder ships closed window intervals to a root's /ingest. The
// rotate hook calls enqueue under the window ring's lock — it only
// encodes and spools — while a single run goroutine owns delivery:
// oldest interval first, per-attempt timeout, capped exponential
// backoff with full jitter between failures. The spool is bounded;
// overflow sheds the oldest entry and counts it.
//
// Delivery is at-least-once: an attempt that times out after the root
// has merged the payload is retried, so a flaky network can duplicate
// an interval at the root. Shedding is the only way data is dropped,
// and every shed increments Shed/ShedWeight.
type forwarder struct {
	cfg   ForwardConfig
	codec ddsketch.Codec
	now   func() time.Time

	client *http.Client

	// sleep waits for d or for ctx cancellation, reporting false on
	// cancellation; jitter draws the randomized delay actually slept.
	// Both are swapped out by tests to pin the retry schedule.
	sleep  func(ctx context.Context, d time.Duration) bool
	jitter func(d time.Duration) time.Duration

	mu          sync.Mutex
	cond        *sync.Cond // signaled when spool gains an entry or ctx is canceled
	spool       []spoolEntry
	nextSeq     uint64
	stats       ForwardStats
	lastSuccess time.Time

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

// newForwarder validates cfg and builds a forwarder. The caller starts
// delivery with go run().
func newForwarder(cfg ForwardConfig, now func() time.Time) (*forwarder, error) {
	codec := ddsketch.CodecByName(cfg.Format)
	if codec == nil {
		return nil, fmt.Errorf("unknown forward format %q (registered: %s)", cfg.Format, codecNames())
	}
	if cfg.Spool < 1 {
		return nil, fmt.Errorf("forward spool must hold at least 1 interval, got %d", cfg.Spool)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultForwardConfig().Timeout
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultForwardConfig().BackoffBase
	}
	if cfg.BackoffCap < cfg.BackoffBase {
		cfg.BackoffCap = cfg.BackoffBase
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &forwarder{
		cfg:    cfg,
		codec:  codec,
		now:    now,
		client: &http.Client{Timeout: cfg.Timeout},
		jitter: fullJitter,
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
	}
	f.cond = sync.NewCond(&f.mu)
	f.sleep = func(ctx context.Context, d time.Duration) bool {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return true
		case <-ctx.Done():
			return false
		}
	}
	f.stats.URL = cfg.URL
	f.stats.Format = cfg.Format
	f.stats.SpoolCapacity = cfg.Spool
	return f, nil
}

// fullJitter draws uniformly from (0, d]. Randomizing the whole delay
// (rather than ±ε around it) is what decorrelates a fleet of leaves
// retrying against the same recovering root.
func fullJitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(rand.Int63n(int64(d))) + 1
}

// enqueue is the window ring's rotate hook: it encodes the closed
// interval and spools it. It runs under the ring lock, so it must not
// block on the network; delivery happens on the run goroutine. When the
// spool is full the oldest interval is shed to make room — the freshest
// data is the most valuable, and the shed is counted.
func (f *forwarder) enqueue(closed *ddsketch.DDSketch) {
	payload, err := f.codec.Encode(closed)
	if err != nil {
		f.mu.Lock()
		f.stats.EncodeErrors++
		f.stats.LastError = fmt.Sprintf("encoding interval: %v", err)
		f.mu.Unlock()
		return
	}
	weight := closed.Count()
	f.mu.Lock()
	f.stats.Spooled++
	if len(f.spool) >= f.cfg.Spool {
		shed := f.spool[0]
		f.spool = f.spool[1:]
		f.stats.Shed++
		f.stats.ShedWeight += shed.weight
	}
	f.nextSeq++
	f.spool = append(f.spool, spoolEntry{payload: payload, weight: weight, seq: f.nextSeq})
	f.mu.Unlock()
	f.cond.Signal()
}

// head blocks until the spool has a head entry or the forwarder is
// closed, returning ok=false on close. The entry stays spooled until
// settleLocked, unless a newer interval closing while its attempt is in
// flight sheds it first.
func (f *forwarder) head() (spoolEntry, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.spool) == 0 && f.ctx.Err() == nil {
		f.cond.Wait()
	}
	if f.ctx.Err() != nil {
		return spoolEntry{}, false
	}
	return f.spool[0], true
}

// settleLocked removes a delivered or permanently rejected entry from
// the spool. Sheds only ever drop the head, so the entry is either still
// the head or gone; if it was shed while its attempt was in flight, the
// shed is taken back, since the attempt decided its fate — a delivered
// shed entry did reach the root. Callers hold f.mu.
func (f *forwarder) settleLocked(e spoolEntry) {
	if len(f.spool) > 0 && f.spool[0].seq == e.seq {
		f.spool = f.spool[1:]
		return
	}
	f.stats.Shed--
	f.stats.ShedWeight -= e.weight
}

// run is the delivery loop: POST the oldest spooled interval, dequeue
// on success or permanent rejection, back off and retry otherwise.
func (f *forwarder) run() {
	defer close(f.done)
	backoff := f.cfg.BackoffBase
	var attempted uint64 // seq of the last entry whose attempt failed (seqs start at 1)
	for {
		entry, ok := f.head()
		if !ok {
			return
		}
		f.mu.Lock()
		f.stats.Attempts++
		if entry.seq == attempted {
			f.stats.Retries++
		}
		f.mu.Unlock()
		status, err := f.post(entry.payload)
		switch {
		case err == nil && status >= 200 && status < 300:
			f.mu.Lock()
			f.stats.Forwarded++
			f.stats.ForwardedWeight += entry.weight
			f.stats.LastError = ""
			f.lastSuccess = f.now()
			f.settleLocked(entry)
			f.mu.Unlock()
			backoff = f.cfg.BackoffBase
		case err == nil && status >= 400 && status < 500 &&
			status != http.StatusRequestTimeout && status != http.StatusTooManyRequests:
			// The root understood the request and refused the payload;
			// re-sending the same bytes can never succeed.
			f.mu.Lock()
			f.stats.Rejected++
			f.stats.LastError = fmt.Sprintf("root rejected interval: HTTP %d", status)
			f.settleLocked(entry)
			f.mu.Unlock()
			backoff = f.cfg.BackoffBase
		default:
			f.mu.Lock()
			if err != nil {
				f.stats.LastError = err.Error()
			} else {
				f.stats.LastError = fmt.Sprintf("root answered HTTP %d", status)
			}
			f.mu.Unlock()
			attempted = entry.seq
			if !f.sleep(f.ctx, f.jitter(backoff)) {
				return
			}
			backoff *= 2
			if backoff > f.cfg.BackoffCap {
				backoff = f.cfg.BackoffCap
			}
		}
	}
}

// post delivers one payload, returning the root's status code or a
// transport error. The per-attempt timeout comes from the client.
func (f *forwarder) post(payload []byte) (int, error) {
	req, err := http.NewRequestWithContext(f.ctx, http.MethodPost, f.cfg.URL, bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", f.codec.ContentType())
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, err
	}
	// Drain so the connection is reusable; the body is an error
	// envelope or empty, never interesting past the status.
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	_ = resp.Body.Close()
	return resp.StatusCode, nil
}

// snapshot returns the current counters.
func (f *forwarder) snapshot() ForwardStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.stats
	st.SpoolDepth = len(f.spool)
	if f.lastSuccess.IsZero() {
		st.LastSuccessAgeSeconds = -1
	} else {
		st.LastSuccessAgeSeconds = f.now().Sub(f.lastSuccess).Seconds()
	}
	return st
}

// Close stops the delivery loop and waits for it to exit. Spooled
// entries are not flushed — Close is for shutdown, and the counters
// still account for them (Spooled minus the other outcomes).
func (f *forwarder) Close() {
	// Cancel and broadcast under mu: a head() caller between its ctx
	// check and cond.Wait holds mu, so it is either already in the wait
	// queue when the broadcast fires or will re-check ctx first —
	// never a missed wakeup.
	f.mu.Lock()
	f.cancel()
	f.cond.Broadcast()
	f.mu.Unlock()
	<-f.done
}
