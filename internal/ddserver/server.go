// Package ddserver implements the DDSketch aggregation service behind
// cmd/ddserver: the central half of the architecture in §1 of the
// paper, where a fleet of agents each sketch their local traffic and
// ship the (fully-mergeable) sketches to an aggregator that answers
// quantile queries over the combined stream.
//
// The package — rather than the command — holds the implementation so
// that one process can embed several servers at once: cmd/ddload builds
// a leaf→root pair in-process to measure end-to-end ingest latency and
// root freshness, and the fault-injection tests kill and revive a root
// under a forwarding leaf.
//
// A Server aggregates on three planes: the global plane (POST /ingest
// for encoded sketches in any registered codec, POST /values for raw
// values, GET /quantile, /summary and /sketch over the window ring),
// the keyed plane (POST /values?key=…, GET /summary?filter=… roll-ups),
// and observability (/stats JSON, /metrics Prometheus text format).
//
// Servers tier: GET /sketch exports the trailing-window aggregate in
// any registered wire format (format= parameter or Accept negotiation),
// and a Config.Forward URL turns the server into a leaf that ships each
// closed window interval to a root's /ingest — spooled, retried with
// capped exponential backoff, shed-and-counted when a root outage
// outlives the spool. Exact mergeability (Algorithm 4) makes the
// tiering lossless: the root's quantiles are what a single process fed
// the combined stream would answer.
package ddserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"github.com/ddsketch-go/ddsketch"
	"github.com/ddsketch-go/ddsketch/mapping"
	"github.com/ddsketch-go/ddsketch/registry"
)

// maxIngestBytes bounds the size of one POSTed payload. A DDSketch with
// thousands of buckets encodes to a few tens of kilobytes; a megabyte is
// far beyond any legitimate sketch or value batch.
const maxIngestBytes = 1 << 20

// Config collects the tunables of the aggregation service.
type Config struct {
	Addr        string
	Alpha       float64       // relative accuracy α of the aggregate sketch
	MappingName string        // index mapping: log, linear, quadratic, cubic
	MaxBins     int           // bin budget per store (lowest) or in total (uniform)
	Uniform     bool          // collapse uniformly (UDDSketch) instead of lowest-first
	Shards      int           // shard count for the live ingest layer (0 = auto)
	Interval    time.Duration // duration of one aggregation window
	Windows     int           // number of retained windows
	WireFormat  string        // ingest format when Content-Type is absent/generic: auto, or a codec name

	// Keyed (per-series) aggregation: the registry budget and
	// admission threshold of the SketchMap behind POST /values?key=…
	// and GET /summary?filter=… .
	RegistrySketches  int     // max live per-key sketches
	RegistryAdmission float64 // estimated weight before a key earns a sketch

	// RegistryWindows, when positive, makes every keyed series
	// time-windowed: a ring of that many per-interval sketches on one
	// registry-wide rotation grid, so GET /summary?filter=…&window=k
	// answers over the trailing k intervals and idle series age out.
	// 0 (the default) keeps keyed series unwindowed — each retains its
	// whole history and filtered window= parameters are ignored.
	RegistryWindows int
	// RegistryInterval is the duration of one keyed window interval;
	// 0 means inherit the aggregate's Interval.
	RegistryInterval time.Duration

	// Forward, when its URL is non-empty, makes this server a leaf:
	// every window interval that closes holding data is encoded and
	// POSTed to the URL (a root server's /ingest endpoint).
	Forward ForwardConfig

	Now func() time.Time
}

// DefaultConfig returns the service defaults, matching cmd/ddserver's
// flag defaults.
func DefaultConfig() Config {
	return Config{
		Addr:              ":8080",
		Alpha:             0.01,
		MappingName:       "log",
		MaxBins:           2048,
		Shards:            0,
		Interval:          10 * time.Second,
		Windows:           6,
		WireFormat:        "auto",
		RegistrySketches:  10_000,
		RegistryAdmission: 1,
		Forward:           DefaultForwardConfig(),
		Now:               time.Now,
	}
}

// newMapping resolves the -mapping selector into a concrete index
// mapping at the configured α. The interpolated mappings trade a few
// percent more buckets for a math.Log-free insertion path (§4 of the
// paper); all four support uniform collapse.
func (c Config) newMapping() (mapping.IndexMapping, error) {
	switch c.MappingName {
	case "", "log":
		return mapping.NewLogarithmic(c.Alpha)
	case "linear":
		return mapping.NewLinearlyInterpolated(c.Alpha)
	case "quadratic":
		return mapping.NewQuadraticallyInterpolated(c.Alpha)
	case "cubic":
		return mapping.NewCubicallyInterpolated(c.Alpha)
	default:
		return nil, fmt.Errorf("unknown mapping %q (want log, linear, quadratic, or cubic)", c.MappingName)
	}
}

// Server is the aggregation service: a ddsketch.WindowedSharded — a
// sharded sketch absorbing concurrent ingest (encoded sketches from
// agents, or raw values), drained into a time-windowed ring from which
// queries are answered. This is the paper's §1 architecture — agents
// sketch locally, ship, and the aggregator merges losslessly — made
// concrete over HTTP. The sketch layering itself lives in the library;
// the server is the thin HTTP skin over it.
type Server struct {
	cfg Config
	agg *ddsketch.WindowedSharded

	// reg is the keyed plane: a registry.SketchMap holding one sketch
	// per tagged series (admission-gated, budget-evicted into an
	// overflow sketch). Keyed POST /values land here; GET
	// /summary?filter=… answers roll-ups over it. The unkeyed aggregate
	// above and the keyed registry are separate planes: unkeyed values
	// are windowed globally, keyed values are retained per series.
	reg *registry.SketchMap

	// fwd ships closed window intervals to the configured root; nil
	// when this server is not a leaf.
	fwd *forwarder

	// maxIndexable is the aggregate mapping's largest indexable
	// magnitude; /values pre-validates raw values against it so a batch
	// with an unrecordable value is rejected atomically, before anything
	// reaches the sketch.
	maxIndexable float64

	sketchesIngested atomic.Int64
	valuesIngested   atomic.Int64
	keyedIngested    atomic.Int64

	// ingestByFormat and exportByFormat split the sketch traffic by
	// wire format — payloads accepted on /ingest, payloads served from
	// /sketch — one pre-allocated counter per registered codec so the
	// hot paths stay lock-free.
	ingestByFormat map[string]*atomic.Int64
	exportByFormat map[string]*atomic.Int64

	// summarize is what /stats reads the aggregate through; it is
	// s.agg.Summary except in tests that exercise the error paths.
	summarize func(qs ...float64) (ddsketch.Summary, error)

	started time.Time
}

// NewServer builds a server from cfg. When cfg.Forward.URL is set the
// returned server is already forwarding: its delivery goroutine is
// running and every window rotation enqueues the closed interval. Call
// Close to stop it.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.WireFormat == "" {
		cfg.WireFormat = "auto"
	}
	if cfg.WireFormat != "auto" && ddsketch.CodecByName(cfg.WireFormat) == nil {
		return nil, fmt.Errorf("unknown wire format %q (want auto or one of: %s)",
			cfg.WireFormat, codecNames())
	}
	m, err := cfg.newMapping()
	if err != nil {
		return nil, err
	}
	boundOpt := ddsketch.WithMaxBins(cfg.MaxBins)
	if cfg.Uniform {
		// UDDSketch mode: degrade α uniformly under the bin budget
		// instead of sacrificing the lowest quantiles. Shards and window
		// slots collapse independently and reconcile on merge.
		boundOpt = ddsketch.WithUniformCollapse(cfg.MaxBins)
	}
	// The mapping carries its own accuracy, so it replaces
	// WithRelativeAccuracy; NewSketch rejects invalid combinations with a
	// clear error, which main surfaces as a startup failure.
	sketch, err := ddsketch.NewSketch(
		ddsketch.WithMapping(m),
		boundOpt,
		ddsketch.WithSharding(cfg.Shards),
		ddsketch.WithWindow(cfg.Interval, cfg.Windows),
		ddsketch.WithClock(cfg.Now),
	)
	if err != nil {
		return nil, err
	}
	agg := sketch.(*ddsketch.WindowedSharded)
	// Per-key sketches share the aggregate's mapping and bin-bound
	// policy but not its sharding or windowing: the registry's segments
	// provide the concurrency, and retention is the registry's own —
	// unwindowed by default (series live until evicted into overflow),
	// or per-key interval rings when RegistryWindows is set.
	regOpts := []registry.Option{
		registry.WithMaxSketches(cfg.RegistrySketches),
		registry.WithAdmissionThreshold(cfg.RegistryAdmission),
		registry.WithSketchOptions(ddsketch.WithMapping(m), boundOpt),
	}
	if cfg.RegistryWindows > 0 {
		interval := cfg.RegistryInterval
		if interval <= 0 {
			interval = cfg.Interval
		}
		regOpts = append(regOpts, registry.WithKeyWindow(cfg.RegistryWindows, interval, cfg.Now))
	}
	reg, err := registry.New(regOpts...)
	if err != nil {
		return nil, err
	}
	ingestByFormat := make(map[string]*atomic.Int64)
	exportByFormat := make(map[string]*atomic.Int64)
	for _, c := range ddsketch.Codecs() {
		ingestByFormat[c.Name()] = new(atomic.Int64)
		exportByFormat[c.Name()] = new(atomic.Int64)
	}
	s := &Server{
		cfg: cfg,
		agg: agg,
		reg: reg,
		// Read the bound off the sketch's own mapping (via an empty
		// snapshot) so pre-validation can never desync from what the
		// sketch actually rejects.
		maxIndexable:   agg.Snapshot().IndexMapping().MaxIndexableValue(),
		ingestByFormat: ingestByFormat,
		exportByFormat: exportByFormat,
		summarize:      agg.Summary,
		started:        cfg.Now(),
	}
	if cfg.Forward.URL != "" {
		fwd, err := newForwarder(cfg.Forward, cfg.Now)
		if err != nil {
			return nil, err
		}
		s.fwd = fwd
		// The rotate hook runs under the ring lock, so it only encodes
		// and spools; delivery happens on the forwarder's own goroutine.
		agg.SetRotateHook(fwd.enqueue)
		go fwd.run()
	}
	return s, nil
}

// Close stops the forwarding goroutine, if any. Spooled intervals not
// yet delivered are dropped; their counts remain visible in the final
// ForwardStats. Close is a no-op for non-leaf servers.
func (s *Server) Close() {
	if s.fwd != nil {
		s.fwd.Close()
	}
}

// Aggregate exposes the underlying windowed aggregate, letting
// embedders (cmd/ddload, tests) drive drains or read totals directly.
func (s *Server) Aggregate() *ddsketch.WindowedSharded { return s.agg }

// ForwardStats returns a snapshot of the forwarding counters, and
// reports whether this server forwards at all.
func (s *Server) ForwardStats() (ForwardStats, bool) {
	if s.fwd == nil {
		return ForwardStats{}, false
	}
	return s.fwd.snapshot(), true
}

// codecNames renders the registered codec names for error messages and
// flag help.
func codecNames() string {
	all := ddsketch.Codecs()
	names := make([]string, len(all))
	for i, c := range all {
		names[i] = c.Name()
	}
	return strings.Join(names, ", ")
}

// codecContentTypes renders the registered codecs' media types for
// Accept-negotiation error messages.
func codecContentTypes() string {
	all := ddsketch.Codecs()
	types := make([]string, len(all))
	for i, c := range all {
		types[i] = c.ContentType()
	}
	return strings.Join(types, ", ")
}

// RunDrainLoop drains the sharded layer into the current time window on
// every tick until stop is closed, so values are attributed to the
// window in which they arrived, not the one in which they were first
// queried — and so window rotation (which is what triggers leaf
// forwarding) is noticed promptly even when the server goes idle.
// (Queries drain on their own, so reads always see all acknowledged
// writes.) main wires this to a ticker of half the window interval.
func (s *Server) RunDrainLoop(tick <-chan time.Time, stop <-chan struct{}) {
	for {
		select {
		case <-tick:
			s.agg.Drain()
			// Keyed-plane maintenance rides the same tick: rotation is
			// lazy per series, but Rotate also ages fully-idle windowed
			// series out of the budget, which nothing else would trigger.
			s.reg.Rotate()
		case <-stop:
			return
		}
	}
}

// Handler returns the service's routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/values", s.handleValues)
	mux.HandleFunc("/quantile", s.handleQuantile)
	mux.HandleFunc("/summary", s.handleSummary)
	mux.HandleFunc("/sketch", s.handleSketch)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes a JSON error envelope.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// methodNotAllowed answers 405 with the Allow header RFC 9110 §15.5.6
// requires, naming the method the endpoint does speak.
func methodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("%s required", allow))
}

// bodyBuf is a request body read into a pooled buffer, together with
// the pooled slice /values parses it into. Both are overwritten by a
// later request once released, so nothing may keep a reference into
// them — a string view, a subslice, the parsed values — after the
// handler that read them returns.
type bodyBuf struct {
	data   []byte
	values []float64
}

// bodyPool recycles request buffers. readBody caps a body at
// maxIngestBytes, so an idle buffer pins a bounded amount of memory,
// and the pool drops idle buffers across garbage collections.
var bodyPool = sync.Pool{New: func() any { return new(bodyBuf) }}

// release returns b to the pool; b must not be used afterwards.
func (b *bodyBuf) release() { bodyPool.Put(b) }

// text views the body as a string without copying. The view is only
// valid until b is released.
func (b *bodyBuf) text() string { return unsafe.String(unsafe.SliceData(b.data), len(b.data)) }

// readBody reads a POST body into a pooled buffer, enforcing
// maxIngestBytes through http.MaxBytesReader — which, unlike a bare
// LimitReader, also stops the server from draining the rest of an
// oversized upload — writing the error response itself and returning
// ok=false when the request is unusable.
//
// The caller must release the buffer when its handler finishes, and
// nothing may keep a reference into it after that: the next request
// reuses the memory. Decoders that copy what they read (both sketch
// codecs do) are safe on it.
func readBody(w http.ResponseWriter, r *http.Request) (b *bodyBuf, ok bool) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return nil, false
	}
	b = bodyPool.Get().(*bodyBuf)
	// Room for the declared length (at least io.ReadAll's first 512
	// bytes) plus the byte that reads EOF, so an honest Content-Length
	// never regrows the buffer.
	size := int(min(max(r.ContentLength, 512), maxIngestBytes)) + 1
	data, err := readAll(http.MaxBytesReader(w, r.Body, maxIngestBytes), slices.Grow(b.data[:0], size))
	b.data = data
	if err != nil {
		b.release()
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("payload exceeds %d bytes", maxIngestBytes))
			return nil, false
		}
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	return b, true
}

// readAll is io.ReadAll appending to a caller-owned buffer: it reads r
// until EOF, growing buf only when it is full.
func readAll(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)] // let append pick the growth
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// handleIngest accepts a binary-encoded sketch (the output of Encode or
// EncodeAs on an agent, in any registered wire format) and merges it
// into the live layer.
//
// The codec is negotiated from the request's Content-Type: a registered
// media type (application/x-ddsketch, application/x-protobuf) selects
// its codec directly, an explicit but unrecognized type is refused with
// 415 Unsupported Media Type, and an absent or generic client-default
// type falls back to the -wire-format setting — "auto" (the default)
// sniffs the payload's leading bytes, a codec name pins the format.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	b, ok := readBody(w, r)
	if !ok {
		return
	}
	defer b.release()
	body := b.data
	codec, status, err := s.ingestCodec(r.Header.Get("Content-Type"), body)
	if err != nil {
		writeError(w, status, err)
		return
	}
	if err := s.agg.MergeEncoded(codec, body); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ddsketch.ErrIncompatibleSketches) {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	s.sketchesIngested.Add(1)
	if c := s.ingestByFormat[codec.Name()]; c != nil {
		c.Add(1)
	}
	w.WriteHeader(http.StatusAccepted)
}

// ingestCodec resolves the codec an ingest payload should be decoded
// with, returning the HTTP status to respond with when resolution
// fails. Content-Type wins when it names a registered codec; types
// that HTTP clients send by default when the caller expressed no
// choice (curl -d, http.Post with octet-stream, and the like) defer to
// the configured -wire-format instead of being rejected.
func (s *Server) ingestCodec(contentType string, body []byte) (ddsketch.Codec, int, error) {
	if c := ddsketch.CodecByContentType(contentType); c != nil {
		return c, 0, nil
	}
	mediaType, _, _ := strings.Cut(contentType, ";")
	switch strings.ToLower(strings.TrimSpace(mediaType)) {
	case "", "application/octet-stream", "application/x-www-form-urlencoded", "text/plain":
		// Client defaults carry no format intent; use the configured one.
	default:
		return nil, http.StatusUnsupportedMediaType,
			fmt.Errorf("unsupported Content-Type %q (known: application/x-ddsketch, application/x-protobuf, or omit for -wire-format=%s)",
				contentType, s.cfg.WireFormat)
	}
	if s.cfg.WireFormat == "auto" {
		c, err := ddsketch.DetectCodec(body)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		return c, 0, nil
	}
	// Validated at startup, so this lookup cannot fail.
	return ddsketch.CodecByName(s.cfg.WireFormat), 0, nil
}

// handleSketch answers GET /sketch[?format=<codec>][&window=k]: the
// trailing-window aggregate, encoded — the read-side mirror of /ingest,
// and the pull half of tiering. A downstream ddserver can poll a leaf's
// /sketch and POST the bytes straight into its own /ingest (the push
// half is -forward-url), and a DataDog agent can ask for
// format=datadog; either way the downstream merge is exact, so tiering
// costs no accuracy.
//
// The codec is chosen by the format parameter when present (400 for an
// unknown name); otherwise by the Accept header — the first listed
// media type naming a registered codec wins, */* and application/*
// select the native default, q-values are not weighed, and an Accept
// naming only unregistered types is refused with 406 — and an absent
// Accept means native. An empty aggregate exports as a valid empty
// sketch (byte-decodable and mergeable downstream), not an error, so
// pollers need no special case.
func (s *Server) handleSketch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	codec, status, err := exportCodec(r)
	if err != nil {
		writeError(w, status, err)
		return
	}
	trailing, err := s.parseWindow(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	snapshot := s.agg.Trailing(trailing)
	payload, err := codec.Encode(snapshot)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if c := s.exportByFormat[codec.Name()]; c != nil {
		c.Add(1)
	}
	w.Header().Set("Content-Type", codec.ContentType())
	// The exported population and window span ride along as headers for
	// pollers measuring freshness without decoding the payload.
	w.Header().Set("X-Ddsketch-Count", strconv.FormatFloat(snapshot.Count(), 'g', -1, 64))
	w.Header().Set("X-Ddsketch-Windows", strconv.Itoa(trailing))
	_, _ = w.Write(payload)
}

// exportCodec negotiates the wire format of a /sketch response: the
// explicit format parameter wins, then the Accept header, then the
// native default.
func exportCodec(r *http.Request) (ddsketch.Codec, int, error) {
	if format := r.URL.Query().Get("format"); format != "" {
		c := ddsketch.CodecByName(format)
		if c == nil {
			return nil, http.StatusBadRequest,
				fmt.Errorf("unknown format %q (registered: %s)", format, codecNames())
		}
		return c, 0, nil
	}
	accept := r.Header.Get("Accept")
	if accept == "" {
		return ddsketch.NativeCodec, 0, nil
	}
	// First acceptable media range in header order wins; q-values are
	// not weighed (sketch-shipping clients list one type, or a type
	// plus a wildcard).
	for _, part := range strings.Split(accept, ",") {
		mediaType, _, _ := strings.Cut(part, ";")
		mediaType = strings.ToLower(strings.TrimSpace(mediaType))
		if mediaType == "*/*" || mediaType == "application/*" {
			return ddsketch.NativeCodec, 0, nil
		}
		if c := ddsketch.CodecByContentType(mediaType); c != nil {
			return c, 0, nil
		}
	}
	return nil, http.StatusNotAcceptable,
		fmt.Errorf("no acceptable codec for Accept %q (served: %s)", accept, codecContentTypes())
}

// handleValues accepts whitespace-separated raw values, for clients too
// simple to sketch locally. The payload is parsed and validated in full
// first — so a malformed or unindexable value is rejected atomically
// rather than half-ingested — then lands in the live layer through
// AddBatch, which takes each shard lock at most once for the whole
// batch instead of once per value.
//
// The body is parsed in place: fields are read off a string view of the
// pooled buffer readBody filled, and the values go into the slice
// pooled with it. Both die with the handler — the sketch and registry
// copy what they record, label sets copy their key, and errors copy the
// field they name — so nothing references the buffer once it returns.
//
// With a series key — ?key=service=api,endpoint=/login as a query
// parameter, or a first body line of the form key=service=api,… — the
// batch is instead recorded under that series in the keyed registry,
// where it is admission-gated, budget-evicted, and queryable through
// GET /summary?filter=… .
func (s *Server) handleValues(w http.ResponseWriter, r *http.Request) {
	b, ok := readBody(w, r)
	if !ok {
		return
	}
	defer b.release()
	payload := b.text()
	key := r.URL.Query().Get("key")
	if key == "" {
		// Key in the body: a first line "key=<label set>", values after.
		if rest, found := strings.CutPrefix(payload, "key="); found {
			key, payload, _ = strings.Cut(rest, "\n")
			// A CRLF client must name the same series as an LF client:
			// the trailing \r is line framing, not part of the label set.
			key = strings.TrimSuffix(key, "\r")
		}
	}
	var err error
	b.values, err = parseValues(b.values[:0], payload, s.maxIndexable)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	values := b.values
	if key != "" {
		ls, err := registry.ParseLabelSet(key)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if len(values) > 0 {
			if err := s.reg.AddBatch(ls, values); err != nil {
				writeError(w, http.StatusInternalServerError, err)
				return
			}
		}
		s.keyedIngested.Add(int64(len(values)))
		writeJSON(w, http.StatusOK, map[string]any{
			"accepted": len(values),
			"key":      ls.String(),
		})
		return
	}
	if err := s.agg.AddBatch(values); err != nil {
		// Unreachable after validation, but a batch must never be
		// half-acknowledged.
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.valuesIngested.Add(int64(len(values)))
	writeJSON(w, http.StatusOK, map[string]int{"accepted": len(values)})
}

// parseValues appends the value of every whitespace-separated field of
// payload to dst. A field that does not parse as a float, or parses to
// NaN or to a magnitude beyond maxIndexable, fails the whole payload
// with an error naming it.
func parseValues(dst []float64, payload string, maxIndexable float64) ([]float64, error) {
	for i := 0; ; {
		var field string
		if field, i = nextField(payload, i); field == "" {
			return dst, nil
		}
		v, err := strconv.ParseFloat(field, 64)
		if err == nil && !math.IsNaN(v) && math.Abs(v) <= maxIndexable {
			dst = append(dst, v)
			continue
		}
		// payload may view a pooled buffer: no error may point into it.
		field = strings.Clone(field)
		if err != nil {
			return dst, fmt.Errorf("parsing %q: %w", field, err)
		}
		return dst, fmt.Errorf("value %q: %w", field, ddsketch.ErrValueOutOfRange)
	}
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts, as in
// strings.Fields.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// nextField returns the first field of s at or after byte i and the
// index just past it, or "" when only white space remains. Fields split
// exactly as strings.Fields splits them: ASCII bytes are looked up in
// asciiSpace, and anything from 0x80 up is decoded and tested with
// unicode.IsSpace — so U+0085, U+00A0 and U+3000 separate fields, while
// an invalid byte (decoded as U+FFFD) stays inside its field.
func nextField(s string, i int) (field string, next int) {
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			i++
		} else if width, space := decodeSpace(s[i:]); space {
			i += width
		} else {
			break
		}
	}
	start := i
	for i < len(s) {
		if c := s[i]; c-'!' < utf8.RuneSelf-'!' {
			i++ // '!' through DEL, every byte of a number: one compare
		} else if c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
			i++
		} else if width, space := decodeSpace(s[i:]); !space {
			i += width
		} else {
			break
		}
	}
	return s[start:i], i
}

// decodeSpace decodes the rune s starts with and returns its width and
// whether it is white space.
func decodeSpace(s string) (width int, space bool) {
	r, width := utf8.DecodeRuneInString(s)
	return width, unicode.IsSpace(r)
}

// quantileResult is one entry of a /quantile response.
type quantileResult struct {
	Q     float64 `json:"q"`
	Value float64 `json:"value"`
}

// parseQuantiles parses a comma-separated q list ("0.5,0.9,0.99").
func parseQuantiles(qParam string) ([]float64, error) {
	var qs []float64
	for _, part := range strings.Split(qParam, ",") {
		q, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("parsing q %q: %w", part, err)
		}
		qs = append(qs, q)
	}
	return qs, nil
}

// parseWindowParam parses the optional window=k parameter, clamped to
// the given retained window count (so responses report the range
// actually merged). Absent means all retained windows.
func parseWindowParam(r *http.Request, retained int) (int, error) {
	winParam := r.URL.Query().Get("window")
	if winParam == "" {
		return retained, nil
	}
	k, err := strconv.Atoi(winParam)
	if err != nil || k < 1 {
		return 0, fmt.Errorf("invalid window %q", winParam)
	}
	if k < retained {
		retained = k
	}
	return retained, nil
}

// parseWindow is parseWindowParam against the global aggregate's ring.
func (s *Server) parseWindow(r *http.Request) (int, error) {
	return parseWindowParam(r, s.agg.Windows())
}

// handleQuantile answers GET /quantile?q=0.5,0.99[&window=k], merging
// the trailing k windows (default: all retained) exactly once and
// serving every requested quantile from that one merged snapshot.
func (s *Server) handleQuantile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	qParam := r.URL.Query().Get("q")
	if qParam == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing q parameter"))
		return
	}
	qs, err := parseQuantiles(qParam)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	trailing, err := s.parseWindow(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	snapshot := s.agg.Trailing(trailing)
	values, err := snapshot.Quantiles(qs)
	switch {
	case errors.Is(err, ddsketch.ErrEmptySketch):
		writeError(w, http.StatusNotFound, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	results := make([]quantileResult, len(qs))
	for i, q := range qs {
		results[i] = quantileResult{Q: q, Value: values[i]}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"quantiles": results,
		"count":     snapshot.Count(),
		"windows":   trailing,
	})
}

// defaultSummaryQuantiles are served by /summary when no q is given.
var defaultSummaryQuantiles = []float64{0.5, 0.9, 0.95, 0.99}

// handleSummary answers GET /summary[?q=0.5,0.9,0.99][&window=k]: the
// full Summary (count, sum, min, max, avg, quantiles) over the trailing
// k windows in exactly one merge pass.
//
// With ?filter=… the summary is instead a roll-up over the keyed
// registry: filter=* merges every live series plus the overflow sketch
// (evicted and pre-admission values), and filter=service=api,endpoint=*
// merges the series matching every condition (a value of * requires
// the label's presence with any value) — resolved through the
// registry's inverted label index, so a selective filter does not scan
// every live series. On a windowed registry (-registry-windows),
// window=k restricts the roll-up to each series' trailing k intervals
// (clamped to the ring, echoed back as "windows"); on an unwindowed
// registry, keyed series are retained until evicted and window= is
// ignored.
func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	qs := defaultSummaryQuantiles
	if qParam := r.URL.Query().Get("q"); qParam != "" {
		var err error
		qs, err = parseQuantiles(qParam)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	if filterParam := r.URL.Query().Get("filter"); filterParam != "" {
		f, err := registry.ParseFilter(filterParam)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		// Validate the window parameter unconditionally — a malformed
		// window=x is a 400 whether or not the registry is windowed; on an
		// unwindowed registry (Windows() == 0) a valid value clamps to 0
		// and the roll-up ignores it.
		window, err := parseWindowParam(r, s.reg.Windows())
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		summary, matched, err := s.reg.RollUpSummary(f, window, qs...)
		switch {
		case errors.Is(err, ddsketch.ErrEmptySketch):
			writeError(w, http.StatusNotFound, err)
			return
		case err != nil:
			writeError(w, http.StatusBadRequest, err)
			return
		}
		resp := map[string]any{
			"summary": summary,
			"filter":  f.String(),
			"matched": matched,
		}
		if s.reg.Windows() > 0 {
			resp["windows"] = window
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	trailing, err := s.parseWindow(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	summary, err := s.agg.TrailingSummary(trailing, qs...)
	switch {
	case errors.Is(err, ddsketch.ErrEmptySketch):
		writeError(w, http.StatusNotFound, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"summary": summary,
		"windows": trailing,
	})
}

// handleStats reports aggregate statistics and service counters, reading
// the aggregate in a single Summary pass.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	collapseMode := "lowest"
	if s.cfg.Uniform {
		collapseMode = "uniform"
	}
	mappingName := s.cfg.MappingName
	if mappingName == "" {
		mappingName = "log"
	}
	ingestFormats := make(map[string]int64, len(s.ingestByFormat))
	for name, c := range s.ingestByFormat {
		ingestFormats[name] = c.Load()
	}
	exportFormats := make(map[string]int64, len(s.exportByFormat))
	for name, c := range s.exportByFormat {
		exportFormats[name] = c.Load()
	}
	stats := map[string]any{
		"relative_accuracy": s.agg.RelativeAccuracy(),
		"collapse_mode":     collapseMode,
		"mapping":           mappingName,
		"shards":            s.agg.NumShards(),
		"window_interval":   s.cfg.Interval.String(),
		"windows":           s.agg.Windows(),
		"wire_format":       s.cfg.WireFormat,
		"sketches_ingested": s.sketchesIngested.Load(),
		"ingest_formats":    ingestFormats,
		"export_formats":    exportFormats,
		"values_ingested":   s.valuesIngested.Load(),
		"keyed_ingested":    s.keyedIngested.Load(),
		"registry":          s.reg.Stats(),
		"uptime":            s.cfg.Now().Sub(s.started).String(),
	}
	if fs, ok := s.ForwardStats(); ok {
		stats["forward"] = fs
	}
	summary, err := s.summarize(0.5, 0.95, 0.99)
	switch {
	case err == nil:
		stats["count"] = summary.Count
		stats["min"], stats["max"] = summary.Min, summary.Max
		stats["sum"], stats["avg"] = summary.Sum, summary.Avg
		stats["p50"] = summary.Quantiles[0].Value
		stats["p95"] = summary.Quantiles[1].Value
		stats["p99"] = summary.Quantiles[2].Value
		// Under uniform collapse the served accuracy degrades with the
		// data; report what this merged view actually guarantees.
		stats["current_alpha"] = summary.RelativeAccuracy
		stats["collapse_epoch"] = summary.CollapseEpoch
		stats["mapping_detail"] = s.mappingDetail(summary.CollapseEpoch)
	case errors.Is(err, ddsketch.ErrEmptySketch):
		// An empty aggregate is a normal state, not a failure: report
		// zeros at the configured base accuracy.
		stats["count"] = 0.0
		stats["current_alpha"] = s.agg.RelativeAccuracy()
		stats["collapse_epoch"] = 0
		stats["mapping_detail"] = s.mappingDetail(0)
	default:
		// Any other Summary failure is a real one — a merge that could
		// not reconcile, a corrupted slot — and masking it as count=0
		// would hide it from exactly the operators watching this
		// endpoint.
		writeError(w, http.StatusInternalServerError,
			fmt.Errorf("summarizing aggregate: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, stats)
}

// mappingDetail renders the aggregate's active mapping: the configured
// base coarsened to the given collapse epoch — the same derivation the
// wire decoder performs — so /stats reports the full collapse lineage
// (base α, epoch, effective γ), not just the selector name.
func (s *Server) mappingDetail(epoch int) string {
	m, err := s.cfg.newMapping()
	if err != nil {
		return ""
	}
	for i := 0; i < epoch; i++ {
		c, ok := m.(mapping.Coarsenable)
		if !ok {
			break
		}
		next, err := c.Coarsen()
		if err != nil {
			break
		}
		m = next
	}
	return m.String()
}
