// Command ddserver is a DDSketch aggregation service: the central half
// of the architecture in §1 of the paper, where a fleet of agents each
// sketch their local traffic and ship the (fully-mergeable) sketches to
// an aggregator that answers quantile queries over the combined stream.
//
// The aggregate is a ddsketch.WindowedSharded (built with
// ddsketch.NewSketch options): ingest goes through a sharded concurrent
// sketch (no global write lock), which is periodically drained into a
// ring of time windows, so queries can ask for trailing sub-ranges of
// recent history. Multi-statistic reads (/summary, multi-q /quantile,
// /stats) merge the shards and ring exactly once per request.
//
// Alongside the global aggregate, a keyed plane (registry.SketchMap)
// retains one sketch per tagged series — admission-gated against
// one-shot keys and evicted into an overflow sketch under a
// configurable budget, so adversarial cardinality degrades granularity
// but never correctness or memory. Keyed ingest reuses POST /values
// with a key, and GET /summary?filter=... rolls matching series up.
//
// Servers tier into a leaf→root topology: GET /sketch exports the
// aggregate in any registered wire format (pull), and -forward-url
// makes this server a leaf that ships every closed window interval to
// a root's /ingest (push) — spooled, retried with capped exponential
// backoff, shed-and-counted when a root outage outlives -forward-spool.
// Exact mergeability means the root answers as if it had ingested every
// leaf's stream directly.
//
// Endpoints:
//
//	POST /ingest          body: binary sketch in any registered wire
//	                      format (native ddsketch.Encode output, or the
//	                      DataDog sketches-go protobuf format). The codec
//	                      is picked from Content-Type when it names a
//	                      registered type (application/x-ddsketch,
//	                      application/x-protobuf); unknown explicit types
//	                      get 415; generic/absent types fall back to
//	                      -wire-format (default auto-sniff)
//	POST /values          body: whitespace-separated raw values;
//	                      ?key=service=api,endpoint=/login (or a first
//	                      body line "key=...") routes the batch to the
//	                      keyed registry instead of the aggregate
//	GET  /sketch[?format=native|datadog][&window=k]
//	                      the trailing-window aggregate, encoded; the
//	                      codec comes from format= or Accept negotiation
//	GET  /quantile?q=0.5,0.99[&window=k]
//	GET  /summary[?q=0.5,0.9,0.99][&window=k]
//	GET  /summary?filter=service=api,endpoint=*[&window=k]
//	                      keyed roll-up ("*" = all + overflow), resolved
//	                      through the registry's inverted label index;
//	                      window=k restricts it to each series' trailing
//	                      k intervals when -registry-windows is set
//	GET  /stats
//	GET  /metrics         Prometheus text format
//	GET  /healthz
//
// Example:
//
//	ddserver -addr :8080 -alpha 0.01 -window 10s -windows 6
//	ddserver -mapping cubic -uniform-collapse -max-bins 512
//	ddserver -registry-sketches 10000 -registry-admission 2
//	ddserver -addr :8081 -forward-url http://root:8080/ingest   # leaf
//	curl -s 'localhost:8080/quantile?q=0.5,0.99'
//	curl -s 'localhost:8080/summary'
//	curl -s -d '1.5 2.5 3.5' 'localhost:8080/values?key=service=api'
//	curl -s 'localhost:8080/summary?filter=service=api'
//	curl -s -H 'Accept: application/x-protobuf' localhost:8080/sketch >agg.pb
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"github.com/ddsketch-go/ddsketch/internal/ddserver"
)

func main() {
	cfg := ddserver.DefaultConfig()
	flag.StringVar(&cfg.Addr, "addr", cfg.Addr, "listen address")
	flag.Float64Var(&cfg.Alpha, "alpha", cfg.Alpha, "relative accuracy α of the aggregate sketch")
	flag.StringVar(&cfg.MappingName, "mapping", cfg.MappingName,
		"index mapping: log, linear, quadratic, cubic (interpolated mappings skip math.Log on insertion)")
	flag.IntVar(&cfg.MaxBins, "max-bins", cfg.MaxBins, "bucket budget (per store when collapsing lowest, total when uniform)")
	flag.BoolVar(&cfg.Uniform, "uniform-collapse", cfg.Uniform,
		"collapse uniformly under the bin budget (UDDSketch: degrade α everywhere) instead of lowest-first")
	flag.IntVar(&cfg.Shards, "shards", cfg.Shards, "ingest shard count (0 = auto from GOMAXPROCS)")
	flag.DurationVar(&cfg.Interval, "window", cfg.Interval, "duration of one aggregation window")
	flag.IntVar(&cfg.Windows, "windows", cfg.Windows, "number of retained windows")
	flag.StringVar(&cfg.WireFormat, "wire-format", cfg.WireFormat,
		"ingest format when Content-Type is absent or generic: auto (sniff), or a codec name")
	flag.IntVar(&cfg.RegistrySketches, "registry-sketches", cfg.RegistrySketches,
		"per-key sketch budget of the keyed registry (LRU-evicts into overflow beyond this)")
	flag.Float64Var(&cfg.RegistryAdmission, "registry-admission", cfg.RegistryAdmission,
		"estimated weight a key needs before earning its own sketch (<=0 admits immediately)")
	flag.IntVar(&cfg.RegistryWindows, "registry-windows", cfg.RegistryWindows,
		"per-key window ring size of the keyed registry (0 = unwindowed; series then retain their whole history)")
	flag.DurationVar(&cfg.RegistryInterval, "registry-interval", cfg.RegistryInterval,
		"duration of one keyed window interval (0 = inherit -window)")
	flag.StringVar(&cfg.Forward.URL, "forward-url", cfg.Forward.URL,
		"root /ingest URL to forward each closed window interval to (empty = no forwarding)")
	flag.StringVar(&cfg.Forward.Format, "forward-format", cfg.Forward.Format,
		"wire format forwarded intervals are encoded in (native is lossless)")
	flag.IntVar(&cfg.Forward.Spool, "forward-spool", cfg.Forward.Spool,
		"closed intervals spooled while the root is unreachable (beyond this the oldest is shed and counted)")
	flag.DurationVar(&cfg.Forward.Timeout, "forward-timeout", cfg.Forward.Timeout,
		"per-attempt timeout for one forwarded POST")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "ddserver:", err)
		os.Exit(1)
	}
}

// Listener timeouts. ReadHeaderTimeout cuts off clients that trickle
// their headers, ReadTimeout bounds a whole request including its body
// (an /ingest sketch or a /values batch), and IdleTimeout reclaims
// idle keep-alive connections.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the listener serving handler on addr.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// run serves until the listener fails. Its deferred cleanup (closing
// the server, stopping the drain loop) runs before main exits.
func run(cfg ddserver.Config) error {
	srv, err := ddserver.NewServer(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	// Drain the sharded layer into the current time window at twice the
	// window frequency, so values land in the window they arrived in —
	// and so a forwarding leaf notices rotations promptly while idle.
	ticker := time.NewTicker(cfg.Interval / 2)
	defer ticker.Stop()
	stop := make(chan struct{})
	defer close(stop)
	go srv.RunDrainLoop(ticker.C, stop)

	if cfg.Forward.URL != "" {
		log.Printf("ddserver forwarding closed windows to %s (format=%s, spool=%d)",
			cfg.Forward.URL, cfg.Forward.Format, cfg.Forward.Spool)
	}
	log.Printf("ddserver listening on %s (α=%g, mapping=%s, %d windows × %v)",
		cfg.Addr, cfg.Alpha, cfg.MappingName, cfg.Windows, cfg.Interval)
	return newHTTPServer(cfg.Addr, srv.Handler()).ListenAndServe()
}
