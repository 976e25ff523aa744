package ddserver

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/ddsketch-go/ddsketch"
	"github.com/ddsketch-go/ddsketch/encoding"
	"github.com/ddsketch-go/ddsketch/internal/datagen"
	"github.com/ddsketch-go/ddsketch/mapping"
)

// ingestCase is one POST /ingest of the mixed sequence below.
type ingestCase struct {
	name        string
	contentType string
	payload     []byte
	status      int
}

// ingestSequence builds agent payloads of every shape /ingest sees —
// accepted ones in both codecs and both native versions, and one of
// each rejection class — for an aggregate at α = 0.01 with the default
// 2,048-bin limit.
func ingestSequence(t *testing.T) []ingestCase {
	t.Helper()
	seed := uint64(0)
	agent := func(s *ddsketch.DDSketch, err error) *ddsketch.DDSketch {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		seed++
		if err := s.AddBatch(datagen.ParetoSeeded(1000, seed)); err != nil {
			t.Fatal(err)
		}
		if err := s.AddBatch([]float64{0, -2.5}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	v1 := agent(ddsketch.NewCollapsing(0.01, 2048)).Encode()
	v2 := agent(ddsketch.NewUniformCollapsing(0.01, 4096)).Encode()
	if v2[3] != 2 {
		t.Fatalf("uniform agent encoded version %d, want 2", v2[3])
	}
	datadog, err := ddsketch.DataDogCodec.Encode(agent(ddsketch.NewCollapsing(0.01, 512)))
	if err != nil {
		t.Fatal(err)
	}
	wrongMapping := agent(ddsketch.NewCollapsing(0.02, 2048)).Encode()

	// Hand-built native v1 payloads (docs/WIRE_FORMAT.md): statistics
	// min 1, max 2, sum 3, then a dense positive store with two bins
	// and an empty negative store.
	twoBins := func(gap int64, count float64) []byte {
		m, err := mapping.NewLogarithmic(0.01)
		if err != nil {
			t.Fatal(err)
		}
		w := encoding.NewWriter(64)
		for _, b := range []byte{'D', 'D', 'S', 1} {
			w.Byte(b)
		}
		m.Encode(w)
		for _, v := range []float64{0, 1, 2, 3} {
			w.Varfloat64(v)
		}
		w.Byte(1) // dense store
		w.Uvarint(2)
		w.Varint(0)
		w.Varfloat64(count)
		w.Varint(gap)
		w.Varfloat64(count)
		w.Byte(1)
		w.Uvarint(0)
		return w.Bytes()
	}
	const native, protobuf = "application/x-ddsketch", "application/x-protobuf"
	return []ingestCase{
		{"native v1", native, v1, http.StatusAccepted},
		{"native v2 uniform", native, v2, http.StatusAccepted},
		{"datadog", protobuf, datadog, http.StatusAccepted},
		{"truncated", native, v1[:len(v1)/2], http.StatusBadRequest},
		{"wrong mapping", native, wrongMapping, http.StatusConflict},
		{"huge span", native, twoBins(1<<23, 1), http.StatusBadRequest},
		{"overflowing weight", native, twoBins(1, 1e308), http.StatusBadRequest},
		{"native v1 again", "", v1, http.StatusAccepted},
	}
}

// TestServerIngestMatchesDecodeMerge: a mixed /ingest sequence leaves
// an aggregate whose /sketch export equals Decode + MergeWith of just
// the accepted payloads. Sequentially (one shard) the export is
// byte-identical; with four concurrent writers (run it under -race)
// every bin, count and extreme is exact and the sum agrees up to
// floating-point summation order.
func TestServerIngestMatchesDecodeMerge(t *testing.T) {
	cases := ingestSequence(t)
	for _, writers := range []int{1, 4} {
		t.Run(fmt.Sprintf("writers=%d", writers), func(t *testing.T) {
			clock := newTestClock()
			cfg := DefaultConfig()
			cfg.Interval = time.Minute
			cfg.Windows = 5
			cfg.Shards = writers
			cfg.Now = clock.Now
			srv, err := NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Close)
			h := srv.Handler()

			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, c := range cases {
						req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(c.payload))
						if c.contentType != "" {
							req.Header.Set("Content-Type", c.contentType)
						}
						rec := httptest.NewRecorder()
						h.ServeHTTP(rec, req)
						if rec.Code != c.status {
							t.Errorf("%s: status %d, want %d: %s", c.name, rec.Code, c.status, rec.Body)
						}
					}
				}()
			}
			wg.Wait()

			want, err := ddsketch.NewSketch(ddsketch.WithRelativeAccuracy(0.01), ddsketch.WithMaxBins(2048))
			if err != nil {
				t.Fatal(err)
			}
			accepted := 0
			for w := 0; w < writers; w++ {
				for _, c := range cases {
					if c.status != http.StatusAccepted {
						continue
					}
					decoded, err := ddsketch.Decode(c.payload)
					if err != nil {
						t.Fatal(err)
					}
					if err := want.MergeWith(decoded); err != nil {
						t.Fatal(err)
					}
					accepted++
				}
			}
			if got := srv.sketchesIngested.Load(); got != int64(accepted) {
				t.Errorf("sketches_ingested = %d, want %d", got, accepted)
			}

			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sketch", nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("GET /sketch: status %d: %s", rec.Code, rec.Body)
			}
			export, err := io.ReadAll(rec.Body)
			if err != nil {
				t.Fatal(err)
			}
			ref := want.(*ddsketch.DDSketch)
			if writers == 1 {
				if !bytes.Equal(export, ref.Encode()) {
					t.Error("export differs from Decode + MergeWith of the accepted payloads")
				}
				return
			}
			got, err := ddsketch.Decode(export)
			if err != nil {
				t.Fatal(err)
			}
			assertSameBins(t, got, ref)
		})
	}
}

// assertSameBins compares two sketches whose merges ran in different
// orders: bins, counts and extremes exactly, the sum to rounding.
func assertSameBins(t *testing.T, got, want *ddsketch.DDSketch) {
	t.Helper()
	type bin struct{ value, count float64 }
	collect := func(s *ddsketch.DDSketch) []bin {
		var bins []bin
		s.ForEach(func(value, count float64) bool {
			bins = append(bins, bin{value, count})
			return true
		})
		return bins
	}
	gotBins, wantBins := collect(got), collect(want)
	if len(gotBins) != len(wantBins) {
		t.Fatalf("%d bins, want %d", len(gotBins), len(wantBins))
	}
	for i := range wantBins {
		if gotBins[i] != wantBins[i] {
			t.Errorf("bin %d = %v, want %v", i, gotBins[i], wantBins[i])
		}
	}
	if got.Count() != want.Count() || got.ZeroCount() != want.ZeroCount() {
		t.Errorf("count %v zero %v, want %v %v", got.Count(), got.ZeroCount(), want.Count(), want.ZeroCount())
	}
	for _, stat := range []func(*ddsketch.DDSketch) (float64, error){
		(*ddsketch.DDSketch).Min, (*ddsketch.DDSketch).Max,
	} {
		g, _ := stat(got)
		w, _ := stat(want)
		if g != w {
			t.Errorf("extreme %v, want %v", g, w)
		}
	}
	gs, _ := got.Sum()
	ws, _ := want.Sum()
	if math.Abs(gs-ws) > 1e-9*math.Abs(ws) {
		t.Errorf("sum %v, want %v", gs, ws)
	}
}

// BenchmarkServerIngest times the /ingest handler — body read, codec
// negotiation, decode and merge into the sharded live layer — on
// agent payloads of 1,000 Pareto values, one run per codec.
func BenchmarkServerIngest(b *testing.B) {
	agent, err := ddsketch.NewCollapsing(0.01, 2048)
	if err != nil {
		b.Fatal(err)
	}
	if err := agent.AddBatch(datagen.ParetoSeeded(1000, 1)); err != nil {
		b.Fatal(err)
	}
	for _, codec := range ddsketch.Codecs() {
		b.Run(codec.Name(), func(b *testing.B) {
			payload, err := codec.Encode(agent)
			if err != nil {
				b.Fatal(err)
			}
			h := newValuesServer(b).Handler()
			rd := bytes.NewReader(payload)
			req := httptest.NewRequest(http.MethodPost, "/ingest", rd)
			req.Header.Set("Content-Type", codec.ContentType())
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(payload)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusAccepted {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
		})
	}
}
