package ddserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/ddsketch-go/ddsketch"
	"github.com/ddsketch-go/ddsketch/internal/datagen"
	"github.com/ddsketch-go/ddsketch/registry"
)

// newValuesServer builds a server on a frozen clock for driving
// /values through its handler directly.
func newValuesServer(tb testing.TB) *Server {
	tb.Helper()
	clock := newTestClock()
	cfg := DefaultConfig()
	cfg.Interval = time.Minute
	cfg.Windows = 5
	cfg.Shards = 8
	cfg.Now = clock.Now
	srv, err := NewServer(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Close)
	return srv
}

// postValues POSTs body to /values through h and returns the status and
// the decoded JSON reply.
func postValues(tb testing.TB, h http.Handler, body string) (int, map[string]any) {
	tb.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/values", strings.NewReader(body)))
	var out map[string]any
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		tb.Fatalf("POST /values %q: decoding reply: %v", body, err)
	}
	return rec.Code, out
}

// splitKey cuts a body-line key off body, as /values does.
func splitKey(body string) (key, payload string) {
	payload = body
	if rest, ok := strings.CutPrefix(body, "key="); ok {
		key, payload, _ = strings.Cut(rest, "\n")
		key = strings.TrimSuffix(key, "\r")
	}
	return key, payload
}

// referenceParse is the /values parsing contract spelled with
// strings.Fields and strconv.ParseFloat.
func referenceParse(payload string, maxIndexable float64) ([]float64, error) {
	var values []float64
	for _, field := range strings.Fields(payload) {
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", field, err)
		}
		if math.IsNaN(v) || math.Abs(v) > maxIndexable {
			return nil, fmt.Errorf("value %q: %w", field, ddsketch.ErrValueOutOfRange)
		}
		values = append(values, v)
	}
	return values, nil
}

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameValues compares bit for bit, so -0 and 0 differ.
func sameValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestServerValuesWhitespace: the in-place field scanner splits a body
// exactly where strings.Fields does — every Unicode space separates,
// nothing else does — and the status and accepted count follow.
func TestServerValuesWhitespace(t *testing.T) {
	srv := newValuesServer(t)
	h := srv.Handler()
	cases := []struct {
		name   string
		body   string
		status int
		want   []float64
	}{
		{"tabs", "1\t2\t\t3", http.StatusOK, []float64{1, 2, 3}},
		{"crlf", "1\r\n2\r\n3\r\n", http.StatusOK, []float64{1, 2, 3}},
		{"leading and trailing blanks", "  \t 1 2   \n", http.StatusOK, []float64{1, 2}},
		{"vertical tab and form feed", "\v1\f2\v", http.StatusOK, []float64{1, 2}},
		{"U+0085 next line", "1\u00852", http.StatusOK, []float64{1, 2}},
		{"U+00A0 no-break space", "1\u00a02 \u00a0 3", http.StatusOK, []float64{1, 2, 3}},
		{"U+3000 ideographic space", "\u30001\u30002\u3000", http.StatusOK, []float64{1, 2}},
		{"empty body", "", http.StatusOK, nil},
		{"only blanks", " \t\r\n\u3000\u0085 ", http.StatusOK, nil},
		{"keyed, CRLF and U+00A0", "key=service=api\r\n4\u00a05", http.StatusOK, []float64{4, 5}},
		{"invalid UTF-8 inside a field", "1 2\xff3 4", http.StatusBadRequest, nil},
		{"lone invalid byte", "\xff", http.StatusBadRequest, nil},
		{"U+200B is not a space", "1\u200b2", http.StatusBadRequest, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, out := postValues(t, h, c.body)
			if status != c.status {
				t.Fatalf("status %d, want %d (reply %v)", status, c.status, out)
			}
			_, payload := splitKey(c.body)
			if ref, err := referenceParse(payload, srv.maxIndexable); (err == nil) != (c.status == http.StatusOK) || !sameValues(ref, c.want) {
				t.Fatalf("strings.Fields reference = %v, %v; the case wants %d %v", ref, err, c.status, c.want)
			}
			if status != http.StatusOK {
				return
			}
			if got := out["accepted"].(float64); got != float64(len(c.want)) {
				t.Errorf("accepted = %g, want %d", got, len(c.want))
			}
			got, err := parseValues(nil, payload, srv.maxIndexable)
			if err != nil || !sameValues(got, c.want) {
				t.Errorf("parseValues = %v, %v; want %v", got, err, c.want)
			}
		})
	}
}

// TestServerValuesPooledBodyReuse: request buffers are recycled, so a
// series keyed from a body line, its recorded values, and an error
// naming a field must all survive later requests reusing that memory.
func TestServerValuesPooledBodyReuse(t *testing.T) {
	srv := newValuesServer(t)
	h := srv.Handler()

	status, out := postValues(t, h, "key=service=a,endpoint=/x\n1 2 3 4 5")
	if status != http.StatusOK || out["key"] != "endpoint=/x,service=a" {
		t.Fatalf("first batch: status %d, reply %v", status, out)
	}
	status, out = postValues(t, h, "7 8 bogus-field 9")
	if status != http.StatusBadRequest {
		t.Fatalf("malformed batch: status %d, want 400", status)
	}
	wantErr := out["error"].(string)

	// 50 bodies of different lengths, half of them keyed, all reusing
	// pooled buffers.
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if i%2 == 0 {
			fmt.Fprintf(&sb, "key=service=b%d,endpoint=/%s\n", i, strings.Repeat("y", i))
		}
		for j := 0; j < 1+(i*37)%400; j++ {
			fmt.Fprintf(&sb, "%d ", 1000+i*j)
		}
		if status, out := postValues(t, h, sb.String()); status != http.StatusOK {
			t.Fatalf("body %d: status %d, reply %v", i, status, out)
		}
	}

	// The first series still holds exactly the first batch, found
	// through the label index.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/summary?filter="+url.QueryEscape("service=a"), nil))
	var summary struct {
		Matched int `json:"matched"`
		Summary struct {
			Count, Sum, Min, Max float64
		} `json:"summary"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&summary); err != nil {
		t.Fatal(err)
	}
	if s := summary.Summary; summary.Matched != 1 || s.Count != 5 || s.Sum != 15 || s.Min != 1 || s.Max != 5 {
		t.Errorf("service=a roll-up = %+v, want 1 series holding 1..5", summary)
	}
	// The stored labels read back byte-identical: the full scan compares
	// each series' own label strings against the exact pair.
	for _, filter := range []string{"service=a,endpoint=/x", "endpoint=/x"} {
		f, err := registry.ParseFilter(filter)
		if err != nil {
			t.Fatal(err)
		}
		sk, matched, err := srv.reg.RollUpScan(f, 0)
		if err != nil || matched != 1 || sk.Count() != 5 {
			t.Errorf("scan %s: matched %d, err %v", filter, matched, err)
		}
	}

	// Concurrent writers draw buffers from the pool at once; each keeps
	// its own series, holding exactly what it sent.
	const writers, bodies = 4, 25
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 1; k <= bodies; k++ {
				body := fmt.Sprintf("key=service=c%d\n%s", g, strings.Repeat(fmt.Sprintf("%d ", g+1), k))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/values", strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Errorf("writer %d body %d: status %d, reply %s", g, k, rec.Code, rec.Body)
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < writers; g++ {
		f, err := registry.ParseFilter(fmt.Sprintf("service=c%d", g))
		if err != nil {
			t.Fatal(err)
		}
		const want = bodies * (bodies + 1) / 2
		sk, matched, err := srv.reg.RollUp(f, 0)
		if err != nil || matched != 1 || sk.Count() != want {
			t.Fatalf("writer %d: matched %d, err %v; want one series of %d values", g, matched, err, want)
		}
		if sum, err := sk.Sum(); err != nil || sum != float64(want*(g+1)) {
			t.Errorf("writer %d: sum %g, err %v; want %d", g, sum, err, want*(g+1))
		}
	}

	// A malformed body still gets the same 400 naming its field.
	if status, out := postValues(t, h, "7 8 bogus-field 9"); status != http.StatusBadRequest || out["error"] != wantErr {
		t.Errorf("malformed batch after reuse: status %d, error %q; want 400, %q", status, out["error"], wantErr)
	}
	if !strings.Contains(wantErr, `"bogus-field"`) {
		t.Errorf("error %q does not name the malformed field", wantErr)
	}
	// An error built from a buffer outlives the buffer's next use.
	data := []byte("7 8 bogus-field 9")
	_, err := parseValues(nil, unsafe.String(unsafe.SliceData(data), len(data)), srv.maxIndexable)
	copy(data, bytes.Repeat([]byte("#"), len(data)))
	if err == nil || err.Error() != wantErr {
		t.Errorf("error after its buffer was overwritten = %v, want %q", err, wantErr)
	}
}

// FuzzValuesBody holds /values to its strings.Fields reference on
// arbitrary bodies: the same status and error text, and the same
// accepted values in the same order.
func FuzzValuesBody(f *testing.F) {
	for _, seed := range []string{
		"1 2 3", "", " \t\r\n", "1\t2\r\n3", "1\u00852\u00a03\u30004", "1 2\xff3", "\xff\xfe",
		"nan", "inf -Inf", "1e309", "1.79e308", "0x1p-2 1_000 +.5 -0", "1e-320",
		"key=service=a\n1 2", "key=service=a\r\n1 2\r\n", "key=\n1", "key==x\n1", "key=a=1",
	} {
		f.Add(seed)
	}
	srv := newValuesServer(f)
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		key, payload := splitKey(body)
		want, wantErr := referenceParse(payload, srv.maxIndexable)
		got, err := parseValues(nil, payload, srv.maxIndexable)
		if errText(err) != errText(wantErr) {
			t.Fatalf("parseValues error %q, want %q", errText(err), errText(wantErr))
		}
		if err == nil && !sameValues(got, want) {
			t.Fatalf("parseValues = %v, want %v", got, want)
		}
		if wantErr == nil && key != "" {
			_, wantErr = registry.ParseLabelSet(key)
		}
		wantStatus := http.StatusOK
		if wantErr != nil {
			wantStatus = http.StatusBadRequest
		}
		status, out := postValues(t, h, body)
		switch {
		case status != wantStatus:
			t.Fatalf("status %d, want %d (reply %v)", status, wantStatus, out)
		case status == http.StatusOK && out["accepted"] != float64(len(want)):
			t.Fatalf("accepted = %v, want %d", out["accepted"], len(want))
		case status != http.StatusOK && out["error"] != wantErr.Error():
			t.Fatalf("error %q, want %q", out["error"], wantErr)
		}
	})
}

// BenchmarkServerValues times the /values handler — body read, parse,
// validation and the sharded AddBatch — on a 2,000-value span-dataset
// body, reporting per-value time and allocated bytes.
func BenchmarkServerValues(b *testing.B) {
	srv := newValuesServer(b)
	h := srv.Handler()
	values := datagen.SpanSeeded(2000, 1)
	var body []byte
	for i, v := range values {
		if i > 0 {
			body = append(body, ' ')
		}
		body = strconv.AppendFloat(body, v, 'g', -1, 64)
	}
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/values", rd)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(len(values))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/value")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/value")
}
