package registry

import (
	"bytes"
	"errors"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzLabelSetRoundTrip asserts the canonicalization contract over
// arbitrary input: parsing never panics; it agrees with the reference
// split-then-sort canonicalizer (labels_ref_test.go) — both accept with
// the same canonical string and labels, or both reject with
// ErrInvalidLabelSet; and when it succeeds the canonical encoding is a
// fixed point — parse → String → parse yields the identical canonical
// string, with the labels intact and addressable via Get. Canonical
// encodings are the registry's map keys, so a non-idempotent encoding
// would silently split one series into several. NewLabelSet is held to
// its reference the same way, on pairs cut from the input at '|' and
// ':' so names and values may carry ',', '=' and whitespace.
func FuzzLabelSetRoundTrip(f *testing.F) {
	seeds := []string{
		"service=api",
		"service=api,endpoint=/login,status=500",
		"b=2,a=1",
		" a = 1 , b = 2 ",
		"empty=",
		"expr=a=b=c",
		"q=a b c",
		"a=1,a=2",
		"b=1,a=2,b=3",
		"=nope",
		"noequals",
		",",
		"a=1,",
		strings.Repeat("k=v,", 100),
		strings.Repeat("x", MaxEncodedLength+1),
		"\x00=\x01",
		"k=\xff\xfe",
		"\u00a0k\u2003=\u0085v\u3000",
		"*=*",
		"a:1|b:2",
		"a:1|a:2",
		" a:1",
		"a,b:1",
		"a:1,2",
		"a=b:1",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ls, err := ParseLabelSet(s)
		ref, refErr := refParseLabelSet(s)
		assertSameLabelSet(t, "ParseLabelSet", s, ls, err, ref, refErr)

		var pairs []Label
		for _, p := range strings.Split(s, "|") {
			name, value, _ := strings.Cut(p, ":")
			pairs = append(pairs, Label{Name: name, Value: value})
		}
		built, err := NewLabelSet(pairs...)
		ref, refErr = refNewLabelSet(pairs...)
		assertSameLabelSet(t, "NewLabelSet on the pairs of", s, built, err, ref, refErr)

		if ls.IsZero() {
			return // hostile input rejected without panicking: fine
		}
		canonical := ls.String()
		again, err := ParseLabelSet(canonical)
		if err != nil {
			t.Fatalf("canonical %q does not re-parse: %v", canonical, err)
		}
		if again.String() != canonical {
			t.Fatalf("canonicalization not idempotent: %q -> %q", canonical, again.String())
		}
		// The labels survive the round trip and stay addressable.
		labels := ls.Labels()
		if len(labels) != again.Len() {
			t.Fatalf("label count changed: %d -> %d", len(labels), again.Len())
		}
		for _, l := range labels {
			if v, ok := again.Get(l.Name); !ok || v != l.Value {
				t.Fatalf("label %q=%q lost in round trip (got %q, %v)", l.Name, l.Value, v, ok)
			}
		}
		// Rebuilding from explicit pairs agrees with the parser.
		rebuilt, err := NewLabelSet(labels...)
		if err != nil {
			t.Fatalf("NewLabelSet(%v): %v", labels, err)
		}
		if rebuilt.String() != canonical {
			t.Fatalf("NewLabelSet disagrees with parser: %q vs %q", rebuilt.String(), canonical)
		}
	})
}

// assertSameLabelSet fails unless a canonicalizer's result on input
// agrees with the reference's: both rejected with ErrInvalidLabelSet,
// or both accepted with the same canonical string and labels.
func assertSameLabelSet(t *testing.T, call, input string, got LabelSet, err error, want LabelSet, wantErr error) {
	t.Helper()
	if err != nil || wantErr != nil {
		if !errors.Is(err, ErrInvalidLabelSet) || !errors.Is(wantErr, ErrInvalidLabelSet) {
			t.Fatalf("%s %q: error %v, reference error %v; want both ErrInvalidLabelSet", call, input, err, wantErr)
		}
		return
	}
	if got.String() == "" || got.IsZero() {
		t.Fatalf("%s %q accepted but produced a zero set", call, input)
	}
	if got.String() != want.String() || !slices.Equal(got.Labels(), want.Labels()) {
		t.Fatalf("%s %q = %q %q, reference %q %q", call, input, got.String(), got.Labels(), want.String(), want.Labels())
	}
}

// FuzzFilterMatch asserts the tag-filter parser is total (never
// panics), that accepted filters round-trip through their canonical
// encoding, and that matching is consistent: "*" matches every parsed
// series, and a filter built from a series' own labels matches it.
func FuzzFilterMatch(f *testing.F) {
	seeds := []struct{ filter, series string }{
		{"*", "service=api"},
		{"service=api", "service=api,endpoint=/a"},
		{"service=*", "service=web"},
		{"endpoint=*,service=api", "endpoint=/login,service=api"},
		{"a=1,b=*", "a=1,b=2,c=3"},
		{"a=*,a=1", "a=1"},
		{"", "a=1"},
		{"**", "a=1"},
		{"=x", "a=1"},
		{"a=\x00", "a=\x00"},
	}
	for _, s := range seeds {
		f.Add(s.filter, s.series)
	}
	f.Fuzz(func(t *testing.T, filterInput, seriesInput string) {
		filter, ferr := ParseFilter(filterInput)
		series, serr := ParseLabelSet(seriesInput)
		if ferr == nil {
			canonical := filter.String()
			again, err := ParseFilter(canonical)
			if err != nil {
				t.Fatalf("canonical filter %q does not re-parse: %v", canonical, err)
			}
			if again.String() != canonical {
				t.Fatalf("filter canonicalization not idempotent: %q -> %q", canonical, again.String())
			}
			if serr == nil {
				// Matching must not panic and must agree between the
				// filter and its re-parsed canonical form.
				if filter.Matches(series) != again.Matches(series) {
					t.Fatalf("filter %q and its canonical form disagree on %q", filterInput, series.String())
				}
			}
		}
		if serr != nil {
			return
		}
		if !MatchAll().Matches(series) {
			t.Fatalf("MatchAll rejected %q", series.String())
		}
		// A series always satisfies the filter spelled from its own
		// labels — unless one of its values is the reserved wildcard
		// token, which the filter grammar reads as "any value" (still a
		// match) — so equality-filter self-match must always hold.
		self, err := ParseFilter(series.String())
		if err != nil {
			// A label value can be syntactically valid for a series but
			// not for a filter? No: the grammars match — this is a bug.
			t.Fatalf("series %q is not a valid filter: %v", series.String(), err)
		}
		if !self.Matches(series) {
			t.Fatalf("series %q does not match its own filter", series.String())
		}
	})
}

// FuzzInvertedIndexConsistency replays an arbitrary interleaving of
// installs (admission-gated adds across a small key universe), clock
// advances and rewinds, rotations, and budget evictions against a
// windowed registry. After every step each segment's LRU order must
// keep the invariant Rotate's tail walk relies on, and after every
// Rotate no live series may be idle — so the tail walk expires exactly
// what a walk over every live series would. At the end it asserts the
// correctness contract of the inverted label index: for every filter
// and trailing window, the index-driven roll-up is bin-identical (same
// matched count, same encoded bytes) to the reference full scan. Any
// install/evict/expire path that forgets to maintain a posting list
// shows up here as a divergence.
func FuzzInvertedIndexConsistency(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{3, 3, 3, 3})                           // clock advances only
	f.Add(bytes.Repeat([]byte{0, 40, 80, 120}, 32))     // heavy installs, one gen
	f.Add(bytes.Repeat([]byte{0, 3, 160, 4, 200}, 20))  // add/advance/rotate mix
	f.Add(bytes.Repeat([]byte{3, 3, 49, 37, 65, 4}, 8)) // installs straddling rewinds
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		clock := newFakeClock()
		m, err := New(
			WithKeyWindow(3, time.Second, clock.Now),
			WithMaxSketches(8),        // small budget: evictions are routine
			WithAdmissionThreshold(2), // gating on: not every add installs
			WithAdmissionDecay(1),
			WithSegments(2),
		)
		if err != nil {
			t.Fatal(err)
		}
		// A small key universe so filters hit several keys per segment:
		// 24 keys over service × endpoint × zone.
		keys := make([]LabelSet, 24)
		for i := range keys {
			ls, err := NewLabelSet(
				Label{Name: "service", Value: "svc" + strconv.Itoa(i%3)},
				Label{Name: "endpoint", Value: "/ep" + strconv.Itoa(i%8)},
				Label{Name: "zone", Value: "z" + strconv.Itoa(i%2)},
			)
			if err != nil {
				t.Fatal(err)
			}
			keys[i] = ls
		}
		for _, b := range data {
			switch b % 8 {
			case 3:
				clock.Advance(500 * time.Millisecond)
			case 4:
				m.Rotate()
			case 5:
				clock.Advance(-1500 * time.Millisecond)
			default:
				key := keys[int(b>>3)%len(keys)]
				if err := m.AddWithCount(key, 1+float64(b%7), 1+float64(b%3)); err != nil {
					t.Fatal(err)
				}
			}
			if err := lruInvariantErr(m, b%8 == 4); err != nil {
				t.Fatal(err)
			}
		}
		filters := []string{
			"service=svc0",
			"service=svc1,zone=z1",
			"endpoint=/ep5",
			"endpoint=*",
			"service=svc2,endpoint=*,zone=z0",
			"service=absent",
		}
		for _, fs := range filters {
			filter, err := ParseFilter(fs)
			if err != nil {
				t.Fatal(err)
			}
			for _, window := range []int{0, 1, 3} {
				idx, nIdx, ierr := m.RollUp(filter, window)
				scan, nScan, serr := m.RollUpScan(filter, window)
				if (ierr == nil) != (serr == nil) {
					t.Fatalf("filter %q window %d: index err %v, scan err %v", fs, window, ierr, serr)
				}
				if nIdx != nScan {
					t.Fatalf("filter %q window %d: index matched %d, scan matched %d", fs, window, nIdx, nScan)
				}
				if ierr != nil {
					continue
				}
				if !bytes.Equal(idx.Encode(), scan.Encode()) {
					t.Fatalf("filter %q window %d: index and scan roll-ups diverge (matched %d)", fs, window, nIdx)
				}
			}
		}
	})
}
