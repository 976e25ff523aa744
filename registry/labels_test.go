package registry

import (
	"errors"
	"strings"
	"testing"
	"unsafe"
)

func TestParseLabelSetCanonicalizes(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"service=api", "service=api"},
		{"b=2,a=1", "a=1,b=2"},
		{"service=api,endpoint=/login,status=500", "endpoint=/login,service=api,status=500"},
		{" service = api , status = 500 ", "service=api,status=500"},
		{"empty=", "empty="},
		{"expr=a=b", "expr=a=b"}, // first '=' splits; values may contain '='
		{"q=a b c", "q=a b c"},   // values may contain spaces (interior)
	}
	for _, c := range cases {
		ls, err := ParseLabelSet(c.in)
		if err != nil {
			t.Errorf("ParseLabelSet(%q): %v", c.in, err)
			continue
		}
		if ls.String() != c.want {
			t.Errorf("ParseLabelSet(%q) = %q, want %q", c.in, ls.String(), c.want)
		}
		// Canonical form is a fixed point.
		again, err := ParseLabelSet(ls.String())
		if err != nil {
			t.Errorf("re-parsing %q: %v", ls.String(), err)
		} else if again.String() != ls.String() {
			t.Errorf("re-parse changed canonical form: %q -> %q", ls.String(), again.String())
		}
	}
}

func TestParseLabelSetRejectsHostileInputs(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"noequals",
		"a=1,noequals",
		"=value",
		" = ",
		"a=1,a=2",  // duplicate name
		"a=1,",     // empty trailing pair
		",a=1",     // empty leading pair
		"a=1,,b=2", // empty middle pair
		strings.Repeat("x", MaxEncodedLength+1) + "=1",
		manyLabels(MaxLabels + 1),
	}
	for _, in := range bad {
		if _, err := ParseLabelSet(in); !errors.Is(err, ErrInvalidLabelSet) {
			t.Errorf("ParseLabelSet(%.40q) error = %v, want ErrInvalidLabelSet", in, err)
		}
	}
}

func manyLabels(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("k")
		b.WriteRune(rune('a' + i%26))
		b.WriteString(string(rune('a' + (i/26)%26)))
		b.WriteString(string(rune('a' + (i/676)%26)))
		b.WriteString("=v")
	}
	return b.String()
}

func TestNewLabelSetValidates(t *testing.T) {
	if _, err := NewLabelSet(); !errors.Is(err, ErrInvalidLabelSet) {
		t.Errorf("empty NewLabelSet error = %v", err)
	}
	bad := [][]Label{
		{{Name: "", Value: "v"}},
		{{Name: "a,b", Value: "v"}},
		{{Name: "a=b", Value: "v"}},
		{{Name: "a", Value: "x,y"}},
		{{Name: " a", Value: "v"}},
		{{Name: "a", Value: "v "}},
		{{Name: "a", Value: "1"}, {Name: "a", Value: "2"}},
	}
	for _, labels := range bad {
		if _, err := NewLabelSet(labels...); !errors.Is(err, ErrInvalidLabelSet) {
			t.Errorf("NewLabelSet(%v) error = %v, want ErrInvalidLabelSet", labels, err)
		}
	}
	ls, err := NewLabelSet(Label{Name: "b", Value: "2"}, Label{Name: "a", Value: "1"})
	if err != nil {
		t.Fatal(err)
	}
	if ls.String() != "a=1,b=2" {
		t.Errorf("NewLabelSet canonical = %q", ls.String())
	}
	if v, ok := ls.Get("b"); !ok || v != "2" {
		t.Errorf("Get(b) = %q, %v", v, ok)
	}
	if _, ok := ls.Get("c"); ok {
		t.Error("Get(c) unexpectedly present")
	}
	if ls.Len() != 2 || ls.IsZero() {
		t.Errorf("Len = %d, IsZero = %v", ls.Len(), ls.IsZero())
	}
	if (LabelSet{}).IsZero() == false {
		t.Error("zero LabelSet not IsZero")
	}
}

// TestParseLabelSetDoesNotAliasInput: every label name and value of a
// parsed set lies inside its canonical encoding, never inside the
// caller's input, so a series keyed from a slice of a request body does
// not keep that body alive.
func TestParseLabelSetDoesNotAliasInput(t *testing.T) {
	body := "key=service=api,endpoint=/login,empty=\n1 2 3 4 5"
	key, _, _ := strings.Cut(strings.TrimPrefix(body, "key="), "\n")
	ls, err := ParseLabelSet(key)
	if err != nil {
		t.Fatal(err)
	}
	canon := ls.String()
	lo := uintptr(unsafe.Pointer(unsafe.StringData(canon)))
	hi := lo + uintptr(len(canon))
	inCanon := func(s string) bool {
		if s == "" {
			return true // an empty string points nowhere in particular
		}
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return lo <= p && p+uintptr(len(s)) <= hi
	}
	for _, l := range ls.Labels() {
		if !inCanon(l.Name) || !inCanon(l.Value) {
			t.Errorf("label %q=%q lies outside the canonical encoding %q", l.Name, l.Value, canon)
		}
	}
	if v, ok := ls.Get("endpoint"); !ok || v != "/login" {
		t.Errorf("Get(endpoint) = %q, %v", v, ok)
	}
}

func TestParseFilter(t *testing.T) {
	f, err := ParseFilter(" * ")
	if err != nil || !f.MatchesAll() || f.String() != "*" {
		t.Fatalf("ParseFilter(*) = %v, %v", f, err)
	}
	mustLS := func(s string) LabelSet {
		ls, err := ParseLabelSet(s)
		if err != nil {
			t.Fatal(err)
		}
		return ls
	}
	cases := []struct {
		filter string
		series string
		want   bool
	}{
		{"service=api", "service=api,endpoint=/a", true},
		{"service=api", "service=web,endpoint=/a", false},
		{"service=api", "endpoint=/a", false}, // label absent
		{"service=*", "service=web", true},
		{"service=*", "endpoint=/a", false}, // wildcard still requires presence
		{"service=api,status=500", "endpoint=/a,service=api,status=500", true},
		{"service=api,status=500", "service=api,status=200", false},
		{"endpoint=*,service=api", "service=api,endpoint=/login", true},
		{"b=2,a=1", "a=1,b=2,c=3", true},
	}
	for _, c := range cases {
		f, err := ParseFilter(c.filter)
		if err != nil {
			t.Errorf("ParseFilter(%q): %v", c.filter, err)
			continue
		}
		if got := f.Matches(mustLS(c.series)); got != c.want {
			t.Errorf("ParseFilter(%q).Matches(%q) = %v, want %v", c.filter, c.series, got, c.want)
		}
		// Filters round-trip through their canonical form.
		again, err := ParseFilter(f.String())
		if err != nil || again.String() != f.String() {
			t.Errorf("filter round-trip %q -> %q (%v)", f.String(), again.String(), err)
		}
	}
	if !MatchAll().Matches(mustLS("anything=goes")) {
		t.Error("MatchAll does not match")
	}
	if (Filter{}).Matches(mustLS("a=1")) {
		t.Error("zero Filter matched a series")
	}
	bad := []string{"", "  ", "noequals", "a=1,a=2", "a=1,a=*", "=x", manyLabels(MaxLabels + 1)}
	for _, in := range bad {
		if _, err := ParseFilter(in); !errors.Is(err, ErrInvalidFilter) {
			t.Errorf("ParseFilter(%q) error = %v, want ErrInvalidFilter", in, err)
		}
	}
}
