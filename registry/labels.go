// Package registry provides SketchMap, a high-cardinality keyed
// aggregation layer over ddsketch: a concurrent map from label sets
// ("service=api,endpoint=/login,status=500"-style series identities) to
// per-key quantile sketches, built for the workload the Moment-sketch
// paper motivates — millions of tagged series, each with its own
// latency distribution, under a hard memory budget.
//
// Three mechanisms keep a cardinality explosion from becoming an OOM,
// and all three lean on the paper's central property (merges are exact,
// §2.3), so they degrade aggregation *granularity*, never the
// correctness of global quantiles:
//
//   - Admission gating: approximate per-key frequencies are tracked in
//     small fixed space (a count-min sketch per segment); a key gets its
//     own sketch only once its estimated rate passes a threshold.
//     Values seen before admission are not dropped — they accumulate in
//     an overflow sketch.
//   - Size-budget eviction: at most MaxSketches per-key sketches are
//     live; past the budget the least-recently-written series is folded
//     into the overflow sketch (an exact merge) and its slot reused.
//   - Roll-ups: RollUp merges every live key matching a tag filter in
//     one pass; the match-all filter "*" additionally folds in the
//     overflow sketch, so RollUp(MatchAll(), 0) answers exactly as a
//     single unkeyed sketch fed the same stream would (within the
//     sketch's accuracy bound).
//
// Two further layers make the keyed plane time- and filter-aware:
//
//   - Windowed series (WithKeyWindow): every per-key entry becomes a
//     ring of per-interval sketches on one shared rotation grid, so
//     reads answer "over the trailing k intervals" consistently across
//     keys, rotation drives admission decay, and idle series age out.
//     Each segment's overflow is a ring on the same grid, so evicted and
//     pre-admission values age out with it.
//   - Inverted label index: each segment maintains name=value (and
//     name-presence) posting lists under its lock, so a constrained
//     roll-up walks the smallest posting list of its filter instead of
//     scanning every live key — sub-linear filtered reads at high
//     cardinality, verified bin-identical to the full scan.
package registry

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Errors returned by the label-set and filter parsers. Parse failures
// wrap ErrInvalidLabelSet or ErrInvalidFilter so callers can classify
// them with errors.Is while still seeing the offending input.
var (
	ErrInvalidLabelSet = errors.New("registry: invalid label set")
	ErrInvalidFilter   = errors.New("registry: invalid filter")
)

// Parser limits: a label set (or filter) is a series identity, not a
// payload; hostile inputs beyond these bounds are rejected up front so
// parsing stays O(small) and the canonical strings stay usable as map
// keys.
const (
	// MaxLabels bounds the number of name=value pairs in one label set.
	MaxLabels = 64
	// MaxEncodedLength bounds the length of one encoded label set.
	MaxEncodedLength = 4096
)

// Label is one name=value pair of a series identity.
type Label struct {
	Name  string
	Value string
}

// LabelSet is an immutable, canonically encoded set of labels — the key
// type of a SketchMap. Two label sets naming the same pairs in any
// order canonicalize to the same encoding, so
// "b=2,a=1" and "a=1,b=2" address the same series.
//
// The zero LabelSet is empty and not a valid series key.
type LabelSet struct {
	labels []Label // sorted by name, names unique
	str    string  // canonical encoding, "" only for the zero set
}

// ParseLabelSet parses a comma-separated list of name=value pairs into
// its canonical form: pairs sorted by name, surrounding whitespace
// trimmed, at least one pair. The first '=' splits a pair, so values
// may themselves contain '=' (but not ','). Duplicate names, empty
// names, and inputs beyond MaxLabels/MaxEncodedLength are rejected.
// The result round-trips: ParseLabelSet(ls.String()) yields ls again.
//
// Parsing is one scan over s into a stack scratch; the result costs two
// allocations, its canonical string and its label slice.
func ParseLabelSet(s string) (LabelSet, error) {
	if len(s) > MaxEncodedLength {
		return LabelSet{}, fmt.Errorf("%w: %d bytes exceeds the %d-byte limit", ErrInvalidLabelSet, len(s), MaxEncodedLength)
	}
	if strings.TrimSpace(s) == "" {
		return LabelSet{}, fmt.Errorf("%w: empty", ErrInvalidLabelSet)
	}
	var scratch [MaxLabels]Label
	n := 0
	for rest, more := s, true; more; n++ {
		if n == MaxLabels {
			return LabelSet{}, fmt.Errorf("%w: %d labels exceed the %d-label limit", ErrInvalidLabelSet, strings.Count(s, ",")+1, MaxLabels)
		}
		var part string
		part, rest, more = strings.Cut(rest, ",")
		name, value, ok := strings.Cut(part, "=")
		if !ok {
			return LabelSet{}, fmt.Errorf("%w: %q is not a name=value pair", ErrInvalidLabelSet, strings.TrimSpace(part))
		}
		name = strings.TrimSpace(name)
		if name == "" {
			return LabelSet{}, fmt.Errorf("%w: empty label name in %q", ErrInvalidLabelSet, strings.TrimSpace(part))
		}
		scratch[n] = Label{Name: name, Value: strings.TrimSpace(value)}
	}
	return canonicalize(scratch[:n])
}

// NewLabelSet builds a canonical label set from explicit pairs,
// enforcing the same rules as ParseLabelSet. Label values must not
// contain ',' (the pair separator), and names must be non-empty and
// free of both ',' and '=' — otherwise the canonical encoding would not
// round-trip.
func NewLabelSet(labels ...Label) (LabelSet, error) {
	if len(labels) == 0 {
		return LabelSet{}, fmt.Errorf("%w: empty", ErrInvalidLabelSet)
	}
	if len(labels) > MaxLabels {
		return LabelSet{}, fmt.Errorf("%w: %d labels exceed the %d-label limit", ErrInvalidLabelSet, len(labels), MaxLabels)
	}
	for _, l := range labels {
		if l.Name == "" {
			return LabelSet{}, fmt.Errorf("%w: empty label name", ErrInvalidLabelSet)
		}
		if strings.ContainsAny(l.Name, ",=") {
			return LabelSet{}, fmt.Errorf("%w: label name %q contains ',' or '='", ErrInvalidLabelSet, l.Name)
		}
		if strings.Contains(l.Value, ",") {
			return LabelSet{}, fmt.Errorf("%w: label value %q contains ','", ErrInvalidLabelSet, l.Value)
		}
		if l.Name != strings.TrimSpace(l.Name) || l.Value != strings.TrimSpace(l.Value) {
			return LabelSet{}, fmt.Errorf("%w: label %q=%q has surrounding whitespace", ErrInvalidLabelSet, l.Name, l.Value)
		}
	}
	var scratch [MaxLabels]Label
	return canonicalize(scratch[:copy(scratch[:], labels)])
}

// canonicalize sorts valid, trimmed pairs by name in place, rejects
// duplicate names and over-long encodings, and builds the canonical
// set: one exactly sized string, and a label slice whose names and
// values point into it, so the set never keeps its caller's strings — a
// whole request body, when the key was cut from one — alive for the
// life of a series.
func canonicalize(labels []Label) (LabelSet, error) {
	// Insertion sort: at most MaxLabels pairs, usually a handful, often
	// already in order.
	for i := 1; i < len(labels); i++ {
		l := labels[i]
		j := i
		for ; j > 0 && labels[j-1].Name > l.Name; j-- {
			labels[j] = labels[j-1]
		}
		labels[j] = l
	}
	size := len(labels) - 1 // separating commas
	for i, l := range labels {
		if i > 0 && labels[i-1].Name == l.Name {
			return LabelSet{}, fmt.Errorf("%w: duplicate label name %q", ErrInvalidLabelSet, l.Name)
		}
		size += len(l.Name) + 1 + len(l.Value)
	}
	if size > MaxEncodedLength {
		return LabelSet{}, fmt.Errorf("%w: encoding %d bytes exceeds the %d-byte limit", ErrInvalidLabelSet, size, MaxEncodedLength)
	}
	var b strings.Builder
	b.Grow(size)
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	str := b.String()
	out := make([]Label, len(labels))
	off := 0
	for i, l := range labels {
		out[i].Name = str[off : off+len(l.Name)]
		off += len(l.Name) + 1 // '='
		out[i].Value = str[off : off+len(l.Value)]
		off += len(l.Value) + 1 // ','
	}
	return LabelSet{labels: out, str: str}, nil
}

// String returns the canonical encoding: pairs sorted by name, joined
// as "name=value,name=value". It is the identity SketchMap keys on.
func (ls LabelSet) String() string { return ls.str }

// IsZero reports whether the set holds no labels (the invalid key).
func (ls LabelSet) IsZero() bool { return len(ls.labels) == 0 }

// Len returns the number of labels.
func (ls LabelSet) Len() int { return len(ls.labels) }

// Labels returns a copy of the labels in canonical (name-sorted) order.
func (ls LabelSet) Labels() []Label {
	out := make([]Label, len(ls.labels))
	copy(out, ls.labels)
	return out
}

// Get returns the value of the named label and whether it is present.
func (ls LabelSet) Get(name string) (string, bool) {
	// Canonical order is sorted by name; label sets are small (≤
	// MaxLabels), so a binary search keeps Matches cheap without any
	// map allocation.
	i := sort.Search(len(ls.labels), func(i int) bool { return ls.labels[i].Name >= name })
	if i < len(ls.labels) && ls.labels[i].Name == name {
		return ls.labels[i].Value, true
	}
	return "", false
}
