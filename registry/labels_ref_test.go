package registry

import (
	"fmt"
	"sort"
	"strings"
)

// refParseLabelSet and refNewLabelSet are the straightforward
// split-then-sort canonicalizer: split on ',', cut each pair on its
// first '=', trim, sort.Slice, validate, and join. FuzzLabelSetRoundTrip
// holds ParseLabelSet and NewLabelSet to them — same canonical string
// and labels on accept, ErrInvalidLabelSet on reject.
func refParseLabelSet(s string) (LabelSet, error) {
	if len(s) > MaxEncodedLength {
		return LabelSet{}, fmt.Errorf("%w: %d bytes exceeds the %d-byte limit", ErrInvalidLabelSet, len(s), MaxEncodedLength)
	}
	if strings.TrimSpace(s) == "" {
		return LabelSet{}, fmt.Errorf("%w: empty", ErrInvalidLabelSet)
	}
	parts := strings.Split(s, ",")
	if len(parts) > MaxLabels {
		return LabelSet{}, fmt.Errorf("%w: %d labels exceed the %d-label limit", ErrInvalidLabelSet, len(parts), MaxLabels)
	}
	labels := make([]Label, 0, len(parts))
	for _, part := range parts {
		name, value, ok := strings.Cut(part, "=")
		if !ok {
			return LabelSet{}, fmt.Errorf("%w: %q is not a name=value pair", ErrInvalidLabelSet, strings.TrimSpace(part))
		}
		name = strings.TrimSpace(name)
		value = strings.TrimSpace(value)
		if name == "" {
			return LabelSet{}, fmt.Errorf("%w: empty label name in %q", ErrInvalidLabelSet, strings.TrimSpace(part))
		}
		labels = append(labels, Label{Name: name, Value: value})
	}
	return refNewLabelSet(labels...)
}

func refNewLabelSet(labels ...Label) (LabelSet, error) {
	if len(labels) == 0 {
		return LabelSet{}, fmt.Errorf("%w: empty", ErrInvalidLabelSet)
	}
	if len(labels) > MaxLabels {
		return LabelSet{}, fmt.Errorf("%w: %d labels exceed the %d-label limit", ErrInvalidLabelSet, len(labels), MaxLabels)
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var b strings.Builder
	for i, l := range sorted {
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
		if i > 0 && sorted[i-1].Name == l.Name {
			return LabelSet{}, fmt.Errorf("%w: duplicate label name %q", ErrInvalidLabelSet, l.Name)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	if b.Len() > MaxEncodedLength {
		return LabelSet{}, fmt.Errorf("%w: encoding %d bytes exceeds the %d-byte limit", ErrInvalidLabelSet, b.Len(), MaxEncodedLength)
	}
	return LabelSet{labels: sorted, str: b.String()}, nil
}
