//go:build !race

// Like the module's other allocation tests, this pins the count in the
// plain build only; an instrumented build promises nothing about it.

package registry

import "testing"

// TestParseLabelSetAllocs: canonicalizing a key costs exactly its two
// results, the canonical string and the label slice, however many
// labels it carries and whatever order they arrive in.
func TestParseLabelSetAllocs(t *testing.T) {
	for _, key := range []string{
		"service=api,endpoint=/login,status=500",
		" zone = us-east-1a ,service=api,host=web-042,endpoint=/login,status=500",
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := ParseLabelSet(key); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("ParseLabelSet(%q): %v allocs, want at most 2", key, allocs)
		}
	}
}
