//go:build !race

// The race detector makes sync.Pool drop items at random, so the
// allocation count only holds without it.

package ddsketch

import (
	"testing"
	"time"

	"github.com/ddsketch-go/ddsketch/internal/datagen"
)

// TestMergeEncodedAllocationFree: after warm-up, merging an agent
// payload through MergeEncoded or DecodeAndMergeWith allocates nothing,
// for either codec and for a stream alternating between the two.
func TestMergeEncodedAllocationFree(t *testing.T) {
	agent := func(seed uint64) *DDSketch {
		s, err := NewCollapsing(0.01, 2048)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddBatch(datagen.ParetoSeeded(1000, seed)); err != nil {
			t.Fatal(err)
		}
		return s
	}
	native := agent(1).Encode()
	datadog, err := DataDogCodec.Encode(agent(2))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := NewWindowedSharded(agent(3), 1, time.Minute, 3)
	if err != nil {
		t.Fatal(err)
	}
	plain := agent(4)
	merge := func() {
		for _, p := range []struct {
			c       Codec
			payload []byte
		}{{NativeCodec, native}, {DataDogCodec, datadog}} {
			if err := ws.MergeEncoded(p.c, p.payload); err != nil {
				t.Fatal(err)
			}
			if err := plain.DecodeAndMergeWith(p.payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	merge() // warm up: the scratch and the aggregates size their arrays
	if allocs := testing.AllocsPerRun(50, merge); allocs != 0 {
		t.Errorf("%v allocations per round of four merges, want 0", allocs)
	}
}
