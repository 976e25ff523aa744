package window

import (
	"math"
	"math/big"
	"testing"
	"time"
)

// bigGen is Grid.Gen computed with arbitrary-precision integers.
func bigGen(anchor, t time.Time, interval time.Duration) uint64 {
	if !t.After(anchor) {
		return 0
	}
	ns := func(x time.Time) *big.Int {
		v := new(big.Int).Mul(big.NewInt(x.Unix()), big.NewInt(int64(time.Second)))
		return v.Add(v, big.NewInt(int64(x.Nanosecond())))
	}
	q := new(big.Int).Sub(ns(t), ns(anchor))
	q.Quo(q, big.NewInt(int64(interval)))
	if !q.IsUint64() {
		return math.MaxUint64
	}
	return q.Uint64()
}

func TestGridGen(t *testing.T) {
	anchor := time.Date(2026, 1, 1, 0, 0, 0, 500, time.UTC)
	cases := []struct {
		t        time.Time
		interval time.Duration
	}{
		{anchor.Add(-time.Hour), time.Minute},
		{anchor.AddDate(-2000, 0, 0), time.Minute},
		{anchor, time.Minute},
		{anchor.Add(time.Minute - 1), time.Minute},
		{anchor.Add(time.Minute), time.Minute},
		{anchor.Add(200 * 365 * 24 * time.Hour), time.Minute},
		{anchor.AddDate(1000, 0, 0), time.Minute},
		{anchor.AddDate(1000, 0, 0).Add(10 * time.Minute), time.Minute},
		{anchor.AddDate(300, 0, 0).Add(-time.Nanosecond), 7 * time.Second},
		{anchor.AddDate(1000, 0, 0), time.Nanosecond}, // quotient overflows: saturates
		{anchor.AddDate(1_000_000, 0, 0), time.Hour},
	}
	for _, tc := range cases {
		g := NewGrid(anchor, tc.interval)
		if got, want := g.Gen(tc.t), bigGen(anchor, tc.t, tc.interval); got != want {
			t.Errorf("Gen(%v) on a %v grid = %d, want %d", tc.t, tc.interval, got, want)
		}
	}
	if got := (Grid{}).Gen(anchor.AddDate(5, 0, 0)); got != 0 {
		t.Errorf("zero Grid Gen = %d, want 0", got)
	}
}

// countingSlot records its value and how often it has been cleared.
type countingSlot struct {
	v      int
	clears int
}

func (s *countingSlot) Clear() {
	s.v = 0
	s.clears++
}

// FuzzRing replays arbitrary sequences of advances (forward, stale, and
// gaps longer than the ring, up to the saturated generation), writes,
// and trailing-k reads against a naive map-from-generation model. It
// checks that the head generation is monotone, that no slot is cleared
// twice in one advance, that the closing hook sees the closed head
// before anything is cleared, that stale advances lose nothing, that
// trailing-k returns exactly the model's last k generations, and that
// Idle holds exactly when no retained generation was written.
func FuzzRing(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 7, 11, 0, 4, 15, 1, 9, 2, 5, 63})
	f.Add([]byte{0, 255, 3, 255, 3, 253, 3, 4, 3, 5})  // saturated generation
	f.Add([]byte{5, 3, 4, 3, 8, 1, 5, 1, 9, 2, 3, 12}) // stale after writes
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0]%6)
		r := NewRing(make([]*countingSlot, n), 0)
		model := map[uint64]int{}
		var gen, written uint64 // the model's head and newest written generations
		check := func() {
			if idle := gen-written >= uint64(n); r.Idle() != idle {
				t.Fatalf("Idle() = %v at gen %d, last write at %d", r.Idle(), gen, written)
			}
			for k := -1; k <= n+1; k++ {
				var got, want []int
				_ = r.Trailing(k, func(s *countingSlot) error {
					if s.v != 0 {
						got = append(got, s.v)
					}
					return nil
				})
				kk := max(1, min(k, n))
				for age := 0; age < kk && uint64(age) <= gen; age++ {
					if v := model[gen-uint64(age)]; v != 0 {
						want = append(want, v)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("Trailing(%d) at gen %d = %v, want %v", k, gen, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("Trailing(%d) at gen %d = %v, want %v", k, gen, got, want)
					}
				}
			}
		}
		for _, b := range data[1:] {
			arg := uint64(b >> 2)
			switch b % 4 {
			case 0: // a small forward step, saturating
				target := gen + arg%uint64(n+3)
				if target < gen {
					target = math.MaxUint64
				}
				advance(t, &r, target, model, gen)
				gen = target
			case 1: // a stale reading
				advance(t, &r, gen-min(gen, arg%5), model, gen)
			case 2: // a gap far larger than the ring, or to saturation
				target := gen + arg*1_000_003
				if arg == 63 || target < gen {
					target = math.MaxUint64
				}
				advance(t, &r, target, model, gen)
				gen = max(gen, target)
			case 3: // write
				p := r.Head()
				if *p == nil {
					*p = &countingSlot{}
				}
				(*p).v += int(arg) + 1
				model[gen] += int(arg) + 1
				written = gen
			}
			if r.gen != gen {
				t.Fatalf("ring generation %d, model %d", r.gen, gen)
			}
			check()
		}
	})
}

// advance moves r to target and checks the per-advance invariants: the
// generation never decreases, the closing hook fires once with the
// closed head before any slot is cleared (and not at all when target is
// stale), and no slot is cleared twice.
func advance(t *testing.T, r *Ring[*countingSlot], target uint64, model map[uint64]int, gen uint64) {
	t.Helper()
	before := map[*countingSlot]int{}
	for _, s := range r.slots {
		if s != nil {
			before[s] = s.clears
		}
	}
	closings := 0
	r.Advance(target, func(head *countingSlot) {
		closings++
		if head.v != model[gen] {
			t.Fatalf("closing head holds %d, model generation %d holds %d", head.v, gen, model[gen])
		}
		for s, c := range before {
			if s.clears != c {
				t.Fatal("a slot was cleared before the closing hook ran")
			}
		}
	})
	if r.gen < gen {
		t.Fatalf("generation went back from %d to %d", gen, r.gen)
	}
	if target <= gen && closings != 0 {
		t.Fatalf("stale advance to %d from %d fired the closing hook", target, gen)
	}
	if closings > 1 {
		t.Fatalf("closing hook fired %d times in one advance", closings)
	}
	for s, c := range before {
		if s.clears > c+1 {
			t.Fatalf("a slot was cleared %d times in one advance", s.clears-c)
		}
	}
}

func TestZipAlignsGenerations(t *testing.T) {
	slot := func(v int) *countingSlot { return &countingSlot{v: v} }
	// dst's head is generation 5; src's head is generation 6.
	dst := NewRing([]*countingSlot{slot(50), nil, nil}, 5)
	src := NewRing([]*countingSlot{slot(60), nil, nil}, 6)
	*src.at(1) = slot(55) // generation 5
	err := Zip(&dst, &src, func(d **countingSlot, s *countingSlot) error {
		if *d == nil {
			*d = &countingSlot{}
		}
		(*d).v += s.v
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if dst.gen != 6 || src.gen != 6 || dst.written != 6 {
		t.Fatalf("generations %d/%d (dst written %d) after Zip, want 6/6 (6)", dst.gen, src.gen, dst.written)
	}
	var got []int
	_ = dst.Trailing(3, func(s *countingSlot) error {
		got = append(got, s.v)
		return nil
	})
	if len(got) != 2 || got[0] != 60 || got[1] != 105 {
		t.Fatalf("dst newest-first = %v, want [60 105]", got)
	}
}
