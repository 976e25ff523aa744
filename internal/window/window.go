// Package window holds the ring arithmetic every time-windowed structure
// in the module shares: a stateless generation grid that maps clock
// readings onto whole intervals, and a ring of per-generation slots that
// advances along it. ddsketch.TimeWindowed keeps one ring of interval
// sketches; the registry keeps one per series and one per segment's
// overflow, all on the registry's grid, so "the trailing k intervals"
// means the same wall-clock span everywhere and evicted data can be
// merged into the overflow slot of the same age.
package window

import (
	"math"
	"math/bits"
	"time"
)

// Grid maps clock readings onto generations: generation g covers
// [anchor + g·interval, anchor + (g+1)·interval). A Grid holds no
// mutable state, so any number of goroutines may read it without a
// lock. The zero Grid (or any interval ≤ 0) is the single-generation
// grid: every reading is generation 0.
type Grid struct {
	anchor   time.Time
	interval time.Duration
}

// NewGrid returns the grid of the given interval anchored at anchor.
func NewGrid(anchor time.Time, interval time.Duration) Grid {
	return Grid{anchor: anchor, interval: interval}
}

// Interval returns the duration of one generation.
func (g Grid) Interval() time.Duration { return g.interval }

// Gen returns the generation containing t: ⌊(t − anchor)/interval⌋,
// clamped to 0 before the anchor and saturating at MaxUint64. It stays
// exact for gaps too long for time.Duration (about 292 years), so a far
// clock jump lands on the right generation instead of a stuck one.
func (g Grid) Gen(t time.Time) uint64 {
	if g.interval <= 0 {
		return 0
	}
	d := t.Sub(g.anchor) // monotonic-clock aware when both readings carry one
	if d <= 0 {
		return 0
	}
	if d < math.MaxInt64 {
		return uint64(d / g.interval)
	}
	// Sub saturated: redo the gap in 128 bits from the wall readings.
	// t is after the anchor, so the seconds difference fits a uint64.
	secs := uint64(t.Unix()) - uint64(g.anchor.Unix())
	hi, lo := bits.Mul64(secs, uint64(time.Second))
	var carry uint64
	lo, carry = bits.Add64(lo, uint64(t.Nanosecond()), 0)
	hi += carry
	lo, carry = bits.Sub64(lo, uint64(g.anchor.Nanosecond()), 0)
	hi -= carry
	if hi >= uint64(g.interval) {
		return math.MaxUint64 // the quotient would not fit 64 bits
	}
	q, _ := bits.Div64(hi, lo, uint64(g.interval))
	return q
}

// Slot is what a Ring holds: a clearable reference whose zero value
// means "never written". The ring skips zero slots, so callers may
// allocate slots lazily on first write.
type Slot interface {
	comparable
	Clear()
}

// Ring is a fixed ring of per-generation slots. The head slot holds the
// newest generation the ring has advanced to; the slot `age` places
// behind it holds the generation `age` before that. A Ring is not safe
// for concurrent use; its owner's lock guards it.
type Ring[S Slot] struct {
	slots   []S
	head    int
	gen     uint64
	written uint64 // newest generation written through Head or Zip
}

// NewRing returns a ring over slots whose head (slots[0]) holds
// generation gen, which counts as written. len(slots) must be at least
// 1.
func NewRing[S Slot](slots []S, gen uint64) Ring[S] {
	return Ring[S]{slots: slots, gen: gen, written: gen}
}

// Len returns the number of slots.
func (r *Ring[S]) Len() int { return len(r.slots) }

// Head returns a pointer to the head slot for a write, so that a caller
// can allocate it on first use, and records the head's generation as
// written.
func (r *Ring[S]) Head() *S {
	r.written = r.gen
	return &r.slots[r.head]
}

// Idle reports whether no retained generation was written: the newest
// write (or the ring's creation) has aged out of the ring.
func (r *Ring[S]) Idle() bool {
	return r.gen-r.written >= uint64(len(r.slots))
}

// at returns a pointer to the slot `age` generations behind the head,
// for age in [0, Len()).
func (r *Ring[S]) at(age int) *S {
	i := r.head - age
	if i < 0 {
		i += len(r.slots)
	}
	return &r.slots[i]
}

// Advance moves the head forward to generation gen. When gen is past
// the head's, the head interval has closed: closing, if non-nil, is
// called once with the head slot (if written) before any slot is
// cleared, and then every slot the move reuses is cleared, each at most
// once however large the gap. A gen at or behind the head's is stale —
// sampled before a concurrent advance, or read from a clock that stepped
// back — and changes nothing: the head keeps its data and later writes
// land in it.
func (r *Ring[S]) Advance(gen uint64, closing func(S)) {
	if gen <= r.gen {
		return
	}
	var zero S
	if closing != nil && r.slots[r.head] != zero {
		closing(r.slots[r.head])
	}
	steps := gen - r.gen
	r.gen = gen
	if steps >= uint64(len(r.slots)) {
		r.Clear()
		return
	}
	for ; steps > 0; steps-- {
		if r.head++; r.head == len(r.slots) {
			r.head = 0
		}
		if s := r.slots[r.head]; s != zero {
			s.Clear()
		}
	}
}

// Trailing calls fn on each written slot of the newest k generations,
// newest first; k is clamped to [1, Len()]. It stops at and returns
// fn's first error.
func (r *Ring[S]) Trailing(k int, fn func(S) error) error {
	k = max(1, min(k, len(r.slots)))
	var zero S
	for age, i := 0, r.head; age < k; age++ {
		if s := r.slots[i]; s != zero {
			if err := fn(s); err != nil {
				return err
			}
		}
		if i--; i < 0 {
			i = len(r.slots) - 1
		}
	}
	return nil
}

// Zip advances dst and src to the later of their two generations, then
// calls fn with each written src slot and a pointer to the dst slot
// holding the same generation, newest first, so that src's data can
// move into dst without losing its age; dst counts as written wherever
// src was. It stops at and returns fn's first error. The rings must
// have the same length.
func Zip[S Slot](dst, src *Ring[S], fn func(dst *S, src S) error) error {
	gen := max(dst.gen, src.gen)
	dst.Advance(gen, nil)
	src.Advance(gen, nil)
	dst.written = max(dst.written, src.written)
	var zero S
	for age := range src.slots {
		if s := *src.at(age); s != zero {
			if err := fn(dst.at(age), s); err != nil {
				return err
			}
		}
	}
	return nil
}

// Clear clears every written slot. The head keeps its generation.
func (r *Ring[S]) Clear() {
	var zero S
	for _, s := range r.slots {
		if s != zero {
			s.Clear()
		}
	}
}
