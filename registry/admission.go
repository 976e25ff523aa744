package registry

// Admission gating: before a key earns a full per-key sketch, its
// frequency is tracked in small fixed space by a count-min sketch —
// depth hash rows of width counters, each update incrementing one
// counter per row, the estimate being the row minimum. Count-min only
// ever *over*-estimates, so gating on the estimate can admit a key
// slightly early (collisions inflate cold keys) but never starves a
// genuinely hot key — the safe direction for a cache admission policy.
//
// Each SketchMap segment owns one countMin, updated under the segment
// lock, so the admission state needs no atomics and a cardinality
// explosion costs O(depth × width) memory per segment, total — not
// O(keys).

// fnv1a64 hashes a key string (FNV-1a, 64-bit). It is the single hash
// the registry derives everything from: the segment index and, remixed
// per row, the count-min columns.
func fnv1a64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// mix64 is the splitmix64 finalizer: a full-avalanche remix used to
// derive independent per-row column indexes from the one key hash.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// countMin is a count-min frequency sketch with float64 counters (key
// frequencies are weights: AddWithCount contributes its count, not 1).
type countMin struct {
	depth  int
	width  int // power of two
	mask   uint64
	counts []float64 // depth rows × width, row-major
}

func newCountMin(depth, width int) *countMin {
	w := 1
	for w < width {
		w <<= 1
	}
	return &countMin{
		depth:  depth,
		width:  w,
		mask:   uint64(w - 1),
		counts: make([]float64, depth*w),
	}
}

// addAndEstimate adds weight to the key identified by hash and returns
// the updated frequency estimate (the minimum across rows — an upper
// bound on the key's true accumulated weight).
func (c *countMin) addAndEstimate(hash uint64, weight float64) float64 {
	est := 0.0
	for row := 0; row < c.depth; row++ {
		col := mix64(hash+uint64(row)*0x9e3779b97f4a7c15) & c.mask
		slot := &c.counts[row*c.width+int(col)]
		*slot += weight
		if row == 0 || *slot < est {
			est = *slot
		}
	}
	return est
}

// halve decays every counter by half — the aging step that turns the
// accumulated-weight estimate into a rate estimate: with decay every N
// observations, a counter converges to roughly twice the key's weight
// per N-observation interval, so a key that *was* hot but went quiet
// stops clearing the admission threshold.
func (c *countMin) halve() {
	for i := range c.counts {
		c.counts[i] /= 2
	}
}

// reset zeroes the sketch (used by Clear).
func (c *countMin) reset() {
	for i := range c.counts {
		c.counts[i] = 0
	}
}

// sizeBytes estimates the in-memory footprint.
func (c *countMin) sizeBytes() int { return 8*len(c.counts) + 48 }

// decayToGeneration applies every rotation-driven admission decay due
// between the segment's last decay and gen: one halving per `every`
// intervals elapsed. Callers must hold the segment lock. A gen at or
// behind the last decay is a no-op, so a stale generation can never
// underflow the subtraction and wipe the admission state.
func (seg *segment) decayToGeneration(gen uint64, every int) {
	if gen <= seg.decayGen {
		return
	}
	due := (gen - seg.decayGen) / uint64(every)
	if due == 0 {
		return
	}
	if due >= 64 {
		// 2^-64 of any float64 counter is zero for admission purposes.
		seg.cm.reset()
	} else {
		for i := uint64(0); i < due; i++ {
			seg.cm.halve()
		}
	}
	seg.decayGen += due * uint64(every)
}
