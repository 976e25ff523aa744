package registry

import (
	"container/list"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ddsketch-go/ddsketch"
	"github.com/ddsketch-go/ddsketch/internal/window"
)

// ErrInvalidKey is returned when an operation is given the zero
// LabelSet, which is not a valid series key.
var ErrInvalidKey = errors.New("registry: zero label set is not a valid series key")

// entryOverhead is the estimated fixed per-series bookkeeping cost in
// bytes beyond the sketch itself: the entry struct, its list element,
// and a map bucket share. Stats.SizeBytes adds it (plus the key
// length) per live series so the reported footprint tracks
// cardinality, not just bucket counts.
const entryOverhead = 160

// Inverted-index accounting: the estimated per-posting-key and
// per-reference costs Stats.SizeBytes charges for the label index (map
// headers, bucket shares, and the pointer per referenced series).
const (
	postingOverhead    = 48
	postingRefOverhead = 32
)

// entry is one live keyed series: its identity, its ring of interval
// sketches, and its link into the owning segment's recency list. Every
// ring sits on the registry's grid, so "the trailing k intervals" means
// the same wall-clock span for every series; an unwindowed registry's
// rings have a single slot on a grid whose generation is always 0.
type entry struct {
	labels LabelSet
	elem   *list.Element
	ring   sketchRing
}

// sketchRing is a ring of interval sketches whose slots are allocated
// on first write (so a freshly admitted series costs one sketch, not
// Windows of them).
type sketchRing = window.Ring[*ddsketch.DDSketch]

// ringStats returns the total weight a ring retains and an estimate of
// its footprint: its slot pointers and every allocated slot.
func ringStats(r *sketchRing) (weight float64, size int) {
	size = 24 * r.Len() // ring header + slot pointers
	_ = r.Trailing(r.Len(), func(s *ddsketch.DDSketch) error {
		weight += s.Count()
		size += s.SizeBytes()
		return nil
	})
	return weight, size
}

// mergeInto returns a Trailing visitor merging each non-empty slot into
// acc.
func mergeInto(acc *ddsketch.DDSketch) func(*ddsketch.DDSketch) error {
	return func(s *ddsketch.DDSketch) error {
		if s.IsEmpty() {
			return nil
		}
		return acc.MergeWith(s)
	}
}

// segment is one lock-striped shard of a SketchMap: a map of live
// entries with a write-recency list, the segment's share of the
// admission sketch, its overflow ring, and its slice of the inverted
// label index. All fields are guarded by mu; per-key sketches are only
// touched under it, so they are plain (non-concurrent) sketches.
//
// Every write moves its entry to the LRU front as it marks the entry's
// ring written at gen, and gen never decreases, so walking the LRU list
// from back to front, the rings' written generations never decrease:
// the idle series are exactly a suffix at the back, which is what lets
// Rotate stop at the first live one.
type segment struct {
	mu       sync.Mutex
	entries  map[string]*entry
	lru      *list.List // front = most recently written
	overflow sketchRing // pre-admission and evicted data, by interval
	cm       *countMin
	observed int    // admission updates since the last decay (unwindowed)
	decayGen uint64 // generation of the last rotation-driven decay (windowed)
	gen      uint64 // high-water generation every ring advance under mu uses

	// Inverted label index, maintained on install/evict/expire under mu:
	// exact maps "name=value" to the live entries carrying that pair,
	// present maps "name" to the live entries carrying the label at all
	// (the "name=*" postings). Constrained roll-ups walk the smallest
	// posting list of their filter instead of scanning every entry.
	exact   map[string]map[string]*entry
	present map[string]map[string]*entry
}

// indexInsert adds a freshly installed entry to the segment's postings.
func (seg *segment) indexInsert(key string, e *entry) {
	for _, l := range e.labels.labels {
		ek := l.Name + "=" + l.Value
		refs := seg.exact[ek]
		if refs == nil {
			refs = make(map[string]*entry)
			seg.exact[ek] = refs
		}
		refs[key] = e
		prefs := seg.present[l.Name]
		if prefs == nil {
			prefs = make(map[string]*entry)
			seg.present[l.Name] = prefs
		}
		prefs[key] = e
	}
}

// indexRemove drops an evicted or expired entry from the segment's
// postings, deleting posting lists that empty out.
func (seg *segment) indexRemove(key string, e *entry) {
	for _, l := range e.labels.labels {
		ek := l.Name + "=" + l.Value
		if refs := seg.exact[ek]; refs != nil {
			delete(refs, key)
			if len(refs) == 0 {
				delete(seg.exact, ek)
			}
		}
		if prefs := seg.present[l.Name]; prefs != nil {
			delete(prefs, key)
			if len(prefs) == 0 {
				delete(seg.present, l.Name)
			}
		}
	}
}

// indexCandidates returns the canonical keys of this segment's entries
// that might satisfy f, in sorted order: the smallest posting list
// among the filter's constraints (each candidate is still verified with
// f.Matches — the index narrows the scan, the filter decides). A
// constraint with no posting proves the segment holds no match.
func (seg *segment) indexCandidates(f Filter) []string {
	var best map[string]*entry
	for _, c := range f.constraints {
		var refs map[string]*entry
		if c.any {
			refs = seg.present[c.name]
		} else {
			refs = seg.exact[c.name+"="+c.value]
		}
		if len(refs) == 0 {
			return nil
		}
		if best == nil || len(refs) < len(best) {
			best = refs
		}
	}
	if best == nil {
		return nil // the zero Filter matches nothing
	}
	keys := make([]string, 0, len(best))
	for k := range best {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sortedKeys returns every live key of the segment in sorted order —
// the scan path's candidate list, ordered identically to the index
// path's so both merge in the same order and answer bin-identically.
func (seg *segment) sortedKeys() []string {
	keys := make([]string, 0, len(seg.entries))
	for k := range seg.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// SketchMap is a concurrent, memory-bounded map from label sets to
// quantile sketches — the keyed aggregation registry described in the
// package comment. Keys are spread across power-of-two lock-striped
// segments by a hash of their canonical encoding; each per-key sketch
// is a copy of the template given to New, so keyed sketches compose
// with mappings, bin bounds, and uniform collapse exactly like
// standalone ones.
//
// With WithKeyWindow, every series is a ring of per-interval sketches
// on one shared rotation grid (anchored at New, advanced by the
// registry clock), so roll-ups and Get can answer over the trailing k
// intervals; rotation also drives admission decay and ages idle series
// out entirely (see Rotate). Each segment's overflow is a ring on the
// same grid, so evicted and pre-admission data ages out like the rest.
//
// A SketchMap is safe for concurrent use.
type SketchMap struct {
	cfg     config
	segs    []*segment
	segMask uint64

	clock func() time.Time
	grid  window.Grid        // rotation grid, anchored at construction
	proto *ddsketch.DDSketch // empty template ring slots copy

	live       atomic.Int64  // live entries across all segments
	admitted   atomic.Uint64 // keys ever promoted to their own sketch
	evicted    atomic.Uint64 // keys folded back into overflow by the budget
	expired    atomic.Uint64 // windowed keys dropped because their whole ring went empty
	overflowed atomic.Uint64 // pre-admission value insertions routed to overflow
	rotations  atomic.Uint64 // highest rotation generation observed
}

// New builds a SketchMap from the given options (see Option). The
// sketch template is validated eagerly: a template NewSketch rejects,
// or one that layers its own concurrency or windowing, is reported
// here, not on first Add.
func New(opts ...Option) (*SketchMap, error) {
	cfg := defaultRegistryConfig()
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	probe, err := ddsketch.NewSketch(cfg.template...)
	if err != nil {
		return nil, fmt.Errorf("%w: sketch template: %v", ErrInvalidOption, err)
	}
	// Ring slots rotate, clear, and merge in place under the segment
	// lock, which only a plain sketch supports: a template carrying its
	// own mutex, sharding, or window ring would double-layer concurrency
	// and retention the registry already provides.
	proto, ok := probe.(*ddsketch.DDSketch)
	if !ok {
		return nil, fmt.Errorf(
			"%w: the sketch template must build a plain sketch, got %T (drop WithMutex/WithSharding/WithWindow from WithSketchOptions)",
			ErrInvalidOption, probe)
	}
	proto.Clear()
	clock := cfg.clock
	if clock == nil {
		clock = time.Now
	}
	m := &SketchMap{
		cfg:     cfg,
		segs:    make([]*segment, cfg.segments),
		segMask: uint64(cfg.segments - 1),
		clock:   clock,
		grid:    window.NewGrid(clock(), cfg.keyInterval),
		proto:   proto,
	}
	for i := range m.segs {
		m.segs[i] = &segment{
			entries:  make(map[string]*entry),
			lru:      list.New(),
			overflow: m.newRing(0),
			cm:       newCountMin(cfg.cmDepth, cfg.cmWidth),
			exact:    make(map[string]map[string]*entry),
			present:  make(map[string]map[string]*entry),
		}
	}
	return m, nil
}

// segmentFor picks the segment owning the given key hash.
func (m *SketchMap) segmentFor(hash uint64) *segment { return m.segs[hash&m.segMask] }

// generation returns the rotation generation containing the clock's
// present reading. Always 0 for unwindowed registries, which skip the
// clock read.
func (m *SketchMap) generation() uint64 {
	if m.cfg.keyWindows == 0 {
		return 0
	}
	return m.grid.Gen(m.clock())
}

// lockedGen returns the generation ring operations under seg's lock
// use: the clock's present generation, or the segment's high-water
// generation if the clock reads behind it (a rewound clock). Read under
// the lock and never lowered, it orders writes exactly as the lock
// does. Callers must hold seg.mu.
func (m *SketchMap) lockedGen(seg *segment) uint64 {
	seg.gen = max(seg.gen, m.generation())
	return seg.gen
}

// newRing returns an empty ring on the registry's grid with its head at
// generation gen: one slot per key window, or one for an unwindowed
// registry.
func (m *SketchMap) newRing(gen uint64) sketchRing {
	return window.NewRing(make([]*ddsketch.DDSketch, max(1, m.cfg.keyWindows)), gen)
}

// head advances r to generation gen and returns its head slot,
// allocating it from the template on first use. Callers must hold the
// segment lock.
func (m *SketchMap) head(r *sketchRing, gen uint64) *ddsketch.DDSketch {
	r.Advance(gen, nil)
	return m.slot(r.Head())
}

// slot returns the sketch p points at, allocating it from the template
// on first use.
func (m *SketchMap) slot(p **ddsketch.DDSketch) *ddsketch.DDSketch {
	if *p == nil {
		*p = m.proto.Copy()
	}
	return *p
}

// noteGeneration records the highest generation observed, the
// Stats.Rotations counter.
func (m *SketchMap) noteGeneration(gen uint64) {
	for {
		cur := m.rotations.Load()
		if gen <= cur || m.rotations.CompareAndSwap(cur, gen) {
			return
		}
	}
}

// Windows returns the per-key window count (0 when the registry is
// unwindowed), and Interval the duration of one interval (0 likewise).
func (m *SketchMap) Windows() int { return m.cfg.keyWindows }

// Interval returns the duration of one per-key window interval, or 0
// for an unwindowed registry.
func (m *SketchMap) Interval() time.Duration { return m.cfg.keyInterval }

// Add records value under the series ls.
func (m *SketchMap) Add(ls LabelSet, value float64) error {
	return m.AddWithCount(ls, value, 1)
}

// AddWithCount records value with the given positive weight under ls.
func (m *SketchMap) AddWithCount(ls LabelSet, value, count float64) error {
	if ls.IsZero() {
		return ErrInvalidKey
	}
	if !(count > 0) {
		return ddsketch.ErrNegativeCount
	}
	key := ls.String()
	hash := fnv1a64(key)
	seg := m.segmentFor(hash)
	seg.mu.Lock()
	defer seg.mu.Unlock()
	gen := m.lockedGen(seg)
	if e, ok := seg.entries[key]; ok {
		seg.lru.MoveToFront(e.elem)
		return m.head(&e.ring, gen).AddWithCount(value, count)
	}
	if !m.admitLocked(seg, hash, count, gen) {
		m.overflowed.Add(1)
		return m.head(&seg.overflow, gen).AddWithCount(value, count)
	}
	e := &entry{labels: ls, ring: m.newRing(gen)}
	if addErr := m.head(&e.ring, gen).AddWithCount(value, count); addErr != nil {
		// Nothing was recorded; don't install an empty series for a
		// value the sketch rejected.
		return addErr
	}
	return m.installLocked(seg, key, e, gen)
}

// AddBatch records every value in order under ls, with the same
// stop-at-first-error prefix semantics as Sketch.AddBatch. The whole
// batch counts as one write for recency and admission purposes, so a
// cold series flushing a large buffer can clear the admission threshold
// in one call. On a windowed registry the batch is attributed
// atomically to the interval current when it begins, exactly like
// TimeWindowed.AddBatch.
func (m *SketchMap) AddBatch(ls LabelSet, values []float64) error {
	return m.AddBatchWithCount(ls, values, 1)
}

// AddBatchWithCount is AddBatch with every value carrying the given
// positive weight.
func (m *SketchMap) AddBatchWithCount(ls LabelSet, values []float64, count float64) error {
	if ls.IsZero() {
		return ErrInvalidKey
	}
	if !(count > 0) {
		return ddsketch.ErrNegativeCount
	}
	if len(values) == 0 {
		return nil
	}
	key := ls.String()
	hash := fnv1a64(key)
	seg := m.segmentFor(hash)
	seg.mu.Lock()
	defer seg.mu.Unlock()
	gen := m.lockedGen(seg)
	if e, ok := seg.entries[key]; ok {
		seg.lru.MoveToFront(e.elem)
		return m.head(&e.ring, gen).AddBatchWithCount(values, count)
	}
	if !m.admitLocked(seg, hash, count*float64(len(values)), gen) {
		m.overflowed.Add(uint64(len(values)))
		return m.head(&seg.overflow, gen).AddBatchWithCount(values, count)
	}
	e := &entry{labels: ls, ring: m.newRing(gen)}
	sk := m.head(&e.ring, gen)
	batchErr := sk.AddBatchWithCount(values, count)
	if sk.IsEmpty() {
		// The batch failed on its first value: no prefix to keep, no
		// series to install.
		return batchErr
	}
	if err := m.installLocked(seg, key, e, gen); err != nil {
		return err
	}
	return batchErr
}

// admitLocked updates the segment's admission state with one
// observation of the given weight and reports whether the key has
// earned its own sketch. A threshold ≤ 0 disables gating entirely (no
// admission state is touched). With WithAdmissionDecay, decay is driven
// by the rotation tick on a windowed registry (every decayEvery
// intervals) and by observation count on an unwindowed one.
func (m *SketchMap) admitLocked(seg *segment, hash uint64, weight float64, gen uint64) bool {
	if m.cfg.threshold <= 0 {
		return true
	}
	if m.cfg.decayEvery > 0 && m.cfg.keyWindows > 0 {
		// Catch decay up before this observation so a key whose traffic
		// stopped rotations ago is judged by its decayed rate, not the
		// weight it accumulated when it was hot.
		seg.decayToGeneration(gen, m.cfg.decayEvery)
	}
	est := seg.cm.addAndEstimate(hash, weight)
	if m.cfg.decayEvery > 0 && m.cfg.keyWindows == 0 {
		if seg.observed++; seg.observed >= m.cfg.decayEvery {
			seg.cm.halve()
			seg.observed = 0
		}
	}
	return est >= m.cfg.threshold
}

// installLocked registers a freshly admitted series (its sketch already
// holding the triggering data, so evicting it straight back out loses
// nothing), adds it to the inverted index, and enforces the sketch
// budget.
func (m *SketchMap) installLocked(seg *segment, key string, e *entry, gen uint64) error {
	e.elem = seg.lru.PushFront(e)
	seg.entries[key] = e
	seg.indexInsert(key, e)
	m.admitted.Add(1)
	if int(m.live.Add(1)) <= m.cfg.maxSketches {
		return nil
	}
	return m.evictLocked(seg, gen)
}

// evictLocked folds the segment's least-recently-written series into
// its overflow ring — exact merges (§2.3), so the data keeps counting
// toward every roll-up that includes overflow; only its per-key
// granularity is gone — removes it from the index, and frees the slot.
// The victim first expires any intervals older than the ring retains;
// each remaining interval then merges into the overflow slot of the
// same generation, so evicted data keeps its age and expires on
// schedule.
func (m *SketchMap) evictLocked(seg *segment, gen uint64) error {
	back := seg.lru.Back()
	if back == nil {
		return nil
	}
	victim := back.Value.(*entry)
	victim.ring.Advance(gen, nil)
	// Fold the victim into overflow before touching any bookkeeping, so
	// a failed merge leaves it live (and still LRU-back, to be retried by
	// the next install). Every slot is a copy of the template, so a
	// merge can only fail on a corrupted slot.
	err := window.Zip(&seg.overflow, &victim.ring, func(dst **ddsketch.DDSketch, s *ddsketch.DDSketch) error {
		if s.IsEmpty() {
			return nil // leave an unwritten overflow slot unallocated
		}
		return m.slot(dst).MergeWith(s)
	})
	if err != nil {
		return err
	}
	m.removeLocked(seg, victim)
	m.evicted.Add(1)
	return nil
}

// removeLocked unlinks an evicted or expired entry from the segment's
// map, recency list, and index, and frees its budget slot.
func (m *SketchMap) removeLocked(seg *segment, e *entry) {
	seg.lru.Remove(e.elem)
	key := e.labels.String()
	delete(seg.entries, key)
	seg.indexRemove(key, e)
	m.live.Add(-1)
}

// Rotate advances the registry to the rotation generation containing
// the clock's present reading: admission decay and the overflow rings
// catch up in every segment, and windowed series whose whole ring has
// gone empty (idle for at least Windows intervals) are dropped —
// freeing their budget slot with nothing to merge, the windowed plane's
// LRU aging. Rotation is otherwise lazy (each series catches up when
// touched), so an idle registry only notices expiry at its next
// operation; periodic maintenance (such as ddserver's drain loop) calls
// Rotate to age series out promptly. A no-op on unwindowed registries.
//
// A call costs O(segments + expired series), not O(live series): each
// segment's idle series form a suffix of its write-recency list (see
// segment), so Rotate pops them off the back and stops at the first
// series written within the ring. Live series are left for their next
// read or write to advance.
func (m *SketchMap) Rotate() {
	m.noteGeneration(m.generation())
	if m.cfg.keyWindows == 0 {
		return
	}
	for _, seg := range m.segs {
		seg.mu.Lock()
		gen := m.lockedGen(seg)
		if m.cfg.decayEvery > 0 {
			seg.decayToGeneration(gen, m.cfg.decayEvery)
		}
		seg.overflow.Advance(gen, nil)
		for back := seg.lru.Back(); back != nil; back = seg.lru.Back() {
			e := back.Value.(*entry)
			e.ring.Advance(gen, nil)
			if !e.ring.Idle() {
				break
			}
			m.removeLocked(seg, e)
			m.expired.Add(1)
		}
		seg.mu.Unlock()
	}
}

// Get returns an independent snapshot of the named series — restricted
// to its trailing `window` intervals on a windowed registry (window ≤ 0
// or beyond the ring means all retained; unwindowed registries ignore
// it) — or false if the series is not live (never admitted, evicted, or
// expired — its data, if any, is in overflow). Reads do not
// refresh the series' eviction recency; only writes do.
func (m *SketchMap) Get(ls LabelSet, window int) (ddsketch.Sketch, bool) {
	if ls.IsZero() {
		return nil, false
	}
	key := ls.String()
	seg := m.segmentFor(fnv1a64(key))
	seg.mu.Lock()
	defer seg.mu.Unlock()
	e, ok := seg.entries[key]
	if !ok {
		return nil, false
	}
	e.ring.Advance(m.lockedGen(seg), nil)
	if window <= 0 {
		window = math.MaxInt // every retained interval; Trailing clamps
	}
	merged := m.proto.Copy()
	// Same mapping lineage by construction; under uniform collapse the
	// merge reconciles the slots' independent epochs, so it cannot fail.
	_ = e.ring.Trailing(window, mergeInto(merged))
	return merged, true
}

// Overflow returns a merged snapshot of the overflow rings: every
// retained interval of pre-admission values and evicted series. It
// answers like any other sketch (and is empty when gating and the
// budget never fired).
func (m *SketchMap) Overflow() (*ddsketch.DDSketch, error) {
	acc := m.proto.Copy()
	for _, seg := range m.segs {
		seg.mu.Lock()
		seg.overflow.Advance(m.lockedGen(seg), nil)
		err := seg.overflow.Trailing(seg.overflow.Len(), mergeInto(acc))
		seg.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// RollUp merges every live series matching f — restricted to each
// series' trailing `window` intervals on a windowed registry (window
// ≤ 0 or beyond the ring means all retained; unwindowed registries
// ignore it) — into one sketch, returning the merged sketch and the
// number of live series that matched.
//
// Constrained filters resolve through the inverted label index: each
// segment walks the smallest posting list among the filter's
// conditions instead of scanning every live entry, so a selective
// roll-up costs O(candidates), not O(live keys). The match-all filter
// "*" keeps the scan path and additionally folds in the overflow ring
// over the same trailing window — overflowed values carry no labels to
// match, so "*" (and only "*") still accounts for them, which is what
// makes RollUp(MatchAll(), k) equivalent to a single unkeyed sketch
// over the stream's trailing k intervals.
//
// Merging follows a fixed order (segments in order, keys sorted within
// each), so equal registry contents answer bit-identically regardless
// of which path produced the candidates. The result is independent of
// the registry and may be queried, merged, or encoded freely.
func (m *SketchMap) RollUp(f Filter, window int) (*ddsketch.DDSketch, int, error) {
	return m.rollUp(f, window, true)
}

// RollUpScan is RollUp forced onto the full-scan path: every live entry
// is visited and tested against f, ignoring the inverted index. It is
// the reference the index is verified against (the fuzz harness asserts
// bin-identical answers; the bench harness measures the gap) — prefer
// RollUp everywhere else.
func (m *SketchMap) RollUpScan(f Filter, window int) (*ddsketch.DDSketch, int, error) {
	return m.rollUp(f, window, false)
}

func (m *SketchMap) rollUp(f Filter, window int, useIndex bool) (*ddsketch.DDSketch, int, error) {
	if window <= 0 {
		window = math.MaxInt // every retained interval; Trailing clamps
	}
	m.noteGeneration(m.generation())
	acc := m.proto.Copy()
	merge := mergeInto(acc)
	matched := 0
	for _, seg := range m.segs {
		seg.mu.Lock()
		gen := m.lockedGen(seg)
		if f.MatchesAll() {
			seg.overflow.Advance(gen, nil)
			if err := seg.overflow.Trailing(window, merge); err != nil {
				seg.mu.Unlock()
				return nil, matched, err
			}
		}
		var keys []string
		if useIndex && !f.MatchesAll() {
			keys = seg.indexCandidates(f)
		} else {
			keys = seg.sortedKeys()
		}
		for _, key := range keys {
			e := seg.entries[key]
			if e == nil || !f.Matches(e.labels) {
				continue
			}
			matched++
			e.ring.Advance(gen, nil)
			if err := e.ring.Trailing(window, merge); err != nil {
				seg.mu.Unlock()
				return nil, matched, err
			}
		}
		seg.mu.Unlock()
	}
	return acc, matched, nil
}

// RollUpSummary is RollUp followed by a one-pass Summary over the
// merged sketch: count, sum, min, max, avg, and the requested quantiles
// of everything matching f within the trailing window. It returns
// ddsketch.ErrEmptySketch when nothing matched (or the matching series
// hold no data in the window).
func (m *SketchMap) RollUpSummary(f Filter, window int, qs ...float64) (ddsketch.Summary, int, error) {
	sketch, matched, err := m.RollUp(f, window)
	if err != nil {
		return ddsketch.Summary{}, matched, err
	}
	summary, err := sketch.Summary(qs...)
	return summary, matched, err
}

// Stats is a point-in-time view of the registry's counters and
// footprint.
type Stats struct {
	// LiveKeys is the number of series currently holding their own
	// sketch; it never exceeds MaxSketches at quiescence.
	LiveKeys int `json:"live_keys"`
	// MaxSketches is the configured sketch budget.
	MaxSketches int `json:"max_sketches"`
	// Segments is the number of lock-striped segments.
	Segments int `json:"segments"`
	// Windows is the per-key window count (0 = unwindowed), and
	// WindowInterval the duration of one interval ("" likewise).
	Windows        int    `json:"windows,omitempty"`
	WindowInterval string `json:"window_interval,omitempty"`
	// Rotations is the highest rotation generation observed — how many
	// whole intervals have elapsed since the registry was built (0 when
	// unwindowed).
	Rotations uint64 `json:"rotations,omitempty"`
	// Admitted counts keys ever promoted to their own sketch.
	Admitted uint64 `json:"admitted"`
	// Evicted counts budget evictions (each an exact merge into
	// overflow).
	Evicted uint64 `json:"evicted"`
	// Expired counts windowed series dropped by Rotate because their
	// whole ring went empty (nothing merged — they held no data).
	Expired uint64 `json:"expired,omitempty"`
	// OverflowedValues counts pre-admission value insertions routed to
	// overflow by the admission gate.
	OverflowedValues uint64 `json:"overflowed_values"`
	// OverflowWeight is the total weight the overflow rings still retain
	// (pre-admission values plus evicted series).
	OverflowWeight float64 `json:"overflow_weight"`
	// IndexPostings is the number of distinct posting lists in the
	// inverted label index (exact name=value lists plus name-presence
	// lists, summed over segments).
	IndexPostings int `json:"index_postings"`
	// SizeBytes estimates the registry's total in-memory footprint:
	// per-key rings, overflow rings, admission sketches, the
	// inverted index, and per-series bookkeeping, summed over segments.
	SizeBytes int `json:"size_bytes"`
}

// LiveKeys returns the number of series currently holding their own
// sketch.
func (m *SketchMap) LiveKeys() int { return int(m.live.Load()) }

// indexSizeBytesLocked estimates a segment's inverted-index footprint.
func indexSizeBytesLocked(seg *segment) int {
	total := 0
	for k, refs := range seg.exact {
		total += len(k) + postingOverhead + postingRefOverhead*len(refs)
	}
	for k, refs := range seg.present {
		total += len(k) + postingOverhead + postingRefOverhead*len(refs)
	}
	return total
}

// Stats returns the registry's counters and estimated footprint.
func (m *SketchMap) Stats() Stats {
	m.noteGeneration(m.generation())
	stats := Stats{
		LiveKeys:         m.LiveKeys(),
		MaxSketches:      m.cfg.maxSketches,
		Segments:         len(m.segs),
		Windows:          m.cfg.keyWindows,
		Rotations:        m.rotations.Load(),
		Admitted:         m.admitted.Load(),
		Evicted:          m.evicted.Load(),
		Expired:          m.expired.Load(),
		OverflowedValues: m.overflowed.Load(),
	}
	if m.cfg.keyWindows > 0 {
		stats.WindowInterval = m.cfg.keyInterval.String()
	}
	for _, seg := range m.segs {
		seg.mu.Lock()
		seg.overflow.Advance(m.lockedGen(seg), nil)
		weight, size := ringStats(&seg.overflow)
		stats.OverflowWeight += weight
		stats.IndexPostings += len(seg.exact) + len(seg.present)
		stats.SizeBytes += seg.cm.sizeBytes() + size + indexSizeBytesLocked(seg)
		for key, e := range seg.entries {
			_, size := ringStats(&e.ring)
			stats.SizeBytes += len(key) + entryOverhead + size
		}
		seg.mu.Unlock()
	}
	return stats
}

// Clear empties the registry — all series, overflow rings, admission
// state, the inverted index, and counters — keeping its configuration.
// The rotation grid keeps its anchor: generations keep counting from
// construction time.
func (m *SketchMap) Clear() {
	for _, seg := range m.segs {
		seg.mu.Lock()
		m.live.Add(-int64(len(seg.entries)))
		seg.entries = make(map[string]*entry)
		seg.lru.Init()
		seg.exact = make(map[string]map[string]*entry)
		seg.present = make(map[string]map[string]*entry)
		seg.overflow.Clear()
		seg.cm.reset()
		seg.observed = 0
		seg.decayGen = m.lockedGen(seg)
		seg.mu.Unlock()
	}
	m.admitted.Store(0)
	m.evicted.Store(0)
	m.expired.Store(0)
	m.overflowed.Store(0)
}
