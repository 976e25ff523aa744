package registry

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ddsketch-go/ddsketch"
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

// entry is one live keyed series: its identity, its sketch state, and
// its link into the owning segment's recency list. Two shapes share the
// struct:
//
//   - unwindowed (the default): sk holds the whole series, ring is nil;
//   - windowed (WithKeyWindow): ring is the series' interval ring —
//     ring[head] is the interval of generation gen, older slots hold
//     older intervals, nil slots are intervals never written — and sk
//     is nil. All rings share the registry's clock and rotation grid,
//     so "the trailing k intervals" means the same wall-clock span for
//     every series.
type entry struct {
	labels LabelSet
	elem   *list.Element

	sk   ddsketch.Sketch      // unwindowed series
	ring []*ddsketch.DDSketch // windowed series; lazily allocated slots
	head int                  // ring[head] is the current interval
	gen  uint64               // rotation generation ring[head] belongs to
}

// catchUp rotates a windowed entry's ring forward to generation gen,
// clearing expired slots in place (at most once each, however large the
// gap). Unwindowed entries ignore it. Callers must hold the segment
// lock.
//
// A gen older than the entry's is treated as already-current: callers
// sample the registry clock before taking the segment lock, so at an
// interval boundary an operation can arrive with a generation a
// concurrent writer has already advanced past. Rotating by the wrapped
// difference would clear the entire retained ring.
func (e *entry) catchUp(gen uint64) {
	if e.ring == nil || gen <= e.gen {
		return
	}
	steps := gen - e.gen
	e.gen = gen
	if steps >= uint64(len(e.ring)) {
		for _, s := range e.ring {
			if s != nil {
				s.Clear()
			}
		}
		return
	}
	for ; steps > 0; steps-- {
		e.head = (e.head + 1) % len(e.ring)
		if e.ring[e.head] != nil {
			e.ring[e.head].Clear()
		}
	}
}

// isEmpty reports whether the entry holds no data in any retained
// interval (callers catch the ring up first).
func (e *entry) isEmpty() bool {
	if e.ring == nil {
		return e.sk.Count() <= 0
	}
	for _, s := range e.ring {
		if s != nil && !s.IsEmpty() {
			return false
		}
	}
	return true
}

// forEachTrailing visits the entry's data newest-interval-first,
// restricted to the trailing k intervals of a windowed entry (k <= 0 or
// k >= len(ring) means every retained interval; unwindowed entries are
// visited whole regardless of k). Callers must hold the segment lock;
// the visited sketches are live — read (merge from) them, never mutate.
func (e *entry) forEachTrailing(k int, fn func(*ddsketch.DDSketch) error) error {
	if e.ring == nil {
		// The common template builds plain sketches, mergeable in place;
		// an exotic template (a concurrent variant, say) reduces through
		// a snapshot.
		if plain, ok := e.sk.(*ddsketch.DDSketch); ok {
			return fn(plain)
		}
		return fn(e.sk.Snapshot())
	}
	if k <= 0 || k > len(e.ring) {
		k = len(e.ring)
	}
	for i := 0; i < k; i++ {
		slot := e.ring[(e.head-i+len(e.ring))%len(e.ring)]
		if slot == nil || slot.IsEmpty() {
			continue
		}
		if err := fn(slot); err != nil {
			return err
		}
	}
	return nil
}

// segment is one lock-striped shard of a SketchMap: a map of live
// entries with a write-recency list, the segment's share of the
// admission sketch, its overflow sketch, and its slice of the inverted
// label index. All fields are guarded by mu; per-key sketches are only
// touched under it, so the template can produce plain (non-concurrent)
// sketches.
type segment struct {
	mu       sync.Mutex
	entries  map[string]*entry
	lru      *list.List // front = most recently written
	overflow ddsketch.Sketch
	cm       *countMin
	observed int    // admission updates since the last decay (unwindowed)
	decayGen uint64 // generation of the last rotation-driven decay (windowed)

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
// is built from the shared option template given to New, so keyed
// sketches compose with mappings, bin bounds, and uniform collapse
// exactly like standalone ones.
//
// With WithKeyWindow, every series is a ring of per-interval sketches
// on one shared rotation grid (anchored at New, advanced by the
// registry clock), so roll-ups and Get can answer over the trailing k
// intervals; rotation also drives admission decay and ages idle series
// out entirely (see Rotate).
//
// A SketchMap is safe for concurrent use.
type SketchMap struct {
	cfg       config
	newSketch func() (ddsketch.Sketch, error)
	segs      []*segment
	segMask   uint64

	clock func() time.Time
	epoch time.Time          // rotation-grid anchor (construction time)
	proto *ddsketch.DDSketch // windowed mode: empty template rings copy slots from

	live       atomic.Int64  // live entries across all segments
	admitted   atomic.Uint64 // keys ever promoted to their own sketch
	evicted    atomic.Uint64 // keys folded back into overflow by the budget
	expired    atomic.Uint64 // windowed keys dropped because their whole ring went empty
	overflowed atomic.Uint64 // pre-admission value insertions routed to overflow
	rotations  atomic.Uint64 // highest rotation generation observed
}

// New builds a SketchMap from the given options (see Option). The
// sketch template is validated eagerly: a template NewSketch rejects —
// or, under WithKeyWindow, one that layers its own concurrency or
// windowing, which the per-key rings cannot honor — is reported here,
// not on first Add.
func New(opts ...Option) (*SketchMap, error) {
	cfg := defaultRegistryConfig()
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	newSketch := func() (ddsketch.Sketch, error) { return ddsketch.NewSketch(cfg.template...) }
	probe, err := newSketch()
	if err != nil {
		return nil, fmt.Errorf("%w: sketch template: %v", ErrInvalidOption, err)
	}
	clock := cfg.clock
	if clock == nil {
		clock = time.Now
	}
	m := &SketchMap{
		cfg:       cfg,
		newSketch: newSketch,
		segs:      make([]*segment, cfg.segments),
		segMask:   uint64(cfg.segments - 1),
		clock:     clock,
		epoch:     clock(),
	}
	if cfg.keyWindows > 0 {
		// Per-key rings rotate, clear, and merge their slots in place
		// under the segment lock, which only a plain sketch supports: a
		// template carrying its own mutex, sharding, or window ring would
		// double-layer concurrency and retention the registry already
		// provides.
		plain, ok := probe.(*ddsketch.DDSketch)
		if !ok {
			return nil, fmt.Errorf(
				"%w: WithKeyWindow needs a plain sketch template, got %T (drop WithMutex/WithSharding/WithWindow from WithSketchOptions; the per-key rings provide windowing)",
				ErrInvalidOption, probe)
		}
		plain.Clear()
		m.proto = plain
	}
	for i := range m.segs {
		overflow, err := newSketch()
		if err != nil {
			return nil, err
		}
		m.segs[i] = &segment{
			entries: make(map[string]*entry),
			lru:     list.New(),
			// Overflow stays unwindowed even under WithKeyWindow: evicted
			// and pre-admission data has already lost its per-key
			// granularity, and losing its age too is the documented cost
			// of eviction — match-all roll-ups keep counting it forever.
			overflow: overflow,
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
// present reading: the number of whole key-window intervals since the
// registry was built. Always 0 for unwindowed registries.
func (m *SketchMap) generation() uint64 {
	if m.cfg.keyWindows == 0 {
		return 0
	}
	elapsed := m.clock().Sub(m.epoch)
	if elapsed <= 0 {
		return 0
	}
	return uint64(elapsed / m.cfg.keyInterval)
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
	gen := m.generation()
	seg.mu.Lock()
	defer seg.mu.Unlock()
	if e, ok := seg.entries[key]; ok {
		seg.lru.MoveToFront(e.elem)
		e.catchUp(gen)
		return m.writeTarget(e).AddWithCount(value, count)
	}
	if !m.admitLocked(seg, hash, count, gen) {
		m.overflowed.Add(1)
		return seg.overflow.AddWithCount(value, count)
	}
	e, err := m.newEntry(ls, gen)
	if err != nil {
		return err
	}
	if addErr := m.writeTarget(e).AddWithCount(value, count); addErr != nil {
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
	gen := m.generation()
	seg.mu.Lock()
	defer seg.mu.Unlock()
	if e, ok := seg.entries[key]; ok {
		seg.lru.MoveToFront(e.elem)
		e.catchUp(gen)
		return m.writeTarget(e).AddBatchWithCount(values, count)
	}
	if !m.admitLocked(seg, hash, count*float64(len(values)), gen) {
		m.overflowed.Add(uint64(len(values)))
		return seg.overflow.AddBatchWithCount(values, count)
	}
	e, err := m.newEntry(ls, gen)
	if err != nil {
		return err
	}
	batchErr := m.writeTarget(e).AddBatchWithCount(values, count)
	if e.isEmpty() {
		// The batch failed on its first value: no prefix to keep, no
		// series to install.
		return batchErr
	}
	if err := m.installLocked(seg, key, e, gen); err != nil {
		return err
	}
	return batchErr
}

// newEntry builds a not-yet-installed series shell for ls at the given
// generation: an unwindowed template sketch, or an interval ring whose
// slots allocate lazily on first write (so a freshly admitted series
// costs one sketch, not Windows of them).
func (m *SketchMap) newEntry(ls LabelSet, gen uint64) (*entry, error) {
	if m.cfg.keyWindows > 0 {
		return &entry{labels: ls, ring: make([]*ddsketch.DDSketch, m.cfg.keyWindows), gen: gen}, nil
	}
	sk, err := m.newSketch()
	if err != nil {
		return nil, err
	}
	return &entry{labels: ls, sk: sk}, nil
}

// writeTarget returns the sketch the entry's next write lands in,
// allocating the current ring slot on first use. Callers must hold the
// segment lock and have caught the entry up to the current generation.
func (m *SketchMap) writeTarget(e *entry) ddsketch.Sketch {
	if e.ring == nil {
		return e.sk
	}
	if e.ring[e.head] == nil {
		e.ring[e.head] = m.proto.Copy()
	}
	return e.ring[e.head]
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

// decayToGeneration applies every rotation-driven admission decay due
// between the segment's last decay and gen: one halving per `every`
// intervals elapsed. Callers must hold the segment lock. A gen at or
// behind the last decay is a no-op — callers sample the clock before
// locking, so a stale generation must not underflow the subtraction
// and wipe the admission state.
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
// its overflow sketch — an exact merge (§2.3), so the data keeps
// counting toward every roll-up that includes overflow; only its
// per-key granularity is gone — removes it from the index, and frees
// the slot. A windowed victim first expires any intervals older than
// the ring retains, then merges its *entire remaining ring* — every
// retained interval, not just the current one — so eviction never loses
// retained data (it only freezes its age: overflow is unwindowed).
func (m *SketchMap) evictLocked(seg *segment, gen uint64) error {
	back := seg.lru.Back()
	if back == nil {
		return nil
	}
	victim := back.Value.(*entry)
	victim.catchUp(gen)
	// Fold the victim into overflow before touching any bookkeeping, so
	// a failed merge leaves it live (and still LRU-back, to be retried by
	// the next install) instead of dropping retained intervals.
	if err := m.foldIntoOverflowLocked(seg, victim); err != nil {
		return err
	}
	seg.lru.Remove(back)
	key := victim.labels.String()
	delete(seg.entries, key)
	seg.indexRemove(key, victim)
	m.live.Add(-1)
	m.evicted.Add(1)
	return nil
}

// foldIntoOverflowLocked merges an entry's retained data into the
// segment's overflow sketch as one atomic step: a windowed ring is
// collapsed into a scratch sketch first, so overflow sees a single
// MergeWith (which validates compatibility before mutating) and a
// failure part-way through the ring cannot leave some intervals merged
// and others dropped. Callers must hold the segment lock and have
// caught the entry up.
func (m *SketchMap) foldIntoOverflowLocked(seg *segment, e *entry) error {
	if e.ring == nil {
		return e.forEachTrailing(0, func(s *ddsketch.DDSketch) error {
			return seg.overflow.MergeWith(s)
		})
	}
	var scratch *ddsketch.DDSketch
	err := e.forEachTrailing(0, func(s *ddsketch.DDSketch) error {
		if scratch == nil {
			scratch = s.Copy()
			return nil
		}
		return scratch.MergeWith(s)
	})
	if err != nil || scratch == nil {
		return err
	}
	return seg.overflow.MergeWith(scratch)
}

// Rotate advances the registry to the rotation generation containing
// the clock's present reading: admission decay catches up in every
// segment and windowed series whose whole ring has gone empty (idle for
// at least Windows intervals) are dropped — freeing their budget slot
// with nothing to merge, the windowed plane's LRU aging. Rotation is
// otherwise lazy (each series catches up when touched), so an idle
// registry only notices expiry at its next operation; periodic
// maintenance (such as ddserver's drain loop) calls Rotate to age
// series out promptly. A no-op on unwindowed registries.
func (m *SketchMap) Rotate() {
	gen := m.generation()
	m.noteGeneration(gen)
	if m.cfg.keyWindows == 0 {
		return
	}
	for _, seg := range m.segs {
		seg.mu.Lock()
		if m.cfg.decayEvery > 0 {
			seg.decayToGeneration(gen, m.cfg.decayEvery)
		}
		for key, e := range seg.entries {
			e.catchUp(gen)
			if e.isEmpty() {
				seg.lru.Remove(e.elem)
				delete(seg.entries, key)
				seg.indexRemove(key, e)
				m.live.Add(-1)
				m.expired.Add(1)
			}
		}
		seg.mu.Unlock()
	}
}

// Get returns an independent snapshot of the named series — restricted
// to its trailing `window` intervals on a windowed registry (window ≤ 0
// or beyond the ring means all retained; unwindowed registries ignore
// it) — or false if the series is not live (never admitted, evicted, or
// expired — its data, if any, is in the overflow sketch). Reads do not
// refresh the series' eviction recency; only writes do.
func (m *SketchMap) Get(ls LabelSet, window int) (ddsketch.Sketch, bool) {
	if ls.IsZero() {
		return nil, false
	}
	key := ls.String()
	seg := m.segmentFor(fnv1a64(key))
	gen := m.generation()
	seg.mu.Lock()
	defer seg.mu.Unlock()
	e, ok := seg.entries[key]
	if !ok {
		return nil, false
	}
	e.catchUp(gen)
	if e.ring == nil {
		return e.sk.Snapshot(), true
	}
	merged := m.proto.Copy()
	// Same mapping lineage by construction; under uniform collapse the
	// merge reconciles the slots' independent epochs, so it cannot fail.
	_ = e.forEachTrailing(window, func(s *ddsketch.DDSketch) error {
		return merged.MergeWith(s)
	})
	return merged, true
}

// Overflow returns a merged snapshot of the overflow sketches: all
// pre-admission values plus every evicted series. It answers like any
// other sketch (and is empty when gating and the budget never fired).
func (m *SketchMap) Overflow() (*ddsketch.DDSketch, error) {
	var acc *ddsketch.DDSketch
	for _, seg := range m.segs {
		seg.mu.Lock()
		if seg.overflow.Count() > 0 {
			snap := seg.overflow.Snapshot()
			if acc == nil {
				acc = snap
			} else if err := acc.MergeWith(snap); err != nil {
				seg.mu.Unlock()
				return nil, err
			}
		}
		seg.mu.Unlock()
	}
	if acc == nil {
		return m.emptySnapshot()
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
// "*" keeps the scan path and additionally folds in the overflow
// sketch — overflowed values carry no labels to match, so "*" (and
// only "*") still accounts for them, which is what makes
// RollUp(MatchAll(), 0) equivalent to a single unkeyed sketch over the
// whole stream. Note the overflow sketch is unwindowed: data evicted
// from a windowed series stops aging, so a match-all roll-up over a
// trailing window still includes all of overflow.
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
	gen := m.generation()
	m.noteGeneration(gen)
	var acc *ddsketch.DDSketch
	matched := 0
	merge := func(s *ddsketch.DDSketch) error {
		if acc == nil {
			acc = s.Copy()
			return nil
		}
		return acc.MergeWith(s)
	}
	for _, seg := range m.segs {
		seg.mu.Lock()
		if f.MatchesAll() && seg.overflow.Count() > 0 {
			if plain, ok := seg.overflow.(*ddsketch.DDSketch); ok {
				if err := merge(plain); err != nil {
					seg.mu.Unlock()
					return nil, matched, err
				}
			} else if err := merge(seg.overflow.Snapshot()); err != nil {
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
			e.catchUp(gen)
			if err := e.forEachTrailing(window, merge); err != nil {
				seg.mu.Unlock()
				return nil, matched, err
			}
		}
		seg.mu.Unlock()
	}
	if acc == nil {
		empty, err := m.emptySnapshot()
		if err != nil {
			return nil, matched, err
		}
		return empty, matched, nil
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

// emptySnapshot builds an empty plain sketch from the template, the
// shape roll-ups with no matches return.
func (m *SketchMap) emptySnapshot() (*ddsketch.DDSketch, error) {
	if m.proto != nil {
		return m.proto.Copy(), nil
	}
	sk, err := m.newSketch()
	if err != nil {
		return nil, err
	}
	return sk.Snapshot(), nil
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
	// OverflowWeight is the total weight currently held by the overflow
	// sketches (pre-admission values plus evicted series).
	OverflowWeight float64 `json:"overflow_weight"`
	// IndexPostings is the number of distinct posting lists in the
	// inverted label index (exact name=value lists plus name-presence
	// lists, summed over segments).
	IndexPostings int `json:"index_postings"`
	// SizeBytes estimates the registry's total in-memory footprint:
	// per-key sketches, overflow sketches, admission sketches, the
	// inverted index, and per-series bookkeeping, summed over segments.
	SizeBytes int `json:"size_bytes"`
}

// LiveKeys returns the number of series currently holding their own
// sketch.
func (m *SketchMap) LiveKeys() int { return int(m.live.Load()) }

// entrySizeBytesLocked estimates one series' footprint: its sketch (or
// every allocated ring slot), key, and bookkeeping overhead.
func entrySizeBytesLocked(key string, e *entry) int {
	total := len(key) + entryOverhead
	if e.ring == nil {
		return total + sketchSizeBytes(e.sk)
	}
	total += 24 * len(e.ring) // ring header + slot pointers
	for _, s := range e.ring {
		if s != nil {
			total += s.SizeBytes()
		}
	}
	return total
}

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
		stats.OverflowWeight += seg.overflow.Count()
		stats.IndexPostings += len(seg.exact) + len(seg.present)
		stats.SizeBytes += seg.cm.sizeBytes() + sketchSizeBytes(seg.overflow) + indexSizeBytesLocked(seg)
		for key, e := range seg.entries {
			stats.SizeBytes += entrySizeBytesLocked(key, e)
		}
		seg.mu.Unlock()
	}
	return stats
}

// Clear empties the registry — all series, overflow sketches, admission
// state, the inverted index, and counters — keeping its configuration.
// The rotation grid keeps its anchor: generations keep counting from
// construction time.
func (m *SketchMap) Clear() {
	gen := m.generation()
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
		seg.decayGen = gen
		seg.mu.Unlock()
	}
	m.admitted.Store(0)
	m.evicted.Store(0)
	m.expired.Store(0)
	m.overflowed.Store(0)
}

// sketchSizeBytes estimates a sketch's footprint: every variant with a
// native SizeBytes reports directly; anything else is measured through
// a snapshot.
func sketchSizeBytes(sk ddsketch.Sketch) int {
	if s, ok := sk.(interface{ SizeBytes() int }); ok {
		return s.SizeBytes()
	}
	return sk.Snapshot().SizeBytes()
}
