package store

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/ddsketch-go/ddsketch/encoding"
)

type storeCase struct {
	name string
	new  func() Store
}

// unboundedStores never collapse and must agree bin-for-bin.
var unboundedStores = []storeCase{
	{"Dense", func() Store { return NewDenseStore() }},
	{"CollapsingLowest(huge)", func() Store { return NewCollapsingLowestDenseStore(1 << 20) }},
	{"CollapsingHighest(huge)", func() Store { return NewCollapsingHighestDenseStore(1 << 20) }},
}

// allStores includes tightly collapsing variants for the tests that only
// check generic invariants.
var allStores = append([]storeCase{
	{"CollapsingLowest(64)", func() Store { return NewCollapsingLowestDenseStore(64) }},
	{"CollapsingHighest(64)", func() Store { return NewCollapsingHighestDenseStore(64) }},
}, unboundedStores...)

// model is the reference implementation: a plain map.
type model map[int]float64

func (m model) add(index int, count float64) {
	updated := m[index] + count
	if updated <= 0 {
		delete(m, index)
	} else {
		m[index] = updated
	}
}

func (m model) total() float64 {
	t := 0.0
	for _, c := range m {
		t += c
	}
	return t
}

func (m model) sortedIndexes() []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func (m model) keyAtRank(rank float64) int {
	if rank < 0 {
		rank = 0
	}
	keys := m.sortedIndexes()
	cum := 0.0
	for _, k := range keys {
		cum += m[k]
		if cum > rank {
			return k
		}
	}
	return keys[len(keys)-1]
}

func checkAgainstModel(t *testing.T, name string, s Store, m model) {
	t.Helper()
	if got, want := s.TotalCount(), m.total(); math.Abs(got-want) > 1e-9*(1+want) {
		t.Fatalf("%s: TotalCount = %g, want %g", name, got, want)
	}
	if got, want := s.IsEmpty(), len(m) == 0; got != want {
		t.Fatalf("%s: IsEmpty = %t, want %t", name, got, want)
	}
	if got, want := s.NumBins(), len(m); got != want {
		t.Fatalf("%s: NumBins = %d, want %d", name, got, want)
	}
	if len(m) == 0 {
		if _, err := s.MinIndex(); err == nil {
			t.Fatalf("%s: MinIndex on empty store: want error", name)
		}
		if _, err := s.MaxIndex(); err == nil {
			t.Fatalf("%s: MaxIndex on empty store: want error", name)
		}
		if _, err := s.KeyAtRank(0); err == nil {
			t.Fatalf("%s: KeyAtRank on empty store: want error", name)
		}
		return
	}
	keys := m.sortedIndexes()
	if got, err := s.MinIndex(); err != nil || got != keys[0] {
		t.Fatalf("%s: MinIndex = (%d, %v), want %d", name, got, err, keys[0])
	}
	if got, err := s.MaxIndex(); err != nil || got != keys[len(keys)-1] {
		t.Fatalf("%s: MaxIndex = (%d, %v), want %d", name, got, err, keys[len(keys)-1])
	}
	// ForEach must visit ascending with matching counts.
	var visited []int
	s.ForEach(func(index int, count float64) bool {
		visited = append(visited, index)
		if want := m[index]; math.Abs(count-want) > 1e-9*(1+want) {
			t.Fatalf("%s: ForEach(%d) count = %g, want %g", name, index, count, want)
		}
		return true
	})
	if len(visited) != len(keys) {
		t.Fatalf("%s: ForEach visited %d bins, want %d", name, len(visited), len(keys))
	}
	for i := range visited {
		if visited[i] != keys[i] {
			t.Fatalf("%s: ForEach order %v, want %v", name, visited, keys)
		}
	}
	// Spot-check KeyAtRank across the distribution.
	total := m.total()
	for _, r := range []float64{0, total / 4, total / 2, total - 1, total - 0.5, total + 10} {
		got, err := s.KeyAtRank(r)
		if err != nil {
			t.Fatalf("%s: KeyAtRank(%g): %v", name, r, err)
		}
		if want := m.keyAtRank(r); got != want {
			t.Fatalf("%s: KeyAtRank(%g) = %d, want %d", name, r, got, want)
		}
	}
}

func TestStoresMatchModelSequential(t *testing.T) {
	for _, c := range unboundedStores {
		t.Run(c.name, func(t *testing.T) {
			s := c.new()
			m := model{}
			for i := 0; i < 100; i++ {
				s.Add(i)
				m.add(i, 1)
			}
			checkAgainstModel(t, c.name, s, m)
		})
	}
}

func TestStoresMatchModelRandomOps(t *testing.T) {
	for _, c := range unboundedStores {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1234))
			s := c.new()
			m := model{}
			for op := 0; op < 5000; op++ {
				index := rng.Intn(400) - 200
				switch rng.Intn(4) {
				case 0:
					s.Add(index)
					m.add(index, 1)
				case 1:
					count := rng.Float64() * 10
					s.AddWithCount(index, count)
					m.add(index, count)
				case 2: // integral weights
					count := float64(1 + rng.Intn(5))
					s.AddWithCount(index, count)
					m.add(index, count)
				case 3: // removal
					if existing, ok := m[index]; ok {
						remove := existing
						if rng.Intn(2) == 0 {
							remove = existing / 2
						}
						s.AddWithCount(index, -remove)
						m.add(index, -remove)
					}
				}
			}
			checkAgainstModel(t, c.name, s, m)
		})
	}
}

func TestStoresMatchModelScatteredIndexes(t *testing.T) {
	// Indexes spread over a huge range exercise dense growth and paging.
	indexes := []int{-100000, -3000, -40, 0, 7, 1024, 65536, 900000}
	for _, c := range unboundedStores {
		t.Run(c.name, func(t *testing.T) {
			s := c.new()
			m := model{}
			for _, idx := range indexes {
				s.AddWithCount(idx, 2.5)
				m.add(idx, 2.5)
			}
			checkAgainstModel(t, c.name, s, m)
		})
	}
}

func TestAddWithZeroCountIsNoOp(t *testing.T) {
	for _, c := range allStores {
		s := c.new()
		s.AddWithCount(5, 0)
		if !s.IsEmpty() {
			t.Errorf("%s: AddWithCount(5, 0) left store non-empty", c.name)
		}
	}
}

func TestRemovalFromEmptyStoreIsNoOp(t *testing.T) {
	for _, c := range allStores {
		s := c.new()
		s.AddWithCount(5, -3)
		if !s.IsEmpty() || s.TotalCount() != 0 {
			t.Errorf("%s: removal from empty store: count=%g", c.name, s.TotalCount())
		}
	}
}

func TestRemovalClampsAtZero(t *testing.T) {
	for _, c := range allStores {
		s := c.new()
		s.AddWithCount(3, 2)
		s.AddWithCount(3, -5) // over-removal
		if got := s.TotalCount(); got != 0 {
			t.Errorf("%s: over-removal: TotalCount = %g, want 0", c.name, got)
		}
		if !s.IsEmpty() {
			t.Errorf("%s: over-removal left store non-empty", c.name)
		}
	}
}

func TestRemovalThenReuse(t *testing.T) {
	for _, c := range allStores {
		s := c.new()
		s.Add(10)
		s.AddWithCount(10, -1)
		s.Add(20)
		if got, err := s.MinIndex(); err != nil || got != 20 {
			t.Errorf("%s: MinIndex after removal+reuse = (%d, %v), want 20", c.name, got, err)
		}
		if got, err := s.MaxIndex(); err != nil || got != 20 {
			t.Errorf("%s: MaxIndex after removal+reuse = (%d, %v), want 20", c.name, got, err)
		}
	}
}

func TestKeyAtRankSemantics(t *testing.T) {
	// Three buckets with counts 2, 1, 3: cumulative 2, 3, 6.
	for _, c := range allStores {
		s := c.new()
		s.AddWithCount(-5, 2)
		s.AddWithCount(0, 1)
		s.AddWithCount(8, 3)
		cases := []struct {
			rank float64
			want int
		}{
			{0, -5}, {1, -5}, {1.9, -5},
			{2, 0}, {2.5, 0},
			{3, 8}, {5, 8}, {5.9, 8},
			{6, 8},   // rank beyond total clamps to max bucket
			{100, 8}, // far beyond
		}
		for _, tc := range cases {
			got, err := s.KeyAtRank(tc.rank)
			if err != nil {
				t.Fatalf("%s: KeyAtRank(%g): %v", c.name, tc.rank, err)
			}
			if got != tc.want {
				t.Errorf("%s: KeyAtRank(%g) = %d, want %d", c.name, tc.rank, got, tc.want)
			}
		}
	}
}

func TestMergeMatchesSequentialAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	indexesA := make([]int, 300)
	indexesB := make([]int, 500)
	for i := range indexesA {
		indexesA[i] = rng.Intn(200) - 100
	}
	for i := range indexesB {
		indexesB[i] = rng.Intn(300) - 50
	}
	for _, cDst := range unboundedStores {
		for _, cSrc := range unboundedStores {
			dst := cDst.new()
			src := cSrc.new()
			m := model{}
			for _, idx := range indexesA {
				dst.Add(idx)
				m.add(idx, 1)
			}
			for _, idx := range indexesB {
				src.Add(idx)
				m.add(idx, 1)
			}
			dst.MergeWith(src)
			checkAgainstModel(t, cDst.name+"<-"+cSrc.name, dst, m)
		}
	}
}

func TestMergeWithEmpty(t *testing.T) {
	for _, c := range allStores {
		s := c.new()
		s.Add(1)
		s.MergeWith(c.new())
		if s.TotalCount() != 1 {
			t.Errorf("%s: merge with empty changed count to %g", c.name, s.TotalCount())
		}
		empty := c.new()
		empty.MergeWith(s)
		if empty.TotalCount() != 1 {
			t.Errorf("%s: merge into empty: count %g, want 1", c.name, empty.TotalCount())
		}
	}
}

func TestCopyIsIndependent(t *testing.T) {
	for _, c := range allStores {
		s := c.new()
		s.AddWithCount(1, 2)
		s.AddWithCount(7, 3)
		cp := s.Copy()
		// Stay within the tightest collapsing limit so removal semantics
		// are exact.
		s.Add(60)
		s.AddWithCount(1, -2)
		if got := cp.TotalCount(); got != 5 {
			t.Errorf("%s: copy affected by mutations: count %g, want 5", c.name, got)
		}
		cp.Add(50)
		if got := s.TotalCount(); got != 4 {
			t.Errorf("%s: original affected by copy mutations: count %g, want 4", c.name, got)
		}
	}
}

func TestClear(t *testing.T) {
	for _, c := range allStores {
		s := c.new()
		for i := 0; i < 100; i++ {
			s.Add(i)
		}
		s.Clear()
		if !s.IsEmpty() || s.TotalCount() != 0 || s.NumBins() != 0 {
			t.Errorf("%s: Clear left count=%g bins=%d", c.name, s.TotalCount(), s.NumBins())
		}
		// The store must be fully reusable after Clear.
		s.Add(42)
		if got, err := s.MinIndex(); err != nil || got != 42 {
			t.Errorf("%s: after Clear+Add, MinIndex = (%d, %v)", c.name, got, err)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range allStores {
		s := c.new()
		for i := 0; i < 500; i++ {
			s.AddWithCount(rng.Intn(100)-50, float64(1+rng.Intn(4)))
		}
		w := encoding.NewWriter(0)
		s.Encode(w)
		got, err := Decode(encoding.NewReader(w.Bytes()))
		if err != nil {
			t.Fatalf("%s: Decode: %v", c.name, err)
		}
		// Same contents...
		m := model{}
		s.ForEach(func(index int, count float64) bool {
			m.add(index, count)
			return true
		})
		checkAgainstModel(t, c.name+" (decoded)", got, m)
		// ...and the same concrete behaviour (collapsing config preserved).
		if _, isLowest := s.(*CollapsingLowestDenseStore); isLowest {
			gotLowest, ok := got.(*CollapsingLowestDenseStore)
			if !ok {
				t.Fatalf("%s: decoded to %T", c.name, got)
			}
			if gotLowest.MaxBins() != s.(*CollapsingLowestDenseStore).MaxBins() {
				t.Errorf("%s: decoded maxBins %d", c.name, gotLowest.MaxBins())
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(encoding.NewReader(nil)); err == nil {
		t.Error("Decode(empty): want error")
	}
	w := encoding.NewWriter(4)
	w.Byte(200)
	if _, err := Decode(encoding.NewReader(w.Bytes())); err == nil {
		t.Error("Decode(unknown tag): want error")
	}
	// Truncated payload.
	s := NewDenseStore()
	s.Add(1)
	s.Add(2)
	w2 := encoding.NewWriter(0)
	s.Encode(w2)
	if _, err := Decode(encoding.NewReader(w2.Bytes()[:len(w2.Bytes())-1])); err == nil {
		t.Error("Decode(truncated): want error")
	}
}

func TestCollapsingLowestRespectsBinLimit(t *testing.T) {
	const maxBins = 16
	s := NewCollapsingLowestDenseStore(maxBins)
	for i := 0; i < 1000; i++ {
		s.Add(i)
	}
	min, _ := s.MinIndex()
	max, _ := s.MaxIndex()
	if span := max - min + 1; span > maxBins {
		t.Errorf("index span %d exceeds maxBins %d", span, maxBins)
	}
	if got := s.TotalCount(); got != 1000 {
		t.Errorf("collapse lost weight: count %g, want 1000", got)
	}
	if !s.IsCollapsed() {
		t.Error("IsCollapsed = false after collapse")
	}
	if max != 999 {
		t.Errorf("MaxIndex = %d, want 999 (high buckets must survive)", max)
	}
	// All the collapsed weight sits in the lowest kept bucket.
	wantFloor := 999 - maxBins + 1
	if min != wantFloor {
		t.Errorf("MinIndex = %d, want %d", min, wantFloor)
	}
	var floorCount float64
	s.ForEach(func(index int, count float64) bool {
		if index == wantFloor {
			floorCount = count
		}
		return true
	})
	if want := float64(1000 - maxBins + 1); floorCount != want {
		t.Errorf("floor bucket count %g, want %g", floorCount, want)
	}
}

func TestCollapsingLowestAddBelowRange(t *testing.T) {
	const maxBins = 8
	s := NewCollapsingLowestDenseStore(maxBins)
	for i := 100; i < 100+maxBins; i++ {
		s.Add(i)
	}
	s.Add(5) // far below: must fold into the floor bucket
	if !s.IsCollapsed() {
		t.Error("IsCollapsed = false")
	}
	min, _ := s.MinIndex()
	if min != 100 {
		t.Errorf("MinIndex = %d, want 100", min)
	}
	if got := s.TotalCount(); got != float64(maxBins+1) {
		t.Errorf("TotalCount = %g", got)
	}
}

func TestCollapsingHighestMirrors(t *testing.T) {
	const maxBins = 16
	s := NewCollapsingHighestDenseStore(maxBins)
	for i := 0; i < 1000; i++ {
		s.Add(i)
	}
	min, _ := s.MinIndex()
	max, _ := s.MaxIndex()
	if span := max - min + 1; span > maxBins {
		t.Errorf("index span %d exceeds maxBins %d", span, maxBins)
	}
	if min != 0 {
		t.Errorf("MinIndex = %d, want 0 (low buckets must survive)", min)
	}
	if want := maxBins - 1; max != want {
		t.Errorf("MaxIndex = %d, want %d", max, want)
	}
	if got := s.TotalCount(); got != 1000 {
		t.Errorf("collapse lost weight: count %g, want 1000", got)
	}
	if !s.IsCollapsed() {
		t.Error("IsCollapsed = false after collapse")
	}
}

func TestCollapsingMemoryStaysBoundedUnderDrift(t *testing.T) {
	// A workload whose index range drifts upward forever must not grow
	// the backing array (regression test for unbounded relocation).
	const maxBins = 128
	s := NewCollapsingLowestDenseStore(maxBins)
	for i := 0; i < 200000; i++ {
		s.Add(i)
	}
	if got, limit := s.SizeBytes(), 8*(maxBins+2*growthPadding)+256; got > limit {
		t.Errorf("SizeBytes = %d after drift, want ≤ %d", got, limit)
	}
}

func TestCollapsingMergePreservesWeightAndLimit(t *testing.T) {
	const maxBins = 32
	a := NewCollapsingLowestDenseStore(maxBins)
	b := NewDenseStore()
	for i := 0; i < 100; i++ {
		a.Add(i)
		b.Add(i + 500)
	}
	a.MergeWith(b)
	if got := a.TotalCount(); got != 200 {
		t.Errorf("TotalCount = %g, want 200", got)
	}
	min, _ := a.MinIndex()
	max, _ := a.MaxIndex()
	if span := max - min + 1; span > maxBins {
		t.Errorf("index span %d exceeds maxBins %d after merge", span, maxBins)
	}
	if max != 599 {
		t.Errorf("MaxIndex = %d, want 599", max)
	}
}

func TestCollapsingSingleBin(t *testing.T) {
	s := NewCollapsingLowestDenseStore(1)
	for i := 0; i < 10; i++ {
		s.Add(i * 37)
	}
	if got := s.NumBins(); got != 1 {
		t.Errorf("NumBins = %d, want 1", got)
	}
	if got := s.TotalCount(); got != 10 {
		t.Errorf("TotalCount = %g, want 10", got)
	}
	max, _ := s.MaxIndex()
	if max != 9*37 {
		t.Errorf("MaxIndex = %d, want %d", max, 9*37)
	}
}

func TestProviders(t *testing.T) {
	cases := []struct {
		name     string
		provider Provider
		wantType Store
	}{
		{"dense", DenseStoreProvider(), &DenseStore{}},
		{"collapsingLowest", CollapsingLowestProvider(10), &CollapsingLowestDenseStore{}},
		{"collapsingHighest", CollapsingHighestProvider(10), &CollapsingHighestDenseStore{}},
	}
	for _, c := range cases {
		s1, s2 := c.provider(), c.provider()
		if s1 == s2 {
			t.Errorf("%s: provider returned the same instance twice", c.name)
		}
		s1.Add(3)
		if !s2.IsEmpty() {
			t.Errorf("%s: provider instances share state", c.name)
		}
	}
}

func TestSizeBytesGrowsWithContent(t *testing.T) {
	for _, c := range unboundedStores {
		s := c.new()
		empty := s.SizeBytes()
		if empty <= 0 {
			t.Errorf("%s: empty SizeBytes = %d", c.name, empty)
		}
		for i := 0; i < 10000; i++ {
			s.Add(i)
		}
		if full := s.SizeBytes(); full <= empty {
			t.Errorf("%s: SizeBytes did not grow: %d -> %d", c.name, empty, full)
		}
	}
}

func TestQuickStoreTotalEqualsForEachSum(t *testing.T) {
	for _, c := range allStores {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			s := c.new()
			for i := 0; i < 200; i++ {
				s.AddWithCount(rng.Intn(100)-50, float64(rng.Intn(5)+1))
			}
			sum := 0.0
			s.ForEach(func(_ int, count float64) bool {
				sum += count
				return true
			})
			return math.Abs(sum-s.TotalCount()) < 1e-6
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestQuickCollapsingPreservesTotalCount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewCollapsingLowestDenseStore(1 + rng.Intn(32))
		want := 0.0
		for i := 0; i < 300; i++ {
			c := float64(rng.Intn(3) + 1)
			s.AddWithCount(rng.Intn(2000)-1000, c)
			want += c
		}
		return math.Abs(s.TotalCount()-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStringImplementations(t *testing.T) {
	for _, c := range allStores {
		s := c.new()
		s.Add(1)
		type stringer interface{ String() string }
		str, ok := s.(stringer)
		if !ok {
			t.Errorf("%s: does not implement fmt.Stringer", c.name)
			continue
		}
		if str.String() == "" {
			t.Errorf("%s: empty String()", c.name)
		}
	}
}

func TestQuickCollapsingMergeFastPathMatchesGeneric(t *testing.T) {
	// The dense-to-dense merge fast path must produce bin-for-bin the
	// same result as the generic ForEach/AddWithCount path.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		maxBins := 1 + rng.Intn(48)
		src := NewDenseStore()
		for i := 0; i < 200; i++ {
			src.AddWithCount(rng.Intn(400)-200, float64(1+rng.Intn(3)))
		}
		fast := NewCollapsingLowestDenseStore(maxBins)
		slow := NewCollapsingLowestDenseStore(maxBins)
		fastHigh := NewCollapsingHighestDenseStore(maxBins)
		slowHigh := NewCollapsingHighestDenseStore(maxBins)
		for i := 0; i < 100; i++ {
			idx := rng.Intn(300) - 150
			fast.Add(idx)
			slow.Add(idx)
			fastHigh.Add(idx)
			slowHigh.Add(idx)
		}
		fast.MergeWith(src)     // dense fast path
		mergeGeneric(slow, src) // reference path
		fastHigh.MergeWith(src)
		mergeGeneric(slowHigh, src)
		return storesEqual(fast, slow) && storesEqual(fastHigh, slowHigh)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func storesEqual(a, b Store) bool {
	if math.Abs(a.TotalCount()-b.TotalCount()) > 1e-9 {
		return false
	}
	equal := true
	type bin struct {
		index int
		count float64
	}
	var bins []bin
	a.ForEach(func(index int, count float64) bool {
		bins = append(bins, bin{index, count})
		return true
	})
	i := 0
	b.ForEach(func(index int, count float64) bool {
		if i >= len(bins) || bins[i].index != index || math.Abs(bins[i].count-count) > 1e-9 {
			equal = false
			return false
		}
		i++
		return true
	})
	return equal && i == len(bins)
}

func TestKeyAtRankDescendingSemantics(t *testing.T) {
	// Mirror of TestKeyAtRankSemantics: cumulate from the highest bucket.
	// Buckets: (-5, 2), (0, 1), (8, 3); descending cumulative 3, 4, 6.
	for _, c := range allStores {
		s := c.new()
		s.AddWithCount(-5, 2)
		s.AddWithCount(0, 1)
		s.AddWithCount(8, 3)
		cases := []struct {
			rank float64
			want int
		}{
			{0, 8}, {1, 8}, {2.9, 8},
			{3, 0}, {3.5, 0},
			{4, -5}, {5, -5}, {5.9, -5},
			{6, -5},   // rank beyond total clamps to the min bucket
			{100, -5}, // far beyond
		}
		for _, tc := range cases {
			got, err := s.KeyAtRankDescending(tc.rank)
			if err != nil {
				t.Fatalf("%s: KeyAtRankDescending(%g): %v", c.name, tc.rank, err)
			}
			if got != tc.want {
				t.Errorf("%s: KeyAtRankDescending(%g) = %d, want %d", c.name, tc.rank, got, tc.want)
			}
		}
		if _, err := c.new().KeyAtRankDescending(0); err == nil {
			t.Errorf("%s: KeyAtRankDescending on empty store: want error", c.name)
		}
	}
}

func TestQuickKeyAtRankSymmetry(t *testing.T) {
	// KeyAtRankDescending on a store must match KeyAtRank on the store
	// with negated indexes.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fwd := NewDenseStore()
		rev := NewDenseStore()
		for i := 0; i < 200; i++ {
			idx := rng.Intn(100) - 50
			c := float64(1 + rng.Intn(3))
			fwd.AddWithCount(idx, c)
			rev.AddWithCount(-idx, c)
		}
		rank := rng.Float64() * fwd.TotalCount()
		a, err1 := fwd.KeyAtRankDescending(rank)
		b, err2 := rev.KeyAtRank(rank)
		return err1 == nil && err2 == nil && a == -b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDecodeBinsRejectsHostileInput locks in the decode-time validation
// that keeps corrupted payloads from forcing huge dense allocations.
func TestDecodeBinsRejectsHostileInput(t *testing.T) {
	encode := func(build func(w *encoding.Writer)) *encoding.Reader {
		w := encoding.NewWriter(64)
		w.Byte(typeDense)
		build(w)
		return encoding.NewReader(w.Bytes())
	}
	cases := map[string]func(w *encoding.Writer){
		"bin count exceeds input": func(w *encoding.Writer) {
			w.Uvarint(1 << 40)
		},
		"index span too wide": func(w *encoding.Writer) {
			w.Uvarint(2)
			w.Varint(0)
			w.Varfloat64(1)
			w.Varint(maxDecodedIndexSpan + 1)
			w.Varfloat64(1)
		},
		"index magnitude too large": func(w *encoding.Writer) {
			w.Uvarint(1)
			w.Varint(maxDecodedIndexMagnitude + 1)
			w.Varfloat64(1)
		},
		"negative count": func(w *encoding.Writer) {
			w.Uvarint(1)
			w.Varint(3)
			w.Varfloat64(-1)
		},
		"NaN count": func(w *encoding.Writer) {
			w.Uvarint(1)
			w.Varint(3)
			w.Varfloat64(math.NaN())
		},
	}
	for name, build := range cases {
		if _, err := Decode(encode(build)); !errors.Is(err, ErrInvalidBins) {
			t.Errorf("%s: got %v, want ErrInvalidBins", name, err)
		}
	}
}

// TestAbsorbedCountKeepsBuckets: a count large enough to absorb the
// running total (2^53 times it or more) widens the tracked range like
// any other add, instead of resetting it and stranding the buckets
// already held outside it.
func TestAbsorbedCountKeepsBuckets(t *testing.T) {
	for _, c := range allStores {
		s := c.new()
		s.AddWithCount(5, 1e-300)
		s.AddWithCount(10, 1)
		if got := s.NumBins(); got != 2 {
			t.Errorf("%s: %d buckets, want 2", c.name, got)
		}
		if got, err := s.MinIndex(); err != nil || got != 5 {
			t.Errorf("%s: MinIndex = %d, %v; want 5", c.name, got, err)
		}
	}
}

// TestDecodeIntoReusesStore: decoding into a store of the encoded type
// and bin limit reuses it, and its array when long enough, with the
// same contents a fresh Decode gives; any other store is replaced.
func TestDecodeIntoReusesStore(t *testing.T) {
	encode := func(s Store, lo, hi int) []byte {
		for i := lo; i <= hi; i++ {
			s.AddWithCount(i, float64(1+i%3))
		}
		w := encoding.NewWriter(0)
		s.Encode(w)
		return w.Bytes()
	}
	wide := encode(NewCollapsingLowestDenseStore(64), -20, 40)
	narrow := encode(NewCollapsingLowestDenseStore(64), 100, 110)
	dst := NewCollapsingLowestDenseStore(64)
	if _, err := decodeInto(encoding.NewReader(wide), dst); err != nil {
		t.Fatal(err)
	}
	array := &dst.bins[0]
	got, err := decodeInto(encoding.NewReader(narrow), dst)
	if err != nil {
		t.Fatal(err)
	}
	if got != Store(dst) || &dst.bins[0] != array {
		t.Error("decoding a narrower payload of the same shape did not reuse the store and its array")
	}
	want, err := Decode(encoding.NewReader(narrow))
	if err != nil {
		t.Fatal(err)
	}
	m := model{}
	want.ForEach(func(index int, count float64) bool {
		m.add(index, count)
		return true
	})
	checkAgainstModel(t, "reused", got, m)

	for _, other := range []Store{NewDenseStore(), NewCollapsingLowestDenseStore(32), NewCollapsingHighestDenseStore(64)} {
		got, err := decodeInto(encoding.NewReader(narrow), other)
		if err != nil {
			t.Fatal(err)
		}
		if got == other {
			t.Errorf("decoded a 64-bin lowest-collapsing payload into the %T it was offered", other)
		}
	}
}
