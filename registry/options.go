package registry

import (
	"errors"
	"fmt"
	"time"

	"github.com/ddsketch-go/ddsketch"
)

// ErrInvalidOption is returned by New when options are invalid.
var ErrInvalidOption = errors.New("registry: invalid option")

// Defaults. The admission threshold of 1 admits a series on its first
// unit-weight value — gating is effectively off until raised — and the
// default sketch template is the paper's recommended production
// configuration (α = 1%, 2048 bins per store).
const (
	DefaultMaxSketches        = 4096
	DefaultSegments           = 16
	DefaultAdmissionThreshold = 1
	DefaultAdmissionDepth     = 4
	DefaultAdmissionWidth     = 1024
)

// config accumulates the choices made by Options before New resolves
// them.
type config struct {
	maxSketches int
	segments    int
	threshold   float64
	cmDepth     int
	cmWidth     int
	decayEvery  int
	keyWindows  int
	keyInterval time.Duration
	clock       func() time.Time
	template    []ddsketch.Option
}

func defaultRegistryConfig() config {
	return config{
		maxSketches: DefaultMaxSketches,
		segments:    DefaultSegments,
		threshold:   DefaultAdmissionThreshold,
		cmDepth:     DefaultAdmissionDepth,
		cmWidth:     DefaultAdmissionWidth,
		template: []ddsketch.Option{
			ddsketch.WithRelativeAccuracy(ddsketch.DefaultRelativeAccuracy),
			ddsketch.WithMaxBins(2048),
		},
	}
}

// Option configures New.
type Option func(*config) error

// WithMaxSketches bounds the number of live per-key sketches. Past the
// budget, each admission evicts the owning segment's least-recently-
// written series by merging it into the overflow sketch — granularity
// is lost, global quantiles are not. The registry's worst-case memory
// is roughly maxSketches × (per-sketch bound from the template) plus
// the overflow and admission sketches, so pair a tight budget with
// WithMaxBins or WithUniformCollapse in the template.
func WithMaxSketches(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("%w: max sketches must be at least 1, got %d", ErrInvalidOption, n)
		}
		c.maxSketches = n
		return nil
	}
}

// WithSegments sets the number of lock-striped segments (rounded up to
// a power of two). More segments mean less write contention and more
// fixed overhead (one overflow ring and one admission sketch each).
func WithSegments(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("%w: segment count must be at least 1, got %d", ErrInvalidOption, n)
		}
		p := 1
		for p < n {
			p <<= 1
		}
		c.segments = p
		return nil
	}
}

// WithAdmissionThreshold sets the estimated weight a series must
// accumulate before it is promoted to its own sketch; until then its
// values aggregate in the overflow sketch (no data is dropped). The
// estimate comes from a count-min sketch, which only over-estimates:
// a collision can admit a cold key early, never starve a hot one.
// A threshold ≤ 1 with unit weights admits on the first value; ≤ 0
// disables the admission machinery entirely.
func WithAdmissionThreshold(weight float64) Option {
	return func(c *config) error {
		c.threshold = weight
		return nil
	}
}

// WithAdmissionSketch sets the count-min dimensions per segment: depth
// hash rows of width counters (width rounded up to a power of two).
// Memory is fixed at segments × depth × width × 8 bytes regardless of
// cardinality; wider is more accurate under heavy cardinality.
func WithAdmissionSketch(depth, width int) Option {
	return func(c *config) error {
		if depth < 1 || width < 1 {
			return fmt.Errorf("%w: admission sketch needs depth ≥ 1 and width ≥ 1, got %d×%d", ErrInvalidOption, depth, width)
		}
		c.cmDepth = depth
		c.cmWidth = width
		return nil
	}
}

// WithAdmissionDecay turns the accumulated-weight admission estimate
// into a rate estimate by periodically halving every admission counter:
// a series must keep arriving to clear the threshold, and one that goes
// quiet ages out of admission range. What drives the halvings depends
// on the registry's time-awareness:
//
//   - On a windowed registry (WithKeyWindow), decay rides the rotation
//     tick: counters halve once per `every` elapsed intervals, so the
//     estimate approximates weight-per-(every × interval) wall-clock
//     rate and a formerly-hot key stops being admitted after enough
//     idle rotations.
//   - On an unwindowed registry, counters halve after each `every`
//     pre-admission observations per segment — an arrival-count proxy
//     for time.
//
// 0 (the default) disables decay — the threshold then gates on total
// accumulated weight.
func WithAdmissionDecay(every int) Option {
	return func(c *config) error {
		if every < 0 {
			return fmt.Errorf("%w: admission decay interval must be ≥ 0, got %d", ErrInvalidOption, every)
		}
		c.decayEvery = every
		return nil
	}
}

// WithSketchOptions sets the shared template every per-key sketch (and
// each segment's overflow sketch) is copied from — any combination
// ddsketch.NewSketch accepts that builds a plain sketch: accuracy,
// mapping, bin bounds, uniform collapse. All sketches sharing the
// template share a mapping lineage, which is what keeps eviction merges
// and roll-ups exact. Per-key sketches are only ever touched under
// their segment's lock and the registry provides its own windowing, so
// New rejects templates carrying WithMutex, WithSharding, or WithWindow
// (the validation happens at New, not on first Add).
func WithSketchOptions(opts ...ddsketch.Option) Option {
	return func(c *config) error {
		c.template = opts
		return nil
	}
}

// WithKeyWindow makes every per-key series time-windowed: a ring of
// `windows` sketches, one per `interval` of wall-clock time, all series
// sharing one registry-level clock and rotation grid anchored when New
// returns. Reads (Get, RollUp, RollUpSummary) then accept a trailing-
// window parameter — "the last k intervals" means the same wall-clock
// span for every series — and the rotation tick also drives admission
// decay (see WithAdmissionDecay) and ages idle series out entirely
// (see SketchMap.Rotate). Rotation is lazy and O(1) per series touch:
// no background goroutine is started. Rotate itself costs O(segments +
// expired series): writes keep each segment's write-recency list
// ordered by the generation last written, so the idle series are the
// ones at its back.
//
// clock overrides the time source (nil means time.Now); inject a fake
// clock in tests to control rotation deterministically.
//
// The default (no WithKeyWindow) keeps per-key series unwindowed —
// each holds its whole history and window parameters are ignored.
func WithKeyWindow(windows int, interval time.Duration, clock func() time.Time) Option {
	return func(c *config) error {
		if windows < 1 {
			return fmt.Errorf("%w: key window count must be at least 1, got %d", ErrInvalidOption, windows)
		}
		if interval <= 0 {
			return fmt.Errorf("%w: key window interval must be positive, got %v", ErrInvalidOption, interval)
		}
		c.keyWindows = windows
		c.keyInterval = interval
		c.clock = clock
		return nil
	}
}
