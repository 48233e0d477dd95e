// Package fault implements the deterministic fault model of the simulated
// cluster: worker failures, transient transmission errors and straggler
// slowdowns scheduled against the simulated clock.
//
// A Plan describes *when* faults occur — either as seeded Poisson streams
// (one per fault kind, with exponential inter-arrival times) or as an
// explicit event list. An Injector replays a plan against an advancing
// clock: the cluster advances it across every charge's time window and
// receives the events that fired inside it. Everything is derived from the
// plan's seed, so two runs of the same program with the same plan observe
// the same fault sequence, charge the same recovery costs, and produce
// byte-identical Stats — the determinism guarantee DESIGN.md documents.
//
// The plan only schedules faults; their *consequences* are accounted
// elsewhere: internal/cluster charges retries, backoff and retransmission,
// and internal/distmat charges lineage recomputation (or checkpoint
// re-reads) for blocks lost to worker failures. Kernels always execute
// exactly once for real, so the fail-stop kinds never change numerical
// results. The one exception is Corruption: a flipped payload bit that
// escapes the run's verification mode (see internal/integrity) really does
// mutate the affected value, so undetected corruptions — and only those —
// surface as silently wrong answers.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Kind enumerates the fault kinds the model schedules.
type Kind int

const (
	// WorkerFailure loses one worker and the partitions it held; lost
	// blocks are lazily recomputed from lineage (or re-read from a
	// checkpoint) when next used.
	WorkerFailure Kind = iota
	// TransmissionError is a transient network fault during an operator's
	// transmission; the task retries after an exponential backoff and
	// re-transmits its data.
	TransmissionError
	// Straggler slows the operator executing when it fires: the stage waits
	// on its slowest task, so the operator's time stretches by the
	// straggler factor.
	Straggler
	// Corruption silently flips a bit in a block payload of the operator
	// executing when it fires — in flight on the wire or at rest under a
	// DFS read. Unlike the fail-stop kinds it carries no intrinsic cost:
	// whether it is caught (and repaired from lineage) or propagates into
	// results depends entirely on the verification mode the run enabled.
	Corruption
	numKinds
)

// String names the fault kind as it appears in trace span labels.
func (k Kind) String() string {
	switch k {
	case WorkerFailure:
		return "worker-failure"
	case TransmissionError:
		return "transmission-error"
	case Straggler:
		return "straggler"
	case Corruption:
		return "corruption"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one scheduled fault on the simulated timeline.
type Event struct {
	// At is the simulated clock second the fault fires.
	At float64
	// Kind selects the fault.
	Kind Kind
	// Worker is the failing worker's index (WorkerFailure only).
	Worker int
	// Factor is the slowdown multiplier (Straggler only): strictly greater
	// than 1, or 0 to select DefaultStragglerFactor. Values in (0,1] and
	// negatives are rejected by the constructors.
	Factor float64
	// Bits is the corruption entropy (Corruption only): which block, which
	// landing (in flight vs. at rest) and which bit are all derived from it,
	// so the damage a schedule does is as deterministic as its timing.
	Bits uint64
}

// DefaultStragglerFactor stretches a straggled operator to 2x its time,
// the common "slowest task takes about twice the median" observation.
const DefaultStragglerFactor = 2.0

// FactorError reports a straggler factor that is set but not a slowdown.
// A factor of 0 means "unset" and defaults to DefaultStragglerFactor;
// anything else must be strictly greater than 1 — a factor in (0,1] would
// be a speedup (or a no-op), and a negative one is meaningless. Checked
// constructors return it; the plain constructors panic with it.
type FactorError struct {
	// Factor is the rejected value.
	Factor float64
}

func (e *FactorError) Error() string {
	return fmt.Sprintf("fault: straggler factor %g: must be > 1 (0 selects the default %g)",
		e.Factor, DefaultStragglerFactor)
}

// checkFactor validates a straggler factor, treating 0 as unset.
func checkFactor(f float64) error {
	if f != 0 && f <= 1 {
		return &FactorError{Factor: f}
	}
	return nil
}

// DefaultBackoffBaseSec is the first retry delay; the k-th consecutive
// retry of one operator waits base·2^(k-1) seconds.
const DefaultBackoffBaseSec = 1.0

// Config parameterizes a rate-based plan. Rates are Poisson intensities in
// events per simulated hour; a zero rate disables that fault kind.
type Config struct {
	// Seed drives every random draw of the plan. Plans with equal Seed and
	// rates schedule identical event sequences.
	Seed int64
	// WorkerFailuresPerHour schedules whole-worker losses.
	WorkerFailuresPerHour float64
	// TransmitErrorsPerHour schedules transient transmission errors.
	TransmitErrorsPerHour float64
	// StragglersPerHour schedules straggler slowdowns.
	StragglersPerHour float64
	// CorruptionsPerHour schedules silent payload bit flips.
	CorruptionsPerHour float64
	// StragglerFactor is the slowdown multiplier: strictly greater than 1,
	// or 0 to select DefaultStragglerFactor. Values in (0,1] and negatives
	// are rejected (see FactorError) rather than silently replaced.
	StragglerFactor float64
	// BackoffBaseSec is the first retry delay (default
	// DefaultBackoffBaseSec).
	BackoffBaseSec float64
	// Workers bounds the failed-worker index draw (default 1).
	Workers int
}

// Mix64 is the SplitMix64 finalizer, the one avalanche step behind every
// seeded draw in the repository: fault sub-streams (DeriveSeed), retry
// jitter (resilience.RetryPolicy.Backoff), consistent-hash ring placement
// and NetFault rolls all end in it. A stream
// position n of seed s is Mix64(s + n·0x9e3779b97f4a7c15).
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Mix64Key draws from a seed at up to two coordinates (a query id and an
// attempt, a member index): Mix64 of seed ⊕ a·γ ⊕ b·μ with two odd
// multipliers, so nearby coordinates land on unrelated draws and no global
// RNG state is consulted.
func Mix64Key(seed, a, b uint64) uint64 {
	return Mix64(seed ^ a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9)
}

// DeriveSeed maps a root seed and a query index to an independent
// sub-stream seed (Mix64Key at coordinate index+1). Concurrent runs
// sharing a root seed each draw from their own deterministic stream, so a
// chaos storm's fault schedules depend only on (root seed, query index) —
// never on goroutine scheduling order.
func DeriveSeed(seed int64, index int) int64 {
	return int64(Mix64Key(uint64(seed), uint64(index)+1, 0))
}

// Derive returns the config reseeded for the index-th member of a family
// of concurrent runs (see DeriveSeed). Rates and factors are unchanged.
func (c Config) Derive(index int) Config {
	c.Seed = DeriveSeed(c.Seed, index)
	return c
}

// Derive returns an independent per-query plan: rate-based plans are
// rebuilt on the derived seed; explicit-event plans replay the same
// authored schedule for every query (the author pinned exact times, so
// there is nothing to decorrelate). Nil-safe.
func (p *Plan) Derive(index int) *Plan {
	if p == nil || p.events != nil {
		return p
	}
	return NewPlan(p.cfg.Derive(index))
}

// Plan is an immutable fault schedule: rate streams or an explicit event
// list. A nil plan means a perfect cluster.
type Plan struct {
	cfg    Config
	events []Event // explicit schedule; nil for rate-based plans
}

// NewPlan builds a rate-based plan. It returns nil when every rate is zero,
// so callers can treat "no faults configured" and "no plan" uniformly. It
// panics on an invalid StragglerFactor (programmer error); front-ends taking
// user-supplied configurations should use NewChecked.
func NewPlan(cfg Config) *Plan {
	p, err := NewChecked(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// NewChecked is NewPlan returning the validation error instead of panicking:
// a StragglerFactor that is set (nonzero) but not > 1 yields a *FactorError.
// An unset (zero) factor still defaults to DefaultStragglerFactor.
func NewChecked(cfg Config) (*Plan, error) {
	if err := checkFactor(cfg.StragglerFactor); err != nil {
		return nil, err
	}
	if cfg.WorkerFailuresPerHour <= 0 && cfg.TransmitErrorsPerHour <= 0 &&
		cfg.StragglersPerHour <= 0 && cfg.CorruptionsPerHour <= 0 {
		return nil, nil
	}
	if cfg.StragglerFactor == 0 {
		cfg.StragglerFactor = DefaultStragglerFactor
	}
	if cfg.BackoffBaseSec <= 0 {
		cfg.BackoffBaseSec = DefaultBackoffBaseSec
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	return &Plan{cfg: cfg}, nil
}

// FromEvents builds a plan from an explicit event list (tests and targeted
// what-if runs). Events are replayed in At order; the zero Factor defaults
// to DefaultStragglerFactor. It panics on a set-but-invalid Factor
// (programmer error); use FromEventsChecked for user-supplied schedules.
func FromEvents(events ...Event) *Plan {
	p, err := FromEventsChecked(events...)
	if err != nil {
		panic(err)
	}
	return p
}

// FromEventsChecked is FromEvents returning a *FactorError instead of
// panicking when a straggler event carries a Factor that is set (nonzero)
// but not > 1.
func FromEventsChecked(events ...Event) (*Plan, error) {
	if len(events) == 0 {
		return nil, nil
	}
	evs := append([]Event(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	for i := range evs {
		if evs[i].Kind != Straggler {
			continue
		}
		if err := checkFactor(evs[i].Factor); err != nil {
			return nil, err
		}
		if evs[i].Factor == 0 {
			evs[i].Factor = DefaultStragglerFactor
		}
	}
	return &Plan{cfg: Config{BackoffBaseSec: DefaultBackoffBaseSec}, events: evs}, nil
}

// Enabled reports whether the plan schedules any faults. Nil-safe.
func (p *Plan) Enabled() bool { return p != nil }

// SchedulesCorruption reports whether the plan can fire payload-corruption
// events (rate-based or explicit). Nil-safe. The serving layer's MQO
// coordinator consults it: a query that may corrupt its own payloads only
// shares produced values when a verification mode can catch (and repair or
// fail) the damage.
func (p *Plan) SchedulesCorruption() bool {
	if p == nil {
		return false
	}
	if p.events != nil {
		for _, ev := range p.events {
			if ev.Kind == Corruption {
				return true
			}
		}
		return false
	}
	return p.cfg.CorruptionsPerHour > 0
}

// BackoffBase returns the first-retry delay in seconds. Nil-safe.
func (p *Plan) BackoffBase() float64 {
	if p == nil || p.cfg.BackoffBaseSec <= 0 {
		return DefaultBackoffBaseSec
	}
	return p.cfg.BackoffBaseSec
}

// NewInjector returns a fresh replay cursor over the plan. Nil-safe: a nil
// plan yields a nil injector, and a nil injector never fires.
func (p *Plan) NewInjector() *Injector {
	if p == nil {
		return nil
	}
	inj := &Injector{}
	if p.events != nil {
		inj.explicit = p.events
		return inj
	}
	add := func(kind Kind, perHour float64) {
		if perHour <= 0 {
			return
		}
		// Each kind owns an independent RNG stream so one kind's draw count
		// never perturbs another's schedule.
		s := &stream{
			kind: kind,
			rate: perHour / 3600,
			rng:  rand.New(rand.NewSource(p.cfg.Seed ^ int64(kind+1)*0x517CC1B727220A95)),
			cfg:  p.cfg,
		}
		s.draw(0)
		inj.streams = append(inj.streams, s)
	}
	add(WorkerFailure, p.cfg.WorkerFailuresPerHour)
	add(TransmissionError, p.cfg.TransmitErrorsPerHour)
	add(Straggler, p.cfg.StragglersPerHour)
	add(Corruption, p.cfg.CorruptionsPerHour)
	return inj
}

// stream lazily generates one kind's Poisson arrivals.
type stream struct {
	kind Kind
	rate float64 // events per simulated second
	rng  *rand.Rand
	cfg  Config
	next Event
}

// draw schedules the stream's next event strictly after t.
func (s *stream) draw(t float64) {
	gap := s.rng.ExpFloat64() / s.rate
	if gap <= 0 || math.IsInf(gap, 0) {
		gap = 1 / s.rate
	}
	ev := Event{At: t + gap, Kind: s.kind}
	switch s.kind {
	case WorkerFailure:
		ev.Worker = s.rng.Intn(s.cfg.Workers)
	case Straggler:
		ev.Factor = s.cfg.StragglerFactor
	case Corruption:
		ev.Bits = s.rng.Uint64()
	}
	s.next = ev
}

// Injector replays a plan's events against an advancing simulated clock.
// It is a single-run cursor: the cluster owns it and serializes access
// under its own lock.
type Injector struct {
	streams  []*stream
	explicit []Event
	cursor   int
}

// Advance returns the events firing in the window (from, to], in time
// order, and moves the cursor past them. Nil-safe.
func (i *Injector) Advance(from, to float64) []Event {
	if i == nil || to <= from {
		return nil
	}
	if i.explicit != nil {
		lo := i.cursor
		for i.cursor < len(i.explicit) && i.explicit[i.cursor].At <= to {
			i.cursor++
		}
		if lo == i.cursor {
			return nil
		}
		return i.explicit[lo:i.cursor:i.cursor]
	}
	var out []Event
	for {
		var best *stream
		for _, s := range i.streams {
			if s.next.At <= to && (best == nil || s.next.At < best.next.At) {
				best = s
			}
		}
		if best == nil {
			if out != nil {
				sort.SliceStable(out, func(a, b int) bool { return out[a].At < out[b].At })
			}
			return out
		}
		out = append(out, best.next)
		best.draw(best.next.At)
	}
}
