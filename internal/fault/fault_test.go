package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestNewPlanDisabledWhenNoRates(t *testing.T) {
	if p := NewPlan(Config{Seed: 3}); p != nil {
		t.Fatal("zero-rate plan must be nil")
	}
	var p *Plan
	if p.Enabled() {
		t.Fatal("nil plan reports enabled")
	}
	if p.NewInjector() != nil {
		t.Fatal("nil plan must yield nil injector")
	}
	if got := p.NewInjector().Advance(0, 1e9); got != nil {
		t.Fatalf("nil injector fired %v", got)
	}
}

func TestRateStreamsDeterministic(t *testing.T) {
	cfg := Config{
		Seed:                  42,
		WorkerFailuresPerHour: 60,
		TransmitErrorsPerHour: 120,
		StragglersPerHour:     30,
		Workers:               6,
	}
	replay := func() []Event {
		inj := NewPlan(cfg).NewInjector()
		var all []Event
		// Advance in irregular windows; the schedule must not depend on how
		// the clock is sliced.
		for _, to := range []float64{13, 13.5, 400, 401, 3600, 7200} {
			all = append(all, inj.Advance(last(all), to)...)
		}
		return all
	}
	a, b := replay(), replay()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a) == 0 {
		t.Fatal("no events over two simulated hours at these rates")
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("events out of order: %v after %v", a[i], a[i-1])
		}
	}
	// A different seed must produce a different schedule.
	cfg2 := cfg
	cfg2.Seed = 43
	inj := NewPlan(cfg2).NewInjector()
	if c := inj.Advance(0, 7200); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func last(evs []Event) float64 {
	if len(evs) == 0 {
		return 0
	}
	return evs[len(evs)-1].At
}

func TestRatesApproximatePoissonIntensity(t *testing.T) {
	cfg := Config{Seed: 7, WorkerFailuresPerHour: 120, Workers: 6}
	inj := NewPlan(cfg).NewInjector()
	const hours = 50.0
	evs := inj.Advance(0, hours*3600)
	got := float64(len(evs)) / hours
	if math.Abs(got-120)/120 > 0.2 {
		t.Fatalf("observed rate %.1f/h, want ~120/h", got)
	}
	for _, ev := range evs {
		if ev.Kind != WorkerFailure {
			t.Fatalf("unexpected kind %v", ev.Kind)
		}
		if ev.Worker < 0 || ev.Worker >= 6 {
			t.Fatalf("worker index %d out of range", ev.Worker)
		}
	}
}

func TestExplicitEventsReplayInOrder(t *testing.T) {
	p := FromEvents(
		Event{At: 30, Kind: Straggler},
		Event{At: 10, Kind: WorkerFailure, Worker: 2},
		Event{At: 20, Kind: TransmissionError},
	)
	inj := p.NewInjector()
	if evs := inj.Advance(0, 5); len(evs) != 0 {
		t.Fatalf("premature events %v", evs)
	}
	evs := inj.Advance(5, 25)
	if len(evs) != 2 || evs[0].Kind != WorkerFailure || evs[1].Kind != TransmissionError {
		t.Fatalf("window (5,25] = %v", evs)
	}
	evs = inj.Advance(25, 1000)
	if len(evs) != 1 || evs[0].Kind != Straggler {
		t.Fatalf("window (25,1000] = %v", evs)
	}
	if evs[0].Factor != DefaultStragglerFactor {
		t.Fatalf("straggler factor defaulted to %g", evs[0].Factor)
	}
	if evs := inj.Advance(1000, 1e12); len(evs) != 0 {
		t.Fatalf("exhausted plan fired %v", evs)
	}
}

func TestFromEventsEmpty(t *testing.T) {
	if FromEvents() != nil {
		t.Fatal("empty event list must yield nil plan")
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		WorkerFailure:     "worker-failure",
		TransmissionError: "transmission-error",
		Straggler:         "straggler",
		Corruption:        "corruption",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

// TestKindStringExhaustive catches a Kind added without a String case: every
// kind below numKinds must have a real name, not the Kind(%d) fallback.
func TestKindStringExhaustive(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < numKinds; k++ {
		s := k.String()
		if strings.HasPrefix(s, "Kind(") {
			t.Errorf("Kind(%d) has no String case", int(k))
		}
		if seen[s] {
			t.Errorf("Kind(%d) reuses the name %q", int(k), s)
		}
		seen[s] = true
	}
	if s := numKinds.String(); !strings.HasPrefix(s, "Kind(") {
		t.Errorf("numKinds.String() = %q, want the Kind(%%d) fallback", s)
	}
}

func TestBackoffBaseDefaults(t *testing.T) {
	var p *Plan
	if p.BackoffBase() != DefaultBackoffBaseSec {
		t.Fatal("nil plan backoff default wrong")
	}
	q := NewPlan(Config{StragglersPerHour: 1, BackoffBaseSec: 2.5})
	if q.BackoffBase() != 2.5 {
		t.Fatal("configured backoff not honored")
	}
}

// TestDeriveSubStreams: derived plans are deterministic per index,
// decorrelated across indices, and independent of replay interleaving.
func TestDeriveSubStreams(t *testing.T) {
	root := NewPlan(Config{
		Seed:                  41,
		WorkerFailuresPerHour: 60,
		TransmitErrorsPerHour: 60,
		StragglersPerHour:     60,
		Workers:               4,
	})
	schedule := func(p *Plan) []Event {
		return p.NewInjector().Advance(0, 7200)
	}
	// Same index twice → identical schedule.
	if !reflect.DeepEqual(schedule(root.Derive(3)), schedule(root.Derive(3))) {
		t.Fatal("Derive(3) not deterministic")
	}
	// Distinct indices → distinct schedules (decorrelated sub-streams).
	a, b := schedule(root.Derive(0)), schedule(root.Derive(1))
	if reflect.DeepEqual(a, b) {
		t.Fatal("Derive(0) and Derive(1) produced identical schedules")
	}
	// Index 0 is not the root stream: queries never share the root's draws.
	if reflect.DeepEqual(schedule(root), a) {
		t.Fatal("Derive(0) aliases the root stream")
	}
	// Derivation order must not matter — only (seed, index) does.
	before := schedule(root.Derive(5))
	for i := 0; i < 100; i++ {
		root.Derive(i)
	}
	if !reflect.DeepEqual(before, schedule(root.Derive(5))) {
		t.Fatal("Derive(5) changed after unrelated derivations")
	}
}

// TestDeriveSeedSpread: nearby (seed, index) pairs land far apart, so
// sequential query indices don't produce correlated fault streams.
func TestDeriveSeedSpread(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 4; seed++ {
		for idx := 0; idx < 256; idx++ {
			s := DeriveSeed(seed, idx)
			if seen[s] {
				t.Fatalf("collision at seed=%d idx=%d", seed, idx)
			}
			seen[s] = true
		}
	}
}

// TestDeriveEdgeCases: nil plans and explicit-event plans pass through
// Derive unchanged.
func TestDeriveEdgeCases(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Derive(2) != nil {
		t.Fatal("nil plan derived into something")
	}
	explicit := FromEvents(Event{At: 5, Kind: Straggler})
	if explicit.Derive(2) != explicit {
		t.Fatal("explicit-event plan was rebuilt by Derive")
	}
	cfg := Config{Seed: 1, WorkerFailuresPerHour: 10}
	if NewPlan(cfg).Derive(0).cfg.Seed != DeriveSeed(1, 0) {
		t.Fatal("derived plan seed mismatch")
	}
}

// TestDeriveSeedGolden pins DeriveSeed to the values it produced before the
// SplitMix64 finalizer was factored into Mix64: chaos storms and the bench
// experiments replay fault schedules by (root seed, index), so these may never
// move.
func TestDeriveSeedGolden(t *testing.T) {
	golden := map[int64][4]int64{
		0:      {-2152535657050944081, 7960286522194355700, 487617019471545679, -537132696929009172},
		1:      {-1956407806741107680, -4689498862643123097, 4048727598324417001, 8196980753821780235},
		42:     {-4767286540954276203, -2782210818173456976, 6904877152625194467, 6349198060258255764},
		-1:     {-2447048559937167164, 8325766680316962815, -8128008591241961604, 1434153915198355961},
		0x5EED: {5659161736914266567, -4547667521966811813, -5984759452399572122, -1931971688484312844},
	}
	for seed, want := range golden {
		for idx, w := range want {
			if got := DeriveSeed(seed, idx); got != w {
				t.Errorf("DeriveSeed(%d, %d) = %d, want %d", seed, idx, got, w)
			}
		}
	}
	// The keyed form reduces to the finalizer at the origin.
	if Mix64Key(7, 0, 0) != Mix64(7) {
		t.Error("Mix64Key(seed, 0, 0) != Mix64(seed)")
	}
}
