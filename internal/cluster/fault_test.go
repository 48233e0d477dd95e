package cluster

import (
	"math"
	"reflect"
	"testing"

	"remac/internal/fault"
)

// faultedCluster attaches an explicit plan so tests control exactly when
// each event fires on the simulated clock.
func faultedCluster(t *testing.T, observer func(FaultCharge), events ...fault.Event) *Cluster {
	t.Helper()
	c := New(DefaultConfig())
	c.SetFaults(fault.FromEvents(events...), observer)
	return c
}

func TestStragglerStretchesCharge(t *testing.T) {
	c := faultedCluster(t, nil, fault.Event{At: 0.5, Kind: fault.Straggler})
	c.ChargeProfile(1e9, 1.0, 0.5, nil) // clock 0 -> 1.5, event fires
	s := c.Stats()
	if want := (fault.StragglerFactor - 1) * 1.5; math.Abs(s.RecoverySec-want) > 1e-12 {
		t.Fatalf("RecoverySec = %g, want %g ((factor-1) × op seconds)", s.RecoverySec, want)
	}
	if s.Retries != 0 || s.FailedWorkers != 0 {
		t.Fatalf("straggler flagged as retry/failure: %+v", s)
	}
	if s.TotalTime() != s.ComputeTime+s.TransmitTime+s.RecoverySec {
		t.Fatal("TotalTime must include recovery")
	}
}

func TestStragglersInOneChargeTakeMaxStretch(t *testing.T) {
	// Straggling tasks idle in parallel: a stage with several stragglers
	// finishes with its slowest one, so the stretches must not stack.
	c := faultedCluster(t, nil,
		fault.Event{At: 0.2, Kind: fault.Straggler},
		fault.Event{At: 0.4, Kind: fault.Straggler},
		fault.Event{At: 0.6, Kind: fault.Straggler},
	)
	c.ChargeProfile(1e9, 1.0, 0.0, nil) // all three fire in one charge
	s := c.Stats()
	if want := (fault.StragglerFactor - 1) * 1.0; math.Abs(s.RecoverySec-want) > 1e-12 {
		t.Fatalf("RecoverySec = %g, want %g (one stretch, not three)", s.RecoverySec, want)
	}
}

func TestTransmissionErrorRetriesWithBackoffAndBytes(t *testing.T) {
	c := faultedCluster(t, nil,
		fault.Event{At: 0.1, Kind: fault.TransmissionError},
		fault.Event{At: 0.2, Kind: fault.TransmissionError},
	)
	bytes := []float64{0, 1e6, 2e6, 0}
	c.ChargeProfile(0, 0.2, 0.8, bytes) // both events fire in (0, 1]
	s := c.Stats()
	if s.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", s.Retries)
	}
	// Backoff 1s then 2s, plus one failed task's share (1/W) of the 0.8s
	// transmission each — stages retry tasks, not themselves.
	w := float64(c.Config().Workers())
	if want := (1 + 0.8/w) + (2 + 0.8/w); math.Abs(s.RecoverySec-want) > 1e-12 {
		t.Fatalf("RecoverySec = %g, want %g", s.RecoverySec, want)
	}
	// Each retry retransmits one task's share of the bytes on top of the
	// original charge.
	if got, want := s.BytesFor(Broadcast), 1e6*(1+2/w); math.Abs(got-want) > 1e-6 {
		t.Fatalf("broadcast bytes = %g, want %g (original + 2 task retries)", got, want)
	}
	if got, want := s.BytesFor(Shuffle), 2e6*(1+2/w); math.Abs(got-want) > 1e-6 {
		t.Fatalf("shuffle bytes = %g, want %g", got, want)
	}
}

func TestTransmissionErrorOnComputeOnlyOpRetriesCompute(t *testing.T) {
	c := faultedCluster(t, nil, fault.Event{At: 1e-6, Kind: fault.TransmissionError})
	c.ChargeCompute(1e12, false) // no transmission: the task re-runs
	s := c.Stats()
	if s.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", s.Retries)
	}
	if want := 1 + s.ComputeTime/float64(c.Config().Workers()); math.Abs(s.RecoverySec-want) > 1e-9 {
		t.Fatalf("RecoverySec = %g, want backoff + one task's compute (%g)", s.RecoverySec, want)
	}
	if s.TotalBytes() != 0 {
		t.Fatal("compute-only retry must not invent bytes")
	}
}

func TestWorkerFailureCountedAndObserved(t *testing.T) {
	var seen []FaultCharge
	c := faultedCluster(t, func(fc FaultCharge) { seen = append(seen, fc) },
		fault.Event{At: 0.01, Kind: fault.WorkerFailure, Worker: 4})
	c.ChargeCompute(1e12, false)
	s := c.Stats()
	if s.FailedWorkers != 1 {
		t.Fatalf("FailedWorkers = %d, want 1", s.FailedWorkers)
	}
	if s.RecoverySec != 0 {
		t.Fatal("a failure alone charges nothing; recovery is lazy")
	}
	if len(seen) != 1 || seen[0].Event.Kind != fault.WorkerFailure || seen[0].Event.Worker != 4 {
		t.Fatalf("observer saw %+v", seen)
	}
}

func TestChargeRecoveryAccounting(t *testing.T) {
	c := New(DefaultConfig())
	c.ChargeRecovery(5e9, 2.5, [4]float64{0, 0, 0, 1e6})
	s := c.Stats()
	if s.RecomputeFLOP != 5e9 || s.RecoverySec != 2.5 || s.BytesFor(DFS) != 1e6 {
		t.Fatalf("recovery accounting wrong: %+v", s)
	}
	if s.FLOP != 0 || s.Ops != 0 {
		t.Fatal("recovery must not count as a charged operator")
	}
}

func TestFaultsDisabledIsZeroOverhead(t *testing.T) {
	run := func(c *Cluster) Stats {
		c.ChargeProfile(1e9, 1, 0.5, []float64{1, 2, 3, 4})
		c.ChargeCompute(2e9, true)
		c.ChargeTransmit(Collect, 1e6)
		return c.Stats()
	}
	plain := run(New(DefaultConfig()))
	detached := New(DefaultConfig())
	detached.SetFaults(nil, nil)
	got := run(detached)
	if !reflect.DeepEqual(plain, got) {
		t.Fatalf("nil plan changed stats:\n%+v\n%+v", plain, got)
	}
	if plain.Retries != 0 || plain.RecoverySec != 0 || plain.RecomputeFLOP != 0 || plain.FailedWorkers != 0 {
		t.Fatalf("fault fields nonzero without faults: %+v", plain)
	}
}

func TestFaultSequenceDeterministic(t *testing.T) {
	plan := func() *fault.Plan {
		return fault.NewPlan(fault.Config{
			Seed:                  9,
			WorkerFailuresPerHour: 400,
			TransmitErrorsPerHour: 800,
			StragglersPerHour:     400,
			Workers:               6,
		})
	}
	run := func() Stats {
		c := New(DefaultConfig())
		c.SetFaults(plan(), nil)
		for i := 0; i < 200; i++ {
			c.ChargeProfile(1e9, 0.6, 0.4, []float64{0, 1e6, 1e6, 0})
		}
		return c.Stats()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	if a.Retries == 0 || a.FailedWorkers == 0 || a.RecoverySec == 0 {
		t.Fatalf("rates this high must fire every kind: %+v", a)
	}
}
