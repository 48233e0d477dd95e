package distmat

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"remac/internal/cluster"
	"remac/internal/fault"
	"remac/internal/matrix"
)

// faultCtx builds a traced context with an explicit fault plan so tests
// control exactly when each event fires on the simulated clock.
func faultCtx(events ...fault.Event) *Context {
	c := tracedCtx()
	c.EnableFaults(fault.FromEvents(events...))
	return c
}

func workers(c *Context) float64 { return float64(c.Cluster.Config().Workers()) }

// TestLineageRepairChargesProducerFraction: losing one worker's slice of a
// derived value charges the lost fraction of the producing operator's cost,
// not a full recompute, and only when the value is next used.
func TestLineageRepairChargesProducerFraction(t *testing.T) {
	c := faultCtx(fault.Event{At: 1e18, Kind: fault.WorkerFailure}) // never fires by clock
	rng := rand.New(rand.NewSource(30))
	a := scaledDataset(c, rng)
	b := a.Scale(2).Retain() // the producer whose cost lineage repair re-runs
	prod := b.prod
	if prod.Total() == 0 {
		t.Fatal("test needs a nonzero producer cost")
	}

	// Inject the failure directly through the observer path (epoch bump)
	// rather than waiting out the simulated clock.
	c.onFault(cluster.FaultCharge{Event: fault.Event{Kind: fault.WorkerFailure}})
	before := c.Cluster.Stats()
	if before.RecomputeFLOP != 0 || before.RecoverySec != 0 {
		t.Fatal("recovery must be lazy: nothing charged until the value is used")
	}

	b.Sum() // first use after the failure triggers repair
	s := c.Cluster.Stats()
	lost := 1 / workers(c)
	if want := prod.FLOP * lost; math.Abs(s.RecomputeFLOP-want) > 1e-6*want {
		t.Fatalf("RecomputeFLOP = %g, want %g (producer FLOP × lost fraction)", s.RecomputeFLOP, want)
	}
	if want := prod.Total() * lost; math.Abs(s.RecoverySec-want) > 1e-9 {
		t.Fatalf("RecoverySec = %g, want %g", s.RecoverySec, want)
	}

	// A second use must not repair again.
	b.Sum()
	if after := c.Cluster.Stats(); after.RecomputeFLOP != s.RecomputeFLOP {
		t.Fatal("repair ran twice for one failure")
	}
}

// TestMultipleFailuresCompoundLostFraction: k failures lose 1-(1-1/W)^k of
// the partitions, not k/W.
func TestMultipleFailuresCompoundLostFraction(t *testing.T) {
	c := faultCtx(fault.Event{At: 1e18, Kind: fault.WorkerFailure})
	rng := rand.New(rand.NewSource(31))
	a := scaledDataset(c, rng)
	b := a.Scale(2)
	for i := 0; i < 3; i++ {
		c.onFault(cluster.FaultCharge{Event: fault.Event{Kind: fault.WorkerFailure}})
	}
	b.Sum()
	w := workers(c)
	lost := 1 - math.Pow(1-1/w, 3)
	s := c.Cluster.Stats()
	if want := b.prod.FLOP * lost; math.Abs(s.RecomputeFLOP-want) > 1e-6*want {
		t.Fatalf("RecomputeFLOP = %g, want %g for 3 compounded failures", s.RecomputeFLOP, want)
	}
}

// TestInputRepairsAtDFSReadCost: inputs have no lineage and recover by
// re-reading the fault-tolerant store.
func TestInputRepairsAtDFSReadCost(t *testing.T) {
	c := faultCtx(fault.Event{At: 1e18, Kind: fault.WorkerFailure})
	rng := rand.New(rand.NewSource(32))
	a := scaledDataset(c, rng)
	c.onFault(cluster.FaultCharge{Event: fault.Event{Kind: fault.WorkerFailure}})
	a.Sum()
	bd := c.Model.DFSRead(a.Meta())
	lost := 1 / workers(c)
	s := c.Cluster.Stats()
	if want := bd.Total() * lost; math.Abs(s.RecoverySec-want) > 1e-9 {
		t.Fatalf("input RecoverySec = %g, want DFS re-read fraction %g", s.RecoverySec, want)
	}
	found := false
	for _, sp := range c.Recorder.Spans() {
		if sp.Label == "recovery/dfs-read" {
			found = true
		}
	}
	if !found {
		t.Fatal("input repair must record a recovery/dfs-read span")
	}
}

// TestDFSReadRepairSpanAndBytes pins down the recovery/dfs-read fallback:
// the repair records exactly one span with that label, the span's DFS
// bytes equal the lost fraction of the re-read (mirrored in the cluster
// stats), and the materialized sample is left bitwise untouched — the
// re-read restores the same partitions, so the value must not change.
func TestDFSReadRepairSpanAndBytes(t *testing.T) {
	c := faultCtx(fault.Event{At: 1e18, Kind: fault.WorkerFailure})
	rng := rand.New(rand.NewSource(37))
	a := scaledDataset(c, rng)
	want := a.Data() // inputs have no lineage: repair must re-read, not rebuild
	before := c.Cluster.Stats()

	c.onFault(cluster.FaultCharge{Event: fault.Event{Kind: fault.WorkerFailure}})
	a.Sum()

	bd := c.Model.DFSRead(a.Meta())
	lost := 1 / workers(c)
	var spans int
	var spanDFS float64
	for _, sp := range c.Recorder.Spans() {
		if sp.Label != "recovery/dfs-read" {
			continue
		}
		spans++
		spanDFS = sp.Bytes["dfs"]
	}
	if spans != 1 {
		t.Fatalf("found %d recovery/dfs-read spans, want 1", spans)
	}
	if wantBytes := bd.Bytes[cluster.DFS] * lost; math.Abs(spanDFS-wantBytes) > 1e-6*(1+wantBytes) {
		t.Fatalf("span DFS bytes = %g, want lost re-read fraction %g", spanDFS, wantBytes)
	}
	s := c.Cluster.Stats()
	if got := s.BytesFor(cluster.DFS) - before.BytesFor(cluster.DFS); math.Abs(got-spanDFS) > 1e-6*(1+spanDFS) {
		t.Fatalf("stats charged %g DFS bytes, span carries %g", got, spanDFS)
	}
	if a.Data() != want {
		t.Fatal("dfs-read repair must leave the sample bitwise identical (same matrix)")
	}
}

// TestCheckpointSwitchesRecoveryToDFSRead: a checkpointed intermediate pays
// one DFS write and thereafter recovers at read cost instead of recompute.
func TestCheckpointSwitchesRecoveryToDFSRead(t *testing.T) {
	c := faultCtx(fault.Event{At: 1e18, Kind: fault.WorkerFailure})
	rng := rand.New(rand.NewSource(33))
	a := scaledDataset(c, rng)
	b := a.Scale(2)
	before := c.Cluster.Stats()
	b.Checkpoint()
	if !b.Checkpointed() {
		t.Fatal("Checkpoint did not mark the value")
	}
	wrote := c.Cluster.Stats()
	wbd := c.Model.DFSWrite(b.Meta())
	if got := wrote.BytesFor(cluster.DFS) - before.BytesFor(cluster.DFS); math.Abs(got-wbd.Bytes[cluster.DFS]) > 1e-6 {
		t.Fatalf("checkpoint DFS bytes = %g, want %g", got, wbd.Bytes[cluster.DFS])
	}
	b.Checkpoint() // idempotent
	if again := c.Cluster.Stats(); !reflect.DeepEqual(again, wrote) {
		t.Fatal("double Checkpoint charged twice")
	}

	c.onFault(cluster.FaultCharge{Event: fault.Event{Kind: fault.WorkerFailure}})
	b.Sum()
	rbd := c.Model.DFSRead(b.Meta())
	lost := 1 / workers(c)
	s := c.Cluster.Stats()
	if want := rbd.Total() * lost; math.Abs(s.RecoverySec-want) > 1e-9 {
		t.Fatalf("checkpointed RecoverySec = %g, want DFS read fraction %g", s.RecoverySec, want)
	}
	if want := rbd.FLOP * lost; math.Abs(s.RecomputeFLOP-want) > 1e-9 {
		t.Fatalf("checkpointed recovery recomputed %g FLOP, want %g", s.RecomputeFLOP, want)
	}
	found := false
	for _, sp := range c.Recorder.Spans() {
		if sp.Label == "recovery/checkpoint" {
			found = true
		}
	}
	if !found {
		t.Fatal("checkpointed repair must record a recovery/checkpoint span")
	}
}

// TestLocalValuesNeverRepair: driver-memory values survive worker failures.
func TestLocalValuesNeverRepair(t *testing.T) {
	c := faultCtx(fault.Event{At: 1e18, Kind: fault.WorkerFailure})
	rng := rand.New(rand.NewSource(34))
	small := New(c, matrix.RandDense(rng, 10, 10), 0, 0)
	c.onFault(cluster.FaultCharge{Event: fault.Event{Kind: fault.WorkerFailure}})
	small.Sum()
	if s := c.Cluster.Stats(); s.RecoverySec != 0 || s.RecomputeFLOP != 0 {
		t.Fatalf("local value repaired: %+v", s)
	}
}

// TestStatsEqualsSpansUnderFaults extends the stats-equals-spans invariant
// to faulty runs: summed span recovery seconds, recompute FLOP and bytes
// must equal the cluster's fault accounting.
func TestStatsEqualsSpansUnderFaults(t *testing.T) {
	c := tracedCtx()
	c.EnableFaults(fault.NewPlan(fault.Config{
		Seed:                  7,
		WorkerFailuresPerHour: 600,
		TransmitErrorsPerHour: 1200,
		StragglersPerHour:     600,
		Workers:               c.Cluster.Config().Workers(),
	}))
	rng := rand.New(rand.NewSource(35))
	a := scaledDataset(c, rng)
	b := a.Scale(2).Retain()
	for i := 0; i < 20; i++ {
		b = b.Add(a).Retain()
		b.Sum()
	}

	s := c.Cluster.Stats()
	if s.FailedWorkers == 0 || s.Retries == 0 {
		t.Fatalf("rates this high must fire failures and retries: %+v", s)
	}
	sum := c.Recorder.Summary()
	if math.Abs(sum.RecoverySec-s.RecoverySec) > 1e-9*(1+s.RecoverySec) {
		t.Errorf("span RecoverySec %g != stats %g", sum.RecoverySec, s.RecoverySec)
	}
	if math.Abs(sum.RecomputeFLOP-s.RecomputeFLOP) > 1e-6 {
		t.Errorf("span RecomputeFLOP %g != stats %g", sum.RecomputeFLOP, s.RecomputeFLOP)
	}
	var spanBytes float64
	for _, sp := range c.Recorder.Spans() {
		for _, v := range sp.Bytes {
			spanBytes += v
		}
	}
	if math.Abs(spanBytes-s.TotalBytes()) > 1e-6*(1+s.TotalBytes()) {
		t.Errorf("span bytes %g != stats bytes %g (retransmissions must be mirrored)", spanBytes, s.TotalBytes())
	}
	// Every injected event shows up as a fault span (recovery spans come on
	// top), so the span count bounds the stats counters from above.
	if sum.Faults < s.Retries+s.FailedWorkers {
		t.Errorf("span fault count %d < stats retries %d + failures %d",
			sum.Faults, s.Retries, s.FailedWorkers)
	}
}

// TestFaultFreeContextUnchanged: wiring the fault layer must not perturb a
// fault-free run's stats (the zero-overhead regression guard at the distmat
// layer).
func TestFaultFreeContextUnchanged(t *testing.T) {
	run := func(c *Context) cluster.Stats {
		rng := rand.New(rand.NewSource(36))
		a := scaledDataset(c, rng)
		b := a.Scale(3).Add(a)
		b.Sum()
		return c.Cluster.Stats()
	}
	plain := run(ctx())
	wired := tracedCtx()
	wired.EnableFaults(nil)
	got := run(wired)
	if !reflect.DeepEqual(plain, got) {
		t.Fatalf("nil plan changed stats:\n%+v\n%+v", plain, got)
	}
}
