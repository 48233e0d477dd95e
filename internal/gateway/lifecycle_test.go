package gateway

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"remac/internal/resilience"
)

// lifecycleEvents filters an audit tail down to membership transitions.
func lifecycleEvents(events []Event) []Event {
	var out []Event
	for _, e := range events {
		if e.Kind == EventTransition {
			out = append(out, e)
		}
	}
	return out
}

// TestLifecycleActiveDetection walks the full state machine off probe
// evidence alone: healthy → suspect → ejected on consecutive failed
// probes, then (no respawn hook) rejoining → healthy once the instance
// comes back and passes RejoinProbes caught-up probes.
func TestLifecycleActiveDetection(t *testing.T) {
	insts, fakes := fakeFleet(3)
	g := NewWithInstances(Config{Seed: 1, EjectAfter: 3, RejoinProbes: 2, PassiveFailures: -1}, insts)
	defer g.Shutdown(context.Background())

	victim := 1
	fakes[victim].setDown(true)

	g.ProbeNow()
	if got := g.ShardState(victim); got != ShardSuspect {
		t.Fatalf("after 1 failed probe: state %v, want suspect", got)
	}
	g.ProbeNow()
	if got := g.ShardState(victim); got != ShardSuspect {
		t.Fatalf("after 2 failed probes: state %v, want suspect", got)
	}
	g.ProbeNow()
	if got := g.ShardState(victim); got != ShardEjected {
		t.Fatalf("after EjectAfter=3 failed probes: state %v, want ejected", got)
	}
	for i := range fakes {
		if st := g.ShardState(i); i != victim && st != ShardHealthy {
			t.Fatalf("shard %d state %v, want healthy", i, st)
		}
	}

	// The instance recovers on its own: probation, then readmission after
	// RejoinProbes consecutive caught-up probes.
	fakes[victim].setDown(false)
	g.ProbeNow()
	if got := g.ShardState(victim); got != ShardRejoining {
		t.Fatalf("after recovery probe: state %v, want rejoining", got)
	}
	g.ProbeNow()
	if got := g.ShardState(victim); got != ShardRejoining {
		t.Fatalf("after 1 caught-up probe (RejoinProbes=2): state %v, want rejoining", got)
	}
	g.ProbeNow()
	if got := g.ShardState(victim); got != ShardHealthy {
		t.Fatalf("after RejoinProbes caught-up probes: state %v, want healthy", got)
	}

	trans := lifecycleEvents(g.Audit(0))
	var seq []string
	for _, e := range trans {
		if e.Shard == victim {
			seq = append(seq, e.From+">"+e.To)
		}
	}
	want := []string{"healthy>suspect", "suspect>ejected", "ejected>rejoining", "rejoining>healthy"}
	if len(seq) != len(want) {
		t.Fatalf("transition audit trail %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("transition %d = %q, want %q (full trail %v)", i, seq[i], want[i], seq)
		}
	}
	st := g.Stats()
	if st.Ejections != 1 || st.Rejoins != 1 {
		t.Fatalf("stats ejections=%d rejoins=%d, want 1/1", st.Ejections, st.Rejoins)
	}
}

// TestLifecyclePassiveEjectionAndFailover: Internal-class failures fail
// over to the next ring shard (marked on the Result), and consecutive
// failures trip passive ejection carrying the triggering request id.
func TestLifecyclePassiveEjectionAndFailover(t *testing.T) {
	insts, fakes := fakeFleet(3)
	g := NewWithInstances(Config{Seed: 1, PassiveFailures: 2, EjectAfter: -1}, insts)
	defer g.Shutdown(context.Background())

	q := gatewayQuery("cri1")
	order := g.routableOrder(q)
	home, alt := order[0], order[1]
	fakes[home].setDown(true)

	res, err := g.Do(context.Background(), Request{Tenant: "t", RequestID: "req-1", Query: q})
	if err != nil {
		t.Fatalf("Do with failover: %v", err)
	}
	if !res.Failover || res.Spilled {
		t.Fatalf("Result failover=%v spilled=%v, want failover only", res.Failover, res.Spilled)
	}
	if res.Shard != alt {
		t.Fatalf("served by shard %d, want first alternate %d", res.Shard, alt)
	}
	if got := g.ShardState(home); got != ShardHealthy {
		t.Fatalf("one failure ejected the shard early: %v", got)
	}

	if _, err := g.Do(context.Background(), Request{Tenant: "t", RequestID: "req-2", Query: q}); err != nil {
		t.Fatalf("Do second: %v", err)
	}
	if got := g.ShardState(home); got != ShardEjected {
		t.Fatalf("after PassiveFailures=2 internal failures: state %v, want ejected", got)
	}

	// The ejected shard leaves the preference order: no more attempts land
	// on it, and the alternate serves without failover marking.
	attemptsBefore := fakes[home].attemptCount()
	res, err = g.Do(context.Background(), Request{Tenant: "t", RequestID: "req-3", Query: q})
	if err != nil {
		t.Fatalf("Do after ejection: %v", err)
	}
	if res.Failover {
		t.Fatal("query after ejection should route directly, not fail over")
	}
	if fakes[home].attemptCount() != attemptsBefore {
		t.Fatal("ejected shard still receives attempts")
	}

	trans := lifecycleEvents(g.Audit(0))
	if len(trans) != 1 {
		t.Fatalf("want exactly one transition event, got %d", len(trans))
	}
	e := trans[0]
	if e.Shard != home || e.To != "ejected" || e.RequestID != "req-2" {
		t.Fatalf("passive ejection event %+v: want shard %d, to ejected, request id req-2", e, home)
	}

	st := g.Stats()
	if st.FailedOver != 2 {
		t.Fatalf("stats failed_over=%d, want 2", st.FailedOver)
	}
	if st.PerShard[home].Lifecycle.State != "ejected" {
		t.Fatalf("per-shard lifecycle state %q, want ejected", st.PerShard[home].Lifecycle.State)
	}
}

// TestPassiveDetectorCountsConsecutiveInternalOnly pins the passive
// detector at PassiveFailures 2: only Internal-class outcomes count, a
// success resets the count, overload and cancellation neither count nor
// reset it, a rejoined shard starts from zero, and the ejection carries the
// request id of the failure that completed the run.
func TestPassiveDetectorCountsConsecutiveInternalOnly(t *testing.T) {
	insts, fakes := fakeFleet(3)
	g := NewWithInstances(Config{Seed: 1, PassiveFailures: 2, RejoinProbes: 1}, insts)
	defer g.Shutdown(context.Background())
	q := gatewayQuery("cri1")
	q.Attempts = 1 // the home shard only: no failover or spill-over
	home := g.routableOrder(q)[0]

	internal := &resilience.QueryError{Class: resilience.Internal, Stage: "shard", Err: ErrShardDown}
	overloaded := &resilience.QueryError{Class: resilience.Overloaded, Stage: "admission", Err: errors.New("busy")}
	canceled := &resilience.QueryError{Class: resilience.Canceled, Stage: "wait", Err: context.Canceled}
	sent := 0
	send := func(outcomes ...error) {
		t.Helper()
		for _, out := range outcomes {
			sent++
			fakes[home].fail = out
			g.Do(context.Background(), Request{Tenant: "t", RequestID: fmt.Sprintf("req-%d", sent), Query: q})
		}
		fakes[home].fail = nil
	}
	expect := func(step string, want ShardState) {
		t.Helper()
		if got := g.ShardState(home); got != want {
			t.Fatalf("%s: shard state %v, want %v", step, got, want)
		}
	}

	send(internal, nil, internal)
	expect("internal, success, internal", ShardHealthy)
	send(overloaded, canceled, internal)
	expect("then overloaded, canceled, internal", ShardEjected)

	g.ProbeNow() // live again: rejoining
	g.ProbeNow() // caught up: readmitted
	expect("after rejoin", ShardHealthy)
	send(internal)
	expect("one internal failure after the rejoin", ShardHealthy)
	send(internal)
	expect("two internal failures after the rejoin", ShardEjected)

	var ejections []string
	for _, e := range lifecycleEvents(g.Audit(0)) {
		if e.Shard == home && e.To == "ejected" {
			ejections = append(ejections, e.RequestID)
		}
	}
	if want := []string{"req-6", "req-8"}; !reflect.DeepEqual(ejections, want) {
		t.Fatalf("ejection events %v, want %v", ejections, want)
	}
}

// TestLifecycleFailoverExhausted: when every shard the allowance reaches
// fails, the error is typed and wraps ErrFailoverExhausted.
func TestLifecycleFailoverExhausted(t *testing.T) {
	insts, fakes := fakeFleet(3)
	g := NewWithInstances(Config{Seed: 1, PassiveFailures: -1, EjectAfter: -1}, insts)
	defer g.Shutdown(context.Background())

	for _, f := range fakes {
		f.setDown(true)
	}
	q := gatewayQuery("cri1")
	q.Attempts = 2
	_, err := g.Do(context.Background(), Request{Tenant: "t", Query: q})
	if err == nil {
		t.Fatal("want failure when every shard is down")
	}
	if !errors.Is(err, ErrFailoverExhausted) {
		t.Fatalf("error %v does not wrap ErrFailoverExhausted", err)
	}
	if !resilience.IsClass(err, resilience.Internal) {
		t.Fatalf("failover exhaustion should stay Internal-class: %v", err)
	}
	// Allowance 2: home plus one alternate, never the third shard.
	total := 0
	for _, f := range fakes {
		total += f.attemptCount()
	}
	if total != 2 {
		t.Fatalf("%d attempts across the fleet, want 2 (home + 1 failover)", total)
	}
	if st := g.Stats(); st.FailoverExhausted != 1 {
		t.Fatalf("stats failover_exhausted=%d, want 1", st.FailoverExhausted)
	}
}

// TestLifecycleFailoverDisabled: an allowance of one try turns
// Internal-class failures back into immediate errors.
func TestLifecycleFailoverDisabled(t *testing.T) {
	insts, fakes := fakeFleet(2)
	g := NewWithInstances(Config{Seed: 1, PassiveFailures: -1, EjectAfter: -1}, insts)
	defer g.Shutdown(context.Background())

	q := gatewayQuery("cri1")
	q.Attempts = 1
	home := g.routableOrder(q)[0]
	fakes[home].setDown(true)
	_, err := g.Do(context.Background(), Request{Tenant: "t", Query: q})
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("want the shard's own error, got %v", err)
	}
	if errors.Is(err, ErrFailoverExhausted) {
		t.Fatal("disabled failover must not report exhaustion")
	}
	if fakes[1-home].attemptCount() != 0 {
		t.Fatal("disabled failover still tried the alternate shard")
	}
}

// TestLifecycleDeadlineSharedAcrossAttempts: the gateway binds the
// per-query deadline once; the failover attempt sees the same context
// deadline (remaining budget), not a fresh one, and the shard-level
// timeout is cleared.
func TestLifecycleDeadlineSharedAcrossAttempts(t *testing.T) {
	insts, fakes := fakeFleet(2)
	g := NewWithInstances(Config{Seed: 1, PassiveFailures: -1, EjectAfter: -1}, insts)
	defer g.Shutdown(context.Background())

	q := gatewayQuery("cri1")
	q.Timeout = 5 * time.Second
	home := g.routableOrder(q)[0]
	fakes[home].setDown(true)

	res, err := g.Do(context.Background(), Request{Tenant: "t", Query: q})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if !res.Failover {
		t.Fatal("want a failover-served result")
	}
	var seen []time.Time
	for _, f := range fakes {
		f.mu.Lock()
		for i, dl := range f.deadlines {
			if dl.IsZero() {
				t.Fatalf("shard %s attempt %d saw no context deadline", f.id, i)
			}
			if f.timeouts[i] != 0 {
				t.Fatalf("shard %s attempt %d saw shard-level timeout %v, want 0 (gateway owns the deadline)", f.id, i, f.timeouts[i])
			}
			seen = append(seen, dl)
		}
		f.mu.Unlock()
	}
	if len(seen) != 2 {
		t.Fatalf("recorded %d attempts, want 2", len(seen))
	}
	if !seen[0].Equal(seen[1]) {
		t.Fatalf("attempts saw different deadlines (%v vs %v): each attempt got a fresh budget", seen[0], seen[1])
	}
}

// TestLifecycleDeadlineExhaustedTyped: a query that burns its whole
// deadline on a hung shard fails with the typed Canceled-class (504)
// ErrDeadlineExhausted error, and no further attempts run after expiry.
func TestLifecycleDeadlineExhaustedTyped(t *testing.T) {
	cfg := Config{Seed: 3, PassiveFailures: -1, EjectAfter: -1}
	q := gatewayQuery("cri1")
	q.Timeout = 30 * time.Millisecond

	// Ring placement depends only on configuration, so a throwaway gateway
	// over fakes reveals which index homes the key; the real fleet then
	// puts the hung shard exactly there.
	scout := NewWithInstances(cfg, func() []Instance { i, _ := fakeFleet(2); return i }())
	home := scout.routableOrder(q)[0]
	scout.Shutdown(context.Background())

	hung := NewKillable(newFakeShard("shard-hung"))
	healthy := newFakeShard("shard-ok")
	insts := make([]Instance, 2)
	insts[home] = hung
	insts[1-home] = healthy
	g := NewWithInstances(cfg, insts)
	defer g.Shutdown(context.Background())
	hung.Kill(KillHang)

	start := time.Now()
	_, err := g.Do(context.Background(), Request{Tenant: "t", Query: q})
	if err == nil {
		t.Fatal("want deadline failure")
	}
	if !errors.Is(err, ErrDeadlineExhausted) {
		t.Fatalf("error %v does not wrap ErrDeadlineExhausted", err)
	}
	if !resilience.IsClass(err, resilience.Canceled) {
		t.Fatalf("deadline exhaustion should be Canceled-class (504): %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline query took %v, want ~30ms", elapsed)
	}
	if healthy.attemptCount() != 0 {
		t.Fatal("no attempt should run after the deadline expired")
	}
	if st := g.Stats(); st.DeadlineExceeded != 1 {
		t.Fatalf("stats deadline_exceeded=%d, want 1", st.DeadlineExceeded)
	}
}

// TestLifecycleRespawnAndCatchUp: the supervisor replaces a dead ejected
// instance via the Respawn hook, and the fresh instance is readmitted
// only after its dataset versions catch up to the broadcast version —
// including broadcasts it missed while dead.
func TestLifecycleRespawnAndCatchUp(t *testing.T) {
	insts, fakes := fakeFleet(2)
	var respawned *fakeShard
	cfg := Config{
		Seed: 1, EjectAfter: 1, RejoinProbes: 1, PassiveFailures: -1,
		Respawn: func(shard int, id string) Instance {
			respawned = newFakeShard(id)
			return respawned
		},
	}
	g := NewWithInstances(cfg, insts)
	defer g.Shutdown(context.Background())

	g.InvalidateDataset("cri1")
	g.InvalidateDataset("cri1")
	victim := 0
	fakes[victim].setDown(true)
	g.ProbeNow()
	if got := g.ShardState(victim); got != ShardEjected {
		t.Fatalf("EjectAfter=1: state %v, want ejected", got)
	}

	// A broadcast lands while the shard is dead: bounded, counted, and not
	// acknowledged by the corpse.
	v := g.InvalidateDataset("cri1")
	if v != 3 {
		t.Fatalf("broadcast version %d, want 3", v)
	}
	if st := g.Stats(); st.InvalidationsLagged == 0 {
		t.Fatal("dead shard's missed catch-up not counted")
	}

	g.ProbeNow() // supervisor respawns; fresh instance starts at version 0
	if got := g.ShardState(victim); got != ShardRejoining {
		t.Fatalf("after respawn: state %v, want rejoining", got)
	}
	if respawned == nil {
		t.Fatal("respawn hook never called")
	}
	g.ProbeNow() // catch-up replays the broadcasts, then readmits
	if got := g.ShardState(victim); got != ShardHealthy {
		t.Fatalf("after caught-up probe: state %v, want healthy", got)
	}
	if got := respawned.DatasetVersion("cri1"); got != 3 {
		t.Fatalf("respawned shard at version %d after rejoin, want 3", got)
	}
	if g.instance(victim) != Instance(respawned) {
		t.Fatal("gateway still routes to the dead instance")
	}
	st := g.Stats()
	if st.Respawns != 1 || st.Rejoins != 1 {
		t.Fatalf("stats respawns=%d rejoins=%d, want 1/1", st.Respawns, st.Rejoins)
	}
}

// TestLifecycleRejoinBlockedUntilCatchUp: a live-again shard that cannot
// acknowledge invalidations stays in rejoining — stale caches never take
// traffic — and is readmitted the moment catch-up succeeds.
func TestLifecycleRejoinBlockedUntilCatchUp(t *testing.T) {
	insts, fakes := fakeFleet(2)
	g := NewWithInstances(Config{Seed: 1, EjectAfter: 1, RejoinProbes: 1, PassiveFailures: -1}, insts)
	defer g.Shutdown(context.Background())

	g.InvalidateDataset("cri1")
	victim := 1
	fakes[victim].setDown(true)
	g.InvalidateDataset("cri1") // missed while down
	g.ProbeNow()
	if got := g.ShardState(victim); got != ShardEjected {
		t.Fatalf("state %v, want ejected", got)
	}

	// Back alive but refusing invalidations: probation never ends.
	fakes[victim].setNoAck(true)
	fakes[victim].setDown(false)
	g.ProbeNow()
	if got := g.ShardState(victim); got != ShardRejoining {
		t.Fatalf("state %v, want rejoining", got)
	}
	for i := 0; i < 3; i++ {
		g.ProbeNow()
		if got := g.ShardState(victim); got != ShardRejoining {
			t.Fatalf("round %d: state %v, want rejoining while versions lag", i, got)
		}
	}

	fakes[victim].setNoAck(false)
	g.ProbeNow()
	if got := g.ShardState(victim); got != ShardHealthy {
		t.Fatalf("state %v, want healthy once caught up", got)
	}
	want := g.DatasetVersion("cri1")
	if got := fakes[victim].DatasetVersion("cri1"); got != want {
		t.Fatalf("rejoined shard at version %d, want %d", got, want)
	}
}

// TestLifecycleHangDetection: a wedged shard (probes block instead of
// failing) is detected by the probe timeout and walks the same ejection
// path.
func TestLifecycleHangDetection(t *testing.T) {
	inner := newFakeShard("shard-0")
	k := NewKillable(inner)
	healthy := newFakeShard("shard-1")
	g := NewWithInstances(Config{
		Seed: 1, EjectAfter: 2, RejoinProbes: 1, PassiveFailures: -1,
		ProbeTimeout: 20 * time.Millisecond,
	}, []Instance{k, healthy})
	defer g.Shutdown(context.Background())

	k.Kill(KillHang)
	g.ProbeNow()
	if got := g.ShardState(0); got != ShardSuspect {
		t.Fatalf("hung probe: state %v, want suspect", got)
	}
	g.ProbeNow()
	if got := g.ShardState(0); got != ShardEjected {
		t.Fatalf("after EjectAfter=2 hung probes: state %v, want ejected", got)
	}
	k.Revive()
	g.ProbeNow()
	if got := g.ShardState(0); got != ShardRejoining {
		t.Fatalf("after revive: state %v, want rejoining", got)
	}
	g.ProbeNow()
	if got := g.ShardState(0); got != ShardHealthy {
		t.Fatalf("after caught-up probe: state %v, want healthy", got)
	}
}

// TestLifecycleQuorumHealth: healthz/readyz degrade once ejections break
// the configured live-shard quorum.
func TestLifecycleQuorumHealth(t *testing.T) {
	insts, fakes := fakeFleet(3)
	g := NewWithInstances(Config{Seed: 1, EjectAfter: 1, ReadyQuorum: 2, PassiveFailures: -1}, insts)
	defer g.Shutdown(context.Background())

	if h := g.Healthz(); !h.OK || h.ReadyShards != 3 || h.Quorum != 2 {
		t.Fatalf("full fleet: %+v, want OK with 3 live and quorum 2", h)
	}
	fakes[0].setDown(true)
	g.ProbeNow()
	h := g.Healthz()
	if !h.OK || h.ReadyShards != 2 || h.EjectedShards != 1 {
		t.Fatalf("one ejection: %+v, want OK with 2 live, 1 ejected", h)
	}
	if h.Lifecycle[0] != "ejected" || h.Lifecycle[1] != "healthy" {
		t.Fatalf("lifecycle payload %v", h.Lifecycle)
	}
	fakes[1].setDown(true)
	g.ProbeNow()
	if h := g.Healthz(); h.OK || h.ReadyShards != 1 {
		t.Fatalf("quorum broken: %+v, want !OK with 1 live", h)
	}
	if h := g.Readyz(); h.OK {
		t.Fatalf("readyz %+v, want !OK below quorum", h)
	}
}

// TestLifecycleNoRoutableShards: with every shard ejected, Do fails fast
// with the typed Overloaded-class ErrNoShards.
func TestLifecycleNoRoutableShards(t *testing.T) {
	insts, fakes := fakeFleet(2)
	g := NewWithInstances(Config{Seed: 1, EjectAfter: 1, PassiveFailures: -1}, insts)
	defer g.Shutdown(context.Background())

	for _, f := range fakes {
		f.setDown(true)
	}
	g.ProbeNow()
	_, err := g.Do(context.Background(), Request{Tenant: "t", Query: gatewayQuery("cri1")})
	if !errors.Is(err, ErrNoShards) {
		t.Fatalf("want ErrNoShards, got %v", err)
	}
	if !resilience.IsClass(err, resilience.Overloaded) {
		t.Fatalf("no-routable-shards should be Overloaded-class (503): %v", err)
	}
	for _, f := range fakes {
		if f.attemptCount() != 0 {
			t.Fatal("ejected shard received an attempt")
		}
	}
}

// ShardState returns shard i's current lifecycle state.
func (g *Gateway) ShardState(i int) ShardState { return g.life.snapshotStates()[i] }
