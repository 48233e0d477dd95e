package gateway

import (
	"context"
	"fmt"
	"sync"
	"time"

	"remac/internal/resilience"
	"remac/internal/serve"
)

// ShardState is one shard's position in the gateway's membership state
// machine: healthy → suspect → ejected → rejoining → healthy. Healthy and
// suspect shards take traffic; ejected and rejoining shards are skipped in
// ring preference order (surviving shards keep their placement — only the
// dead shard's keys move, deterministically, to the next shard in each
// key's preference order).
type ShardState int

const (
	// ShardHealthy takes traffic and passes probes.
	ShardHealthy ShardState = iota
	// ShardSuspect failed its last probe(s) but has not yet exhausted the
	// ejection budget. It still takes traffic: a single missed probe is not
	// evidence enough to move keys.
	ShardSuspect
	// ShardEjected is out of the routing order. The supervisor respawns the
	// instance (when a Respawn hook is configured) or waits for it to come
	// back on its own.
	ShardEjected
	// ShardRejoining is live again but not yet readmitted: it must pass
	// probes and catch its dataset versions up to the gateway's broadcast
	// versions first, so a stale cache can never serve.
	ShardRejoining
)

// String names the state as it appears in stats, health payloads and audit
// events.
func (s ShardState) String() string {
	switch s {
	case ShardHealthy:
		return "healthy"
	case ShardSuspect:
		return "suspect"
	case ShardEjected:
		return "ejected"
	case ShardRejoining:
		return "rejoining"
	default:
		return "unknown"
	}
}

// takesTraffic reports whether a shard in this state stays in the ring
// preference order.
func (s ShardState) takesTraffic() bool {
	return s == ShardHealthy || s == ShardSuspect
}

// ShardLifecycle is one shard's lifecycle view in Stats and Health.
type ShardLifecycle struct {
	State string `json:"state"`
	// ProbeFailures is the current consecutive failed-probe count (resets
	// on a passed probe).
	ProbeFailures int `json:"probe_failures"`
	// Ejections / Respawns / Rejoins count this shard's lifetime
	// transitions through the cycle.
	Ejections uint64 `json:"ejections"`
	Respawns  uint64 `json:"respawns"`
	Rejoins   uint64 `json:"rejoins"`
}

// shardLife is one shard's mutable lifecycle record, guarded by
// lifecycle.mu.
type shardLife struct {
	state        ShardState
	probeFails   int // consecutive failed probes
	probeOKs     int // consecutive passed probes while rejoining
	passiveFails int // consecutive Internal-class query outcomes

	ejections uint64
	respawns  uint64
	rejoins   uint64
}

// lifecycle drives the per-shard state machines: active probing (an
// injectable clock; a background prober only when ProbeInterval > 0),
// passive detection from query outcomes, ejection, respawn and
// catch-up-gated rejoin.
type lifecycle struct {
	g *Gateway

	mu sync.Mutex
	st []*shardLife

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup // prober goroutine + async old-instance shutdowns
}

func newLifecycle(g *Gateway) *lifecycle {
	lc := &lifecycle{
		g:    g,
		st:   make([]*shardLife, len(g.ids)),
		stop: make(chan struct{}),
	}
	for i := range lc.st {
		lc.st[i] = &shardLife{state: ShardHealthy}
	}
	if g.cfg.ProbeInterval > 0 {
		lc.wg.Add(1)
		go lc.prober()
	}
	return lc
}

// prober is the background probe loop (started only when ProbeInterval is
// positive). ProbeNow drives the same rounds synchronously for tests and
// manual operation.
func (lc *lifecycle) prober() {
	defer lc.wg.Done()
	t := time.NewTicker(lc.g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-lc.stop:
			return
		case <-t.C:
			lc.probeRound()
		}
	}
}

// shutdown stops the prober and waits for it plus any in-flight async
// old-instance shutdowns.
func (lc *lifecycle) shutdown() {
	lc.stopOnce.Do(func() { close(lc.stop) })
	lc.wg.Wait()
}

// snapshotStates returns every shard's current state, in shard order.
func (lc *lifecycle) snapshotStates() []ShardState {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	out := make([]ShardState, len(lc.st))
	for i, s := range lc.st {
		out[i] = s.state
	}
	return out
}

// view returns one shard's lifecycle view for stats.
func (lc *lifecycle) view(i int) ShardLifecycle {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	s := lc.st[i]
	return ShardLifecycle{
		State:         s.state.String(),
		ProbeFailures: s.probeFails,
		Ejections:     s.ejections,
		Respawns:      s.respawns,
		Rejoins:       s.rejoins,
	}
}

// observe is the passive detector: Do reports every shard attempt's
// outcome here. Only Internal-class failures (shard crashes, panics,
// abandoned shared producers) count — overload, cancellation and
// client-caused errors neither count nor reset. A success resets the count.
// PassiveFailures of them in a row eject the shard, with the triggering
// request id as evidence.
func (lc *lifecycle) observe(shard int, err error, requestID string) {
	if lc.g.cfg.PassiveFailures <= 0 {
		return
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	s := lc.st[shard]
	if !s.state.takesTraffic() {
		return
	}
	switch {
	case err == nil:
		s.passiveFails = 0
	case resilience.IsClass(err, resilience.Internal):
		s.passiveFails++
		if s.passiveFails >= lc.g.cfg.PassiveFailures {
			lc.ejectLocked(shard, "passive",
				fmt.Sprintf("%d consecutive internal-class failures", lc.g.cfg.PassiveFailures),
				requestID)
		}
	}
}

// ejectLocked moves a shard to ejected (from healthy or suspect), records
// the transition on the audit plane, and clears the passive count for the
// eventual rejoin. Caller holds lc.mu.
func (lc *lifecycle) ejectLocked(shard int, reason, evidence, requestID string) {
	s := lc.st[shard]
	from := s.state
	s.state = ShardEjected
	s.probeFails = 0
	s.probeOKs = 0
	s.passiveFails = 0
	s.ejections++
	lc.g.count(func(st *Stats) { st.Ejections++ })
	lc.g.recordTransition(shard, from, ShardEjected, reason, evidence, requestID)
}

// guardedProbe runs one shard probe with panic isolation and the
// ProbeTimeout bound, so a broken, wedged or hung instance reports
// unhealthy instead of taking down or stalling whoever asked — the
// gateway's own health endpoints and the lifecycle monitor alike.
func (lc *lifecycle) guardedProbe(probe func() serve.Health) serve.Health {
	ch := make(chan serve.Health, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- serve.Health{Status: fmt.Sprintf("probe panicked: %v", r)}
			}
		}()
		ch <- probe()
	}()
	t := time.NewTimer(lc.g.cfg.ProbeTimeout)
	defer t.Stop()
	select {
	case h := <-ch:
		return h
	case <-t.C:
		return serve.Health{Status: fmt.Sprintf("probe timed out after %s", lc.g.cfg.ProbeTimeout)}
	case <-lc.stop:
		return serve.Health{Status: "gateway shutting down"}
	}
}

// probeRound probes every shard once and applies the state machine. A
// no-op when active detection is disabled (EjectAfter < 0).
func (lc *lifecycle) probeRound() {
	if lc.g.cfg.EjectAfter <= 0 {
		return
	}
	// Readiness (Readyz) is deliberately not part of liveness — a shard with
	// an open breaker or full queue is overloaded, not dead, and spill-over
	// already handles that.
	for i := range lc.g.ids {
		lc.apply(i, lc.guardedProbe(lc.g.instance(i).Healthz))
	}
}

// apply folds one liveness probe's outcome into shard i's state machine.
func (lc *lifecycle) apply(i int, pr serve.Health) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	s := lc.st[i]
	switch s.state {
	case ShardHealthy, ShardSuspect:
		if pr.OK {
			if s.state == ShardSuspect {
				s.state = ShardHealthy
				lc.g.recordTransition(i, ShardSuspect, ShardHealthy, "probe", "probe passed", "")
			}
			s.probeFails = 0
			return
		}
		s.probeFails++
		if s.probeFails >= lc.g.cfg.EjectAfter {
			lc.ejectLocked(i, "probe",
				fmt.Sprintf("%d consecutive failed probes; last: %s", s.probeFails, pr.Status), "")
			return
		}
		if s.state == ShardHealthy {
			s.state = ShardSuspect
			lc.g.recordTransition(i, ShardHealthy, ShardSuspect, "probe", pr.Status, "")
		}
	case ShardEjected:
		if pr.OK {
			// The instance came back on its own (a hung shard unwedged, or an
			// operator revived it): begin the probation-and-catch-up rejoin.
			s.state = ShardRejoining
			s.probeOKs = 0
			lc.g.recordTransition(i, ShardEjected, ShardRejoining, "probe", "instance live again", "")
			return
		}
		lc.respawnLocked(i, s)
	case ShardRejoining:
		if !pr.OK {
			s.state = ShardEjected
			s.probeOKs = 0
			lc.g.recordTransition(i, ShardRejoining, ShardEjected, "probe",
				"rejoining instance failed probe: "+pr.Status, "")
			return
		}
		// Catch-up gate: the shard must reach the gateway's broadcast
		// version for every invalidated dataset before it can take traffic
		// again — readmitting early would let intermediates cached under a
		// stale version serve. The catch-up and the final readmission run
		// under the broadcast lock so no invalidation can interleave between
		// "caught up" and "healthy".
		if !lc.g.catchUp(i, func() bool {
			s.probeOKs++
			if s.probeOKs < lc.g.cfg.RejoinProbes {
				return false
			}
			s.state = ShardHealthy
			s.probeFails = 0
			s.rejoins++
			s.passiveFails = 0
			lc.g.count(func(st *Stats) { st.Rejoins++ })
			lc.g.recordTransition(i, ShardRejoining, ShardHealthy, "rejoin",
				"dataset versions caught up to broadcast", "")
			return true
		}) {
			s.probeOKs = 0
		}
	}
}

// respawnLocked replaces a dead ejected instance with a fresh one from the
// Respawn hook (if configured) and moves the shard to rejoining. The old
// instance is shut down asynchronously — it may be wedged, and the probe
// loop must not block on it. Caller holds lc.mu.
func (lc *lifecycle) respawnLocked(i int, s *shardLife) {
	if lc.g.cfg.Respawn == nil {
		return
	}
	fresh := lc.safeRespawn(i)
	if fresh == nil {
		return
	}
	old := lc.g.swapInstance(i, fresh)
	s.state = ShardRejoining
	s.probeOKs = 0
	s.respawns++
	lc.g.count(func(st *Stats) { st.Respawns++ })
	lc.g.recordTransition(i, ShardEjected, ShardRejoining, "respawn", "supervisor respawned instance", "")
	lc.wg.Add(1)
	go func() {
		defer lc.wg.Done()
		defer func() { recover() }() // a wedged instance may panic on Shutdown
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = old.Shutdown(ctx)
	}()
}

// safeRespawn calls the Respawn hook with panic isolation (a hook that
// panics leaves the shard ejected; the next round retries).
func (lc *lifecycle) safeRespawn(i int) (inst Instance) {
	defer func() {
		if r := recover(); r != nil {
			inst = nil
		}
	}()
	return lc.g.cfg.Respawn(i, lc.g.ids[i])
}
