package gateway

// The fault-injecting fixtures the gateway's chaos storms drive the tier
// with: a kill switch around a shard (Killable, in this file) and a seeded
// fault-injecting HTTP transport (NetFault, in netfault_test.go). Being test
// files, no binary can link them.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"remac/internal/resilience"
	"remac/internal/serve"
)

// ErrShardDown is the root cause inside the Internal-class error a killed
// Killable returns for every query.
var ErrShardDown = errors.New("chaostest: shard down")

// KillMode selects how a killed Killable misbehaves.
type KillMode int

const (
	// KillErrors makes the shard fail fast: every Do returns an
	// Internal-class error and probes report not-OK — a crashed process.
	KillErrors KillMode = iota
	// KillHang makes the shard wedge: Do and probes block until the shard
	// is revived or shut down — a deadlocked or partitioned process. The
	// gateway's probe timeout is what detects this mode.
	KillHang
	// KillPartition makes the shard unreachable over the wire without
	// killing it: queries fail with the same Internal-class wire error a
	// partitioned RemoteInstance produces (ErrNetPartition at the root),
	// probes report a wire failure, and version reads return -1 — the
	// shard itself keeps running, so Revive models the partition healing
	// with all shard state intact.
	KillPartition
)

// Killable wraps an Instance with a kill switch for the chaos tests: Kill
// makes the shard fail or hang, Revive restores it.
// While dead the shard stops acknowledging invalidations (a crashed
// process cannot), so its dataset versions fall behind the broadcast —
// exactly the staleness the rejoin catch-up gate exists to repair.
type Killable struct {
	mu     sync.Mutex
	inner  Instance
	dead   bool
	mode   KillMode
	revive chan struct{} // non-nil while dead; closed by Revive/Shutdown
	closed chan struct{}
}

// NewKillable wraps an instance; it starts alive.
func NewKillable(inner Instance) *Killable {
	return &Killable{inner: inner, closed: make(chan struct{})}
}

// Inner returns the wrapped instance.
func (k *Killable) Inner() Instance {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.inner
}

// Kill takes the shard down in the given mode. Idempotent while dead.
func (k *Killable) Kill(mode KillMode) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.dead {
		k.mode = mode
		return
	}
	k.dead = true
	k.mode = mode
	k.revive = make(chan struct{})
}

// Revive brings the shard back; callers blocked in hang mode resume
// against the live instance.
func (k *Killable) Revive() {
	k.mu.Lock()
	defer k.mu.Unlock()
	if !k.dead {
		return
	}
	k.dead = false
	close(k.revive)
	k.revive = nil
}

// state snapshots the kill switch.
func (k *Killable) state() (dead bool, mode KillMode, revive chan struct{}) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.dead, k.mode, k.revive
}

// Do serves through the inner instance while alive; dead shards fail with
// a typed Internal-class error (KillErrors) or block until revived,
// canceled or shut down (KillHang).
func (k *Killable) Do(ctx context.Context, q serve.Query) (*serve.QueryResult, error) {
	dead, mode, revive := k.state()
	if !dead {
		return k.Inner().Do(ctx, q)
	}
	switch mode {
	case KillErrors:
		return nil, &resilience.QueryError{Class: resilience.Internal, Stage: "shard", Err: ErrShardDown}
	case KillPartition:
		return nil, &resilience.QueryError{Class: resilience.Internal, Stage: "wire",
			Err: fmt.Errorf("chaostest: %w", ErrNetPartition)}
	}
	select {
	case <-revive:
		return k.Inner().Do(ctx, q)
	case <-ctx.Done():
		return nil, &resilience.QueryError{Class: resilience.Canceled, Stage: "shard",
			Err: fmt.Errorf("chaostest: hung shard: %w", ctx.Err())}
	case <-k.closed:
		return nil, &resilience.QueryError{Class: resilience.Internal, Stage: "shard", Err: ErrShardDown}
	}
}

// probe reports the inner probe while alive; dead shards report not-OK
// (KillErrors, KillPartition) or block like a wedged process (KillHang)
// until revived or shut down — the gateway's probe timeout converts the
// block into a liveness failure.
func (k *Killable) probe(inner func(Instance) serve.Health) serve.Health {
	dead, mode, revive := k.state()
	if !dead {
		return inner(k.Inner())
	}
	switch mode {
	case KillErrors:
		return serve.Health{OK: false, Status: "dead"}
	case KillPartition:
		return serve.Health{OK: false, Status: "partitioned"}
	}
	select {
	case <-revive:
		return inner(k.Inner())
	case <-k.closed:
		return serve.Health{OK: false, Status: "dead"}
	}
}

// Healthz is the inner liveness probe under the kill switch.
func (k *Killable) Healthz() serve.Health { return k.probe(Instance.Healthz) }

// Readyz is the inner readiness probe under the kill switch.
func (k *Killable) Readyz() serve.Health { return k.probe(Instance.Readyz) }

// InvalidateDataset is dropped while dead — a crashed process cannot
// acknowledge a broadcast. The version gap this opens is what the rejoin
// catch-up closes before readmission.
func (k *Killable) InvalidateDataset(id string) {
	dead, _, _ := k.state()
	if dead {
		return
	}
	k.Inner().InvalidateDataset(id)
}

// DatasetVersion reads through to the inner instance: it is the
// supervisor's last known state for the shard, readable even while the
// shard itself is down. Under KillPartition there is no supervisor-side
// state — the read is a wire round-trip — so it fails to -1 like a
// partitioned RemoteInstance, which keeps the rejoin catch-up gate shut
// until the partition heals.
func (k *Killable) DatasetVersion(id string) int64 {
	if dead, mode, _ := k.state(); dead && mode == KillPartition {
		return -1
	}
	return k.Inner().DatasetVersion(id)
}

// Metrics reads through to the inner instance.
func (k *Killable) Metrics() serve.Snapshot { return k.Inner().Metrics() }

// Shutdown releases any hang-blocked callers and stops the inner
// instance.
func (k *Killable) Shutdown(ctx context.Context) error {
	k.mu.Lock()
	select {
	case <-k.closed:
	default:
		close(k.closed)
	}
	k.mu.Unlock()
	return k.Inner().Shutdown(ctx)
}

var _ Instance = (*Killable)(nil)
