package gateway

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"remac/internal/fault"
)

// Wire-fault root causes. http.Client wraps transport errors in
// *url.Error, which unwraps, so errors.Is matches through the client.
var (
	// ErrNetReset is a connection reset before the request reached the
	// server: the query was never executed.
	ErrNetReset = errors.New("netfault: connection reset")
	// ErrNetDropped is a response lost after the server committed the
	// work: the query executed exactly once, but the caller cannot know —
	// the failure mode idempotent replay exists for.
	ErrNetDropped = errors.New("netfault: response dropped after commit")
	// ErrNetPartition is a request blackholed by a network partition.
	ErrNetPartition = errors.New("netfault: network partition")
)

// PartitionMode selects which paths a partition severs. Asymmetric modes
// model the nasty cases: a prober that thinks a shard is fine while
// clients cannot reach it, and the reverse.
type PartitionMode int

const (
	// PartitionNone: no partition.
	PartitionNone PartitionMode = iota
	// PartitionAll severs both the probe path and the data path.
	PartitionAll
	// PartitionData severs queries/stats/invalidations but lets health
	// probes through — the prober believes the shard is healthy while
	// every query fails. Passive failure detection is what catches this.
	PartitionData
	// PartitionProbe severs health probes but lets queries through —
	// active probing ejects a shard that is actually still serving.
	PartitionProbe
)

// NetFaultConfig parameterizes a NetFault. Rates are per-request
// probabilities in [0,1], drawn from a seeded deterministic stream: the
// multiset of fault decisions over N requests is fixed by the seed (the
// assignment to particular requests follows arrival order).
type NetFaultConfig struct {
	Seed uint64
	// ResetRate: connection reset before the request is sent (no
	// server-side effect).
	ResetRate float64
	// DropRate: POST /query responses dropped after the server committed
	// (the request executes; the reply is lost).
	DropRate float64
	// GarbleRate: successful POST /query response bodies truncated and
	// corrupted in flight.
	GarbleRate float64
	// LatencyRate / Latency: a latency spike of Latency before the
	// request proceeds (context-respecting).
	LatencyRate float64
	Latency     time.Duration
}

// NetFaultCounters reports what a NetFault actually injected.
type NetFaultCounters struct {
	Resets      uint64 `json:"resets"`
	Drops       uint64 `json:"drops"`
	Garbles     uint64 `json:"garbles"`
	Spikes      uint64 `json:"spikes"`
	Partitioned uint64 `json:"partitioned"`
}

// NetFault is a deterministic fault-injecting http.RoundTripper wrapped
// around a real transport: latency spikes, connection resets, responses
// dropped after the server committed, garbled JSON bodies, and
// asymmetric partitions that split the prober from the data path. The
// chaos storm and the remote tests stack it under a RemoteInstance's
// client so every wire pathology flows through exactly the retry/replay/
// lifecycle machinery production traffic would use.
type NetFault struct {
	inner http.RoundTripper
	cfg   NetFaultConfig

	seq       atomic.Uint64
	mu        sync.Mutex
	partition PartitionMode
	forceDrop int

	resets      atomic.Uint64
	drops       atomic.Uint64
	garbles     atomic.Uint64
	spikes      atomic.Uint64
	partitioned atomic.Uint64
}

// NewNetFault wraps a transport (nil: http.DefaultTransport's clone).
func NewNetFault(inner http.RoundTripper, cfg NetFaultConfig) *NetFault {
	if inner == nil {
		inner = http.DefaultTransport.(*http.Transport).Clone()
	}
	return &NetFault{inner: inner, cfg: cfg}
}

// SetPartition switches the partition mode (PartitionNone heals).
func (f *NetFault) SetPartition(m PartitionMode) {
	f.mu.Lock()
	f.partition = m
	f.mu.Unlock()
}

// Partition reads the current partition mode.
func (f *NetFault) Partition() PartitionMode {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.partition
}

// ForceDropNext makes the next n POST /query responses drop after commit,
// regardless of rates — the deterministic hook for replay assertions.
func (f *NetFault) ForceDropNext(n int) {
	f.mu.Lock()
	f.forceDrop += n
	f.mu.Unlock()
}

func (f *NetFault) takeForceDrop() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.forceDrop > 0 {
		f.forceDrop--
		return true
	}
	return false
}

// Counters snapshots the injected-fault counts.
func (f *NetFault) Counters() NetFaultCounters {
	return NetFaultCounters{
		Resets:      f.resets.Load(),
		Drops:       f.drops.Load(),
		Garbles:     f.garbles.Load(),
		Spikes:      f.spikes.Load(),
		Partitioned: f.partitioned.Load(),
	}
}

// isProbePath splits the wire into the prober's view (/healthz, /readyz)
// and the data path (everything else: queries, stats, invalidations,
// version catch-up).
func isProbePath(path string) bool {
	return path == "/healthz" || path == "/readyz"
}

// next draws the request's fault roll from the seeded SplitMix64 stream.
func (f *NetFault) next() float64 {
	x := fault.Mix64(f.cfg.Seed + 0x9e3779b97f4a7c15*f.seq.Add(1))
	return float64(x>>11) / float64(1<<53)
}

// RoundTrip injects at most one fault per request, decided by the seeded
// stream (partition and ForceDropNext take precedence).
func (f *NetFault) RoundTrip(req *http.Request) (*http.Response, error) {
	probe := isProbePath(req.URL.Path)
	blocked := false
	switch f.Partition() {
	case PartitionAll:
		blocked = true
	case PartitionData:
		blocked = !probe
	case PartitionProbe:
		blocked = probe
	}
	if blocked {
		f.partitioned.Add(1)
		return nil, ErrNetPartition
	}
	isQuery := req.Method == http.MethodPost && req.URL.Path == "/query"
	if isQuery && f.takeForceDrop() {
		return f.dropAfterCommit(req)
	}
	roll := f.next()
	c := f.cfg
	switch {
	case roll < c.ResetRate:
		f.resets.Add(1)
		return nil, ErrNetReset
	case isQuery && roll < c.ResetRate+c.DropRate:
		return f.dropAfterCommit(req)
	case isQuery && roll < c.ResetRate+c.DropRate+c.GarbleRate:
		resp, err := f.inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		return f.garble(resp)
	case roll < c.ResetRate+c.DropRate+c.GarbleRate+c.LatencyRate && c.Latency > 0:
		f.spikes.Add(1)
		t := time.NewTimer(c.Latency)
		select {
		case <-t.C:
		case <-req.Context().Done():
			t.Stop()
			return nil, req.Context().Err()
		}
	}
	return f.inner.RoundTrip(req)
}

// dropAfterCommit lets the request reach the server — the plan executes,
// state commits — then loses the response on the way back.
func (f *NetFault) dropAfterCommit(req *http.Request) (*http.Response, error) {
	resp, err := f.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	f.drops.Add(1)
	return nil, ErrNetDropped
}

// garble truncates a successful response body at the midpoint and flips a
// byte, producing the torn JSON a half-closed connection yields. Error
// responses pass through untouched (their status already carries the
// taxonomy).
func (f *NetFault) garble(resp *http.Response) (*http.Response, error) {
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	f.garbles.Add(1)
	cut := body[:len(body)/2]
	if len(cut) > 0 {
		cut[len(cut)-1] ^= 0x5a
	}
	resp.Body = io.NopCloser(bytes.NewReader(cut))
	resp.ContentLength = int64(len(cut))
	resp.Header.Del("Content-Length")
	return resp, nil
}

// TestNetFaultRollGolden was recorded at the commit before the SplitMix64
// finalizer moved into fault.Mix64: the remote bench gate and the partition
// storm replay these rolls by seed, so a refactor of the mixer may never
// move them.
func TestNetFaultRollGolden(t *testing.T) {
	f := NewNetFault(nil, NetFaultConfig{Seed: 99})
	want := []float64{0.2615304715693846, 0.0316577610861849, 0.8347597245449443,
		0.10231939626956132, 0.1700589441522914, 0.23466461646336212}
	for i, w := range want {
		if got := f.next(); got != w {
			t.Fatalf("roll %d = %v, want %v", i, got, w)
		}
	}
}
