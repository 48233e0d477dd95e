package cluster

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := SingleNodeConfig().Validate(); err != nil {
		t.Fatalf("single-node config invalid: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.Nodes = -3 },
		func(c *Config) { c.CoresPerNode = 0 },
		func(c *Config) { c.CoresPerNode = -1 },
		func(c *Config) { c.FlopsPerCore = 0 },
		func(c *Config) { c.FlopsPerCore = -1e9 },
		func(c *Config) { c.NetBandwidth = 0 },
		func(c *Config) { c.NetBandwidth = -1 },
		func(c *Config) { c.DiskBandwidth = 0 },
		func(c *Config) { c.DiskBandwidth = -150e6 },
		func(c *Config) { c.BlockSize = 0 },
		func(c *Config) { c.BlockSize = -1000 },
		func(c *Config) { c.Efficiency = 0 },
		func(c *Config) { c.Efficiency = -0.1 },
		func(c *Config) { c.Efficiency = 1.5 },
		func(c *Config) { c.DriverMemory = -1 },
		func(c *Config) { c.JobOverheadSec = -0.5 },
		func(c *Config) { c.SparsePenalty = 0.5 },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	// Boundary values that must remain valid.
	ok := DefaultConfig()
	ok.Efficiency = 1
	ok.JobOverheadSec = 0
	ok.SparsePenalty = 1
	if err := ok.Validate(); err != nil {
		t.Errorf("boundary config rejected: %v", err)
	}
}

func TestWorkersExcludesDriver(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Workers() != 6 {
		t.Errorf("Workers() = %d, want 6 (paper: six Spark workers)", cfg.Workers())
	}
	if SingleNodeConfig().Workers() != 1 {
		t.Error("single node must still have one worker")
	}
}

func TestClusterVsLocalFlops(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.ClusterFlops() <= cfg.LocalFlops() {
		t.Error("cluster aggregate FLOP/s should exceed single node")
	}
	ratio := cfg.ClusterFlops() / cfg.LocalFlops()
	if math.Abs(ratio-6) > 1e-9 {
		t.Errorf("cluster/local ratio = %g, want 6", ratio)
	}
}

func TestTransmitWeights(t *testing.T) {
	cfg := DefaultConfig()
	// Shuffle runs on all links in parallel, so its per-byte weight must be
	// cheaper than collect which funnels into one link.
	if cfg.TransmitWeight(Shuffle) >= cfg.TransmitWeight(Collect) {
		t.Error("shuffle should be cheaper per byte than collect")
	}
	// Broadcast carries a fan-out penalty over a plain collect.
	if cfg.TransmitWeight(Broadcast) <= cfg.TransmitWeight(Collect) {
		t.Error("broadcast should be costlier per byte than collect")
	}
	for _, p := range Primitives {
		if w := cfg.TransmitWeight(p); w <= 0 {
			t.Errorf("weight for %v = %g, want > 0", p, w)
		}
	}
}

func TestChargeAccumulates(t *testing.T) {
	c := New(DefaultConfig())
	c.ChargeCompute(1e9, false)
	c.ChargeCompute(1e9, true)
	c.ChargeTransmit(Broadcast, 1e6)
	c.ChargeTransmit(Shuffle, 2e6)
	s := c.Stats()
	if s.FLOP != 2e9 {
		t.Errorf("FLOP = %g, want 2e9", s.FLOP)
	}
	if s.Ops != 2 {
		t.Errorf("Ops = %d, want 2", s.Ops)
	}
	if s.BytesFor(Broadcast) != 1e6 || s.BytesFor(Shuffle) != 2e6 {
		t.Error("per-primitive bytes wrong")
	}
	if s.TotalBytes() != 3e6 {
		t.Errorf("TotalBytes = %g, want 3e6", s.TotalBytes())
	}
	if s.TotalTime() != s.ComputeTime+s.TransmitTime {
		t.Error("TotalTime mismatch")
	}
	// Local compute of the same FLOP must take longer than distributed.
	c2 := New(DefaultConfig())
	c2.ChargeCompute(1e9, false)
	distributed := c2.Stats().ComputeTime
	c2.Reset()
	c2.ChargeCompute(1e9, true)
	local := c2.Stats().ComputeTime
	if local <= distributed {
		t.Error("local compute should be slower than distributed for same FLOP")
	}
}

func TestChargeTransmitIgnoresNonPositive(t *testing.T) {
	c := New(DefaultConfig())
	c.ChargeTransmit(Collect, 0)
	c.ChargeTransmit(Collect, -5)
	if c.Stats().TotalBytes() != 0 {
		t.Error("non-positive volumes must be ignored")
	}
}

func TestReset(t *testing.T) {
	c := New(DefaultConfig())
	c.ChargeCompute(1, false)
	c.ChargeWorker(0, 100)
	c.Reset()
	s := c.Stats()
	if s.FLOP != 0 || s.TotalBytes() != 0 || s.WorkerBytes[0] != 0 {
		t.Error("Reset left residue")
	}
}

func TestWorkerBytesSnapshotIsolated(t *testing.T) {
	c := New(DefaultConfig())
	c.ChargeWorker(0, 10)
	s := c.Stats()
	s.WorkerBytes[0] = 999
	if c.Stats().WorkerBytes[0] != 10 {
		t.Error("snapshot aliases internal state")
	}
}

func TestConcurrentCharging(t *testing.T) {
	c := New(DefaultConfig())
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.ChargeCompute(1, false)
				c.ChargeTransmit(Shuffle, 1)
				c.ChargeWorker(j, 1)
			}
		}()
	}
	wg.Wait()
	s := c.Stats()
	if s.FLOP != 3200 || s.BytesFor(Shuffle) != 3200 {
		t.Fatalf("lost updates: FLOP=%g shuffle=%g", s.FLOP, s.BytesFor(Shuffle))
	}
}

func TestConcurrentChargeProfile(t *testing.T) {
	c := New(DefaultConfig())
	bytes := []float64{1, 2, 3, 4}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c.ChargeProfile(5, 0.25, 0.5, bytes)
			}
		}()
	}
	wg.Wait()
	s := c.Stats()
	const n = 16 * 200
	if s.Ops != n || s.FLOP != 5*n || s.ComputeTime != 0.25*n || s.TransmitTime != 0.5*n {
		t.Fatalf("lost profile updates: %+v", s)
	}
	for i, p := range Primitives {
		if got := s.BytesFor(p); got != bytes[i]*n {
			t.Errorf("%v bytes = %g, want %g", p, got, bytes[i]*n)
		}
	}
}

// TestConcurrentStatsAndReset hammers readers, writers and Reset together;
// the race detector validates the locking, and the final Reset must leave a
// clean slate regardless of interleaving.
func TestConcurrentStatsAndReset(t *testing.T) {
	c := New(DefaultConfig())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.ChargeCompute(1, j%2 == 0)
				c.ChargeTransmit(Broadcast, 1)
				c.ChargeProfile(1, 0.1, 0.1, []float64{1, 1, 1, 1})
				c.ChargeWorker(j%4, 1)
				s := c.Stats()
				if s.Ops < 0 || s.TotalTime() < 0 || s.TotalBytes() < 0 {
					t.Error("snapshot saw inconsistent totals")
					return
				}
				if j%25 == 0 {
					c.Reset()
				}
			}
		}()
	}
	wg.Wait()
	c.Reset()
	s := c.Stats()
	if s.Ops != 0 || s.FLOP != 0 || s.TotalBytes() != 0 || s.TotalTime() != 0 {
		t.Fatalf("Reset left residue: %+v", s)
	}
}

func TestPartitionOfBalanced(t *testing.T) {
	// The hash partition should spread a block grid near-uniformly over the
	// workers — this is what makes Fig 13's proportions land near 1/6.
	c := New(DefaultConfig())
	counts := make([]int, c.Config().Workers())
	n := 0
	for br := 0; br < 60; br++ {
		for bc := 0; bc < 10; bc++ {
			counts[c.PartitionOf(br, bc)]++
			n++
		}
	}
	want := float64(n) / float64(len(counts))
	for w, got := range counts {
		if math.Abs(float64(got)-want)/want > 0.25 {
			t.Errorf("worker %d holds %d blocks, want ~%.0f", w, got, want)
		}
	}
}

func TestPartitionOfDeterministic(t *testing.T) {
	c := New(DefaultConfig())
	f := func(br, bc uint16) bool {
		a := c.PartitionOf(int(br), int(bc))
		b := c.PartitionOf(int(br), int(bc))
		return a == b && a >= 0 && a < c.Config().Workers()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPrimitiveString(t *testing.T) {
	names := map[Primitive]string{Collect: "collect", Broadcast: "broadcast", Shuffle: "shuffle", DFS: "dfs"}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{})
}

func TestNewCheckedReturnsErrorNotPanic(t *testing.T) {
	if _, err := NewChecked(Config{}); err == nil {
		t.Fatal("invalid config accepted")
	}
	c, err := NewChecked(DefaultConfig())
	if err != nil || c == nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if c.Config().Nodes != 7 {
		t.Fatal("config not retained")
	}
}

// TestPartitionOfSpread is the satellite coverage for the hash partition:
// across several grid shapes the assignment must stay within ±20% of
// uniform for every worker.
func TestPartitionOfSpread(t *testing.T) {
	c := New(DefaultConfig())
	w := c.Config().Workers()
	shapes := []struct{ rows, cols int }{
		{48, 48}, {100, 10}, {10, 100}, {64, 32}, {1000, 1}, {1, 1000},
	}
	for _, sh := range shapes {
		counts := make([]int, w)
		for br := 0; br < sh.rows; br++ {
			for bc := 0; bc < sh.cols; bc++ {
				counts[c.PartitionOf(br, bc)]++
			}
		}
		want := float64(sh.rows*sh.cols) / float64(w)
		for wk, got := range counts {
			if math.Abs(float64(got)-want)/want > 0.20 {
				t.Errorf("grid %dx%d: worker %d holds %d blocks, want %.0f ±20%%",
					sh.rows, sh.cols, wk, got, want)
			}
		}
	}
}

func TestPartitionOfSingleWorker(t *testing.T) {
	c := New(SingleNodeConfig())
	for br := 0; br < 50; br++ {
		for bc := 0; bc < 50; bc++ {
			if p := c.PartitionOf(br, bc); p != 0 {
				t.Fatalf("single-worker partition (%d,%d) = %d, want 0", br, bc, p)
			}
		}
	}
}

func TestStatsSnapshotIsolation(t *testing.T) {
	c := New(DefaultConfig())
	c.ChargeWorker(0, 10)
	c.ChargeWorker(3, 7)
	s := c.Stats()
	// Mutating every element of the returned slice must not leak back.
	for i := range s.WorkerBytes {
		s.WorkerBytes[i] = -1
	}
	s2 := c.Stats()
	if s2.WorkerBytes[0] != 10 || s2.WorkerBytes[3%len(s2.WorkerBytes)] != 7 {
		t.Fatalf("snapshot aliases internal state: %v", s2.WorkerBytes)
	}
	// And two snapshots must not alias each other.
	s2.WorkerBytes[1] = 42
	if c.Stats().WorkerBytes[1] == 42 {
		t.Fatal("snapshots share backing storage")
	}
}

// ChargeCompute adds flop to the accumulator, timed at distributed or local
// speed.
func (c *Cluster) ChargeCompute(flop float64, local bool) {
	speed := c.cfg.ClusterFlops()
	if local {
		speed = c.cfg.LocalFlops()
	}
	c.charge(profile{flop: flop, computeSec: flop / speed, countOp: true})
}

// ChargeTransmit adds a transmission of the given volume.
func (c *Cluster) ChargeTransmit(p Primitive, bytes float64) {
	if bytes <= 0 {
		return
	}
	var prof profile
	prof.bytes[p] = bytes
	prof.transmitSec = c.cfg.TransmitWeight(p) * bytes
	c.charge(prof)
}
