package distmat

import (
	"math"
	"math/rand"
	"testing"

	"remac/internal/cluster"
	"remac/internal/fault"
)

// codedCtx builds a traced, coded context with a clock-silent fault plan
// so tests inject failures directly through the observer path.
func codedCtx(k, n int) *Context {
	c := faultCtx(fault.Event{At: 1e18, Kind: fault.WorkerFailure})
	c.EnableCoded(k, n)
	return c
}

// maxRelDiff measures the largest entry difference between two matrices of
// equal shape, relative to the largest entry magnitude of want.
func maxRelDiff(t *testing.T, d *DistMatrix, want [][]float64) float64 {
	t.Helper()
	got := d.Data()
	var maxDiff, maxAbs float64
	for i := range want {
		for j := range want[i] {
			if diff := math.Abs(got.At(i, j) - want[i][j]); diff > maxDiff {
				maxDiff = diff
			}
			if a := math.Abs(want[i][j]); a > maxAbs {
				maxAbs = a
			}
		}
	}
	if maxAbs == 0 {
		return maxDiff
	}
	return maxDiff / maxAbs
}

func snapshot(d *DistMatrix) [][]float64 {
	m := d.Data()
	rows, cols := m.Rows(), m.Cols()
	out := make([][]float64, rows)
	for i := 0; i < rows; i++ {
		out[i] = make([]float64, cols)
		for j := 0; j < cols; j++ {
			out[i][j] = m.At(i, j)
		}
	}
	return out
}

// TestCodedEncodeChargedHonestly: producing a distributed value under the
// coded policy charges the parity encode — 2·w·p·nnz/k virtual FLOP, the
// DFS parity write — and records it as an encode/parity span whose Out
// shape carries the measured parity sparsity.
func TestCodedEncodeChargedHonestly(t *testing.T) {
	c := codedCtx(4, 6)
	rng := rand.New(rand.NewSource(40))
	a := scaledDataset(c, rng)
	if a.parity == nil {
		t.Fatal("coded context must encode parity for a distributed input")
	}
	const k, p, w = 4, 2, 3 // w = k-p+1 for the default 4-of-6 code
	if a.parity.weight != w {
		t.Fatalf("support width = %d, want %d", a.parity.weight, w)
	}
	wantFLOP := 2 * float64(w) * float64(p) * a.Meta().NNZ() / float64(k)
	s := c.Cluster.Stats()
	if math.Abs(s.EncodeFLOP-wantFLOP) > 1e-6*wantFLOP {
		t.Fatalf("EncodeFLOP = %g, want %g", s.EncodeFLOP, wantFLOP)
	}

	var spanFLOP, spanDFS float64
	var out float64
	found := 0
	for _, sp := range c.Recorder.Spans() {
		if sp.Label != "encode/parity" {
			continue
		}
		found++
		spanFLOP += sp.FLOP
		spanDFS += sp.Bytes["dfs"]
		if sp.Out != nil {
			out = sp.Out.Sparsity
		}
	}
	if found != 1 {
		t.Fatalf("found %d encode/parity spans, want 1", found)
	}
	if math.Abs(spanFLOP-s.EncodeFLOP) > 1e-6 {
		t.Fatalf("encode span FLOP %g != stats EncodeFLOP %g", spanFLOP, s.EncodeFLOP)
	}
	if spanDFS <= 0 {
		t.Fatal("encode span must charge the DFS parity write")
	}
	if out <= 0 || out > 1 {
		t.Fatalf("encode span parity sparsity = %g, want (0,1]", out)
	}
}

// TestCodedEncodeStopsOnceAbandoned: a run that is abandoned encodes no
// more parity. The value it was producing stays uncoded and nothing is
// charged for an encode that did not happen.
func TestCodedEncodeStopsOnceAbandoned(t *testing.T) {
	c := codedCtx(4, 6)
	done := make(chan struct{})
	close(done)
	c.Done = done
	a := scaledDataset(c, rand.New(rand.NewSource(40)))
	if a.parity != nil {
		t.Fatal("an abandoned run encoded parity")
	}
	if s := c.Cluster.Stats(); s.EncodeFLOP != 0 {
		t.Fatalf("EncodeFLOP = %g for an encode that stopped", s.EncodeFLOP)
	}
}

// TestCodedDecodeRecoversWithoutRecompute: erasing one data group of a
// derived value decodes it from parity — zero RecomputeFLOP, DecodeSec
// charged, a recovery/coded-decode span with FLOP 0 and a bounded RelErr —
// and the reconstructed entries match the originals to 1e-9 relative.
func TestCodedDecodeRecoversWithoutRecompute(t *testing.T) {
	c := codedCtx(4, 6)
	rng := rand.New(rand.NewSource(41))
	a := scaledDataset(c, rng)
	b := a.Scale(2)
	if b.parity == nil {
		t.Fatal("derived value must carry parity")
	}
	want := snapshot(b)

	w := c.Cluster.Config().Workers()
	c.onFault(cluster.FaultCharge{Event: fault.Event{
		Kind: fault.WorkerFailure, Worker: (b.parity.home + 1) % w}})
	b.Sum()

	s := c.Cluster.Stats()
	if s.RecomputeFLOP != 0 {
		t.Fatalf("coded decode must not recompute: RecomputeFLOP = %g", s.RecomputeFLOP)
	}
	if s.CodedRecoveries == 0 || s.DecodeSec <= 0 {
		t.Fatalf("decode must be charged: recoveries=%d decodeSec=%g", s.CodedRecoveries, s.DecodeSec)
	}
	if math.Abs(s.RecoverySec-s.DecodeSec) > 1e-9 {
		t.Fatalf("RecoverySec %g != DecodeSec %g: decode is the only recovery here", s.RecoverySec, s.DecodeSec)
	}

	found := false
	for _, sp := range c.Recorder.Spans() {
		if sp.Label != "recovery/coded-decode" {
			continue
		}
		found = true
		if sp.FLOP != 0 {
			t.Fatalf("decode span FLOP = %g, must be 0 (decode is not recomputation)", sp.FLOP)
		}
		if sp.RelErr > 1e-9 {
			t.Fatalf("decode span RelErr = %g, want <= 1e-9", sp.RelErr)
		}
		if sp.RecoverySec <= 0 {
			t.Fatal("decode span must carry the decode seconds")
		}
	}
	if !found {
		t.Fatal("decode must record a recovery/coded-decode span")
	}
	if rel := maxRelDiff(t, b, want); rel > 1e-9 {
		t.Fatalf("decoded value deviates by %g relative, want <= 1e-9", rel)
	}

	// A second use must not decode again.
	before := s.CodedRecoveries
	b.Sum()
	if after := c.Cluster.Stats(); after.CodedRecoveries != before {
		t.Fatal("decode ran twice for one failure")
	}
}

// TestCodedSurvivorsStayBitwise: a failure on a worker that hosts none of
// the value's data groups charges nothing and leaves the materialized
// sample untouched — byte for byte the same object.
func TestCodedSurvivorsStayBitwise(t *testing.T) {
	c := codedCtx(4, 6)
	rng := rand.New(rand.NewSource(42))
	a := scaledDataset(c, rng)
	b := a.Scale(2)
	before := b.Data()
	w := c.Cluster.Config().Workers() // 6 workers, 4 groups: home+4 hosts none
	c.onFault(cluster.FaultCharge{Event: fault.Event{
		Kind: fault.WorkerFailure, Worker: (b.parity.home + 4) % w}})
	b.Sum()
	s := c.Cluster.Stats()
	if s.RecoverySec != 0 || s.RecomputeFLOP != 0 || s.CodedRecoveries != 0 {
		t.Fatalf("no group erased, nothing to recover: %+v", s)
	}
	if b.Data() != before {
		t.Fatal("untouched value must stay the identical (bitwise) matrix")
	}
}

// TestCodedUnrecoverableFallsBackToLineage: erasing more groups than the
// parity can cover recomputes the erased fraction from lineage with the
// recompute FLOP reported honestly.
func TestCodedUnrecoverableFallsBackToLineage(t *testing.T) {
	c := codedCtx(4, 6)
	rng := rand.New(rand.NewSource(43))
	a := scaledDataset(c, rng)
	b := a.Scale(2)
	prod := b.prod
	w := c.Cluster.Config().Workers()
	for g := 0; g < 3; g++ { // 3 erasures > p=2
		c.onFault(cluster.FaultCharge{Event: fault.Event{
			Kind: fault.WorkerFailure, Worker: (b.parity.home + g) % w}})
	}
	b.Sum()
	s := c.Cluster.Stats()
	lost := 3.0 / 4.0
	if want := prod.FLOP * lost; math.Abs(s.RecomputeFLOP-want) > 1e-6*want {
		t.Fatalf("RecomputeFLOP = %g, want %g (erased fraction of producer)", s.RecomputeFLOP, want)
	}
	if s.CodedRecoveries != 0 {
		t.Fatal("an unrecoverable pattern must not count as a coded recovery")
	}
	found := false
	for _, sp := range c.Recorder.Spans() {
		if sp.Label == "recovery/lineage" {
			found = true
		}
	}
	if !found {
		t.Fatal("fallback must record a recovery/lineage span")
	}
}

// TestCodedStatsEqualsSpans extends the stats-equals-spans invariant to
// coded runs under heavy fault rates: recovery seconds, recompute FLOP and
// bytes must match between the cluster stats and the recorded spans, the
// decode seconds must equal the recovery/coded-decode spans' total, and
// the encode FLOP must equal the encode/parity spans' total.
func TestCodedStatsEqualsSpans(t *testing.T) {
	c := tracedCtx()
	c.EnableCoded(4, 6)
	c.EnableFaults(fault.NewPlan(fault.Config{
		Seed:                  7,
		WorkerFailuresPerHour: 600,
		TransmitErrorsPerHour: 1200,
		StragglersPerHour:     600,
		Workers:               c.Cluster.Config().Workers(),
	}))
	rng := rand.New(rand.NewSource(44))
	a := scaledDataset(c, rng)
	b := a.Scale(2)
	for i := 0; i < 20; i++ {
		b = b.Add(a)
		b.Sum()
	}

	s := c.Cluster.Stats()
	if s.FailedWorkers == 0 || s.Retries == 0 {
		t.Fatalf("rates this high must fire failures and retries: %+v", s)
	}
	if s.CodedRecoveries == 0 || s.EncodeFLOP == 0 {
		t.Fatalf("a coded run this long must encode and decode: %+v", s)
	}
	sum := c.Recorder.Summary()
	if math.Abs(sum.RecoverySec-s.RecoverySec) > 1e-9*(1+s.RecoverySec) {
		t.Errorf("span RecoverySec %g != stats %g", sum.RecoverySec, s.RecoverySec)
	}
	if math.Abs(sum.RecomputeFLOP-s.RecomputeFLOP) > 1e-6 {
		t.Errorf("span RecomputeFLOP %g != stats %g", sum.RecomputeFLOP, s.RecomputeFLOP)
	}
	var spanBytes, decodeSec, encodeFLOP float64
	for _, sp := range c.Recorder.Spans() {
		for _, v := range sp.Bytes {
			spanBytes += v
		}
		switch sp.Label {
		case "recovery/coded-decode":
			decodeSec += sp.RecoverySec
		case "encode/parity":
			encodeFLOP += sp.FLOP
		}
	}
	if math.Abs(spanBytes-s.TotalBytes()) > 1e-6*(1+s.TotalBytes()) {
		t.Errorf("span bytes %g != stats bytes %g", spanBytes, s.TotalBytes())
	}
	if math.Abs(decodeSec-s.DecodeSec) > 1e-9*(1+s.DecodeSec) {
		t.Errorf("decode span seconds %g != stats DecodeSec %g", decodeSec, s.DecodeSec)
	}
	if math.Abs(encodeFLOP-s.EncodeFLOP) > 1e-6 {
		t.Errorf("encode span FLOP %g != stats EncodeFLOP %g", encodeFLOP, s.EncodeFLOP)
	}
}
