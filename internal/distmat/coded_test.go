package distmat

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"remac/internal/cluster"
	"remac/internal/fault"
	"remac/internal/matrix"
)

// codedCtx builds a traced, coded context with a clock-silent fault plan
// so tests inject failures directly through the observer path.
func codedCtx(k, n int) *Context {
	c := faultCtx(fault.Event{At: 1e18, Kind: fault.WorkerFailure})
	c.EnableCoded(k, n)
	return c
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

// TestCodedDecodeRecoversWithoutRecompute: erasing one data group of a
// derived value decodes it from parity — zero RecomputeFLOP, DecodeSec
// charged, a recovery/coded-decode span with FLOP 0 — and the value keeps
// its matrix, bit for bit.
func TestCodedDecodeRecoversWithoutRecompute(t *testing.T) {
	c := codedCtx(4, 6)
	rng := rand.New(rand.NewSource(41))
	a := scaledDataset(c, rng)
	b := a.Scale(2).Retain()
	if b.parity == nil {
		t.Fatal("derived value must carry parity")
	}
	m := b.Data()
	want := cellsOf(m)

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
		if sp.RecoverySec <= 0 {
			t.Fatal("decode span must carry the decode seconds")
		}
	}
	if !found {
		t.Fatal("decode must record a recovery/coded-decode span")
	}
	if b.Data() != m {
		t.Fatal("a decode replaced the value's matrix")
	}
	requireCells(t, "decoded value", b.Data(), want)

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
	b := a.Scale(2).Retain()
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
	b := a.Scale(2).Retain()
	for i := 0; i < 20; i++ {
		b = b.Add(a).Retain()
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

// TestCodedErasureVerdicts: for each code, every erasure pattern of at most
// p data groups either decodes — one coded recovery, nothing recomputed, the
// value's matrix untouched — or falls back to lineage. The table was
// recorded from the implementation that rebuilt the erased cells from
// parity: a pattern is listed by its groups, then D (decodes) or L (lineage).
func TestCodedErasureVerdicts(t *testing.T) {
	for _, tc := range []struct {
		k, n     int
		verdicts string
	}{
		{2, 3, "0D 1D"},
		{4, 6, "0D 1D 01D 2D 02D 12D 3D 03D 13D 23D"},
		{4, 7, "0D 1D 01D 2D 02D 12D 012D 3D 03D 13D 013D 23L 023L 123L"},
		{4, 8, "0D 1D 01D 2D 02D 12D 012D 3D 03D 13D 013D 23D 023D 123D 0123D"},
	} {
		var got []string
		for mask := 1; mask < 1<<tc.k; mask++ {
			var erased []int
			pattern := ""
			for g := 0; g < tc.k; g++ {
				if mask&(1<<g) != 0 {
					erased = append(erased, g)
					pattern += strconv.Itoa(g)
				}
			}
			if len(erased) > tc.n-tc.k {
				continue
			}
			c := codedCtx(tc.k, tc.n)
			a := Read(c, matrix.RandSparse(rand.New(rand.NewSource(int64(mask))), 40, 20, 0.2), 50_000_000, 8000)
			b := a.Scale(2).Retain()
			m := b.Data()
			want := cellsOf(m)
			w := c.Cluster.Config().Workers()
			for _, g := range erased {
				c.onFault(cluster.FaultCharge{Event: fault.Event{
					Kind: fault.WorkerFailure, Worker: (b.parity.home + g) % w}})
			}
			b.Sum()
			switch s := c.Cluster.Stats(); {
			case s.CodedRecoveries == 1 && s.RecomputeFLOP == 0:
				got = append(got, pattern+"D")
			case s.CodedRecoveries == 0 && s.RecomputeFLOP > 0:
				got = append(got, pattern+"L")
			default:
				t.Fatalf("(%d,%d) pattern %s: %d decodes, %g FLOP recomputed", tc.k, tc.n, pattern, s.CodedRecoveries, s.RecomputeFLOP)
			}
			if b.Data() != m {
				t.Fatalf("(%d,%d) pattern %s: recovery replaced the value's matrix", tc.k, tc.n, pattern)
			}
			requireCells(t, "recovered value", m, want)
		}
		if s := strings.Join(got, " "); s != tc.verdicts {
			t.Errorf("(%d,%d) verdicts\n got %s\nwant %s", tc.k, tc.n, s, tc.verdicts)
		}
	}
}

// TestCodedParityCountMatchesANumericEncode: the parity nonzero count the
// encode charges for equals the count of parity blocks built numerically —
// each cell the coefficient-weighted sum of its support groups' cells — on
// dense and CSR data, with NaN and ±Inf cells, and a short last group.
func TestCodedParityCountMatchesANumericEncode(t *testing.T) {
	const rows, cols = 37, 11
	rng := rand.New(rand.NewSource(48))
	cells := make([]float64, rows*cols)
	for i := range cells {
		if rng.Float64() < 0.15 {
			cells[i] = rng.NormFloat64()
		}
	}
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Inf(1), math.NaN()} {
		cells[(i*97+13)%len(cells)] = v
	}
	cells[5] = math.Inf(1) // for k = 4, against -Inf in group 1: the sum is NaN
	cells[10*cols+5] = math.Inf(-1)
	dense := matrix.NewDenseData(rows, cols, cells)
	for _, m := range []*matrix.Matrix{dense, dense.ToCSR()} {
		for _, kn := range [][2]int{{2, 3}, {4, 6}, {4, 7}, {4, 8}} {
			k, p := kn[0], kn[1]-kn[0]
			supports, coeffs, _ := codedLayout(k, p)
			cp := &codedParity{k: k, p: p, groupRows: (rows + k - 1) / k, supports: supports, coeffs: coeffs}
			want := 0
			for j := 0; j < p; j++ {
				block := make([]float64, cp.groupRows*cols)
				for i := 0; i < rows; i++ {
					g := cp.groupOf(i)
					for col := 0; col < cols; col++ {
						if c, v := cp.coeffOf(j, g), m.At(i, col); c != 0 && v != 0 {
							block[(i-g*cp.groupRows)*cols+col] += float64(c * v)
						}
					}
				}
				want += matrix.NewDenseData(cp.groupRows, cols, block).Compact().NNZ()
			}
			if got := cp.parityNNZ(m); got != want {
				t.Errorf("%v (%d,%d): parity count %d, numeric encode %d", m.Format(), k, kn[1], got, want)
			}
		}
	}
}
