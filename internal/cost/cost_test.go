package cost

import (
	"math"
	"math/rand"
	"testing"

	"remac/internal/cluster"
	"remac/internal/matrix"
	"remac/internal/sparsity"
)

func model() *Model { return NewModel(cluster.DefaultConfig(), nil) }

// Shapes mirroring the DFP workload at paper scale: A is a tall distributed
// dataset, d a vector, H a cols×cols symmetric matrix.
func dfpShapes() (a, d, h sparsity.Meta) {
	a = sparsity.MetaDims(58_400_000, 8700, 4.5e-3)
	d = sparsity.MetaDims(8700, 1, 1)
	h = sparsity.MetaDims(8700, 8700, 1)
	return
}

func TestFitsLocal(t *testing.T) {
	m := model()
	a, d, h := dfpShapes()
	if m.FitsLocal(a) {
		t.Error("a 30GB dataset must be distributed")
	}
	if !m.FitsLocal(d) {
		t.Error("a vector must fit locally")
	}
	if !m.FitsLocal(h) {
		t.Error("an 8.7K×8.7K dense matrix (~600MB) should fit locally")
	}
}

func TestMulLocalNoTransmission(t *testing.T) {
	m := model()
	_, d, h := dfpShapes()
	out, bd, local := m.Mul(h, d, true, true)
	if !local || bd.Method != LocalOp {
		t.Fatalf("local·local should run locally, got method %v", bd.Method)
	}
	if bd.TransmitSec != 0 {
		t.Fatal("local op charged transmission")
	}
	if out.Rows != 8700 || out.Cols != 1 {
		t.Fatalf("out dims %dx%d", out.Rows, out.Cols)
	}
}

func TestMulBMMForMatrixVector(t *testing.T) {
	m := model()
	a, d, _ := dfpShapes()
	out, bd, outLocal := m.Mul(a, d, false, true)
	if bd.Method != BMM {
		t.Fatalf("dist·vector should be BMM, got %v", bd.Method)
	}
	if bd.Bytes[cluster.Broadcast] <= 0 {
		t.Error("BMM must broadcast the local side")
	}
	if bd.Bytes[cluster.Shuffle] <= 0 {
		t.Error("BMM must shuffle block products")
	}
	if outLocal {
		t.Error("a 467MB result vector must stay distributed (RDD), not collect")
	}
	if out.Rows != a.Rows || out.Cols != 1 {
		t.Fatalf("out dims %dx%d", out.Rows, out.Cols)
	}
	// A genuinely small result is collected.
	small := sparsity.MetaDims(8700, 8700, 4.5e-3)
	v := sparsity.MetaDims(8700, 1, 1)
	_, bd2, local2 := m.Mul(small, v, false, true)
	if !local2 || bd2.Bytes[cluster.Collect] <= 0 {
		t.Error("small result vectors should be collected to the driver")
	}
}

func TestMulZipMMForDistVector(t *testing.T) {
	// Aᵀ (distributed) × v (fat distributed vector): co-partitioned zipmm,
	// which must not reshuffle the 30GB matrix.
	m := model()
	a, _, _ := dfpShapes()
	at := sparsity.MetaDims(a.Cols, a.Rows, a.Sparsity)
	v := sparsity.MetaDims(a.Rows, 1, 1)
	_, bd, _ := m.Mul(at, v, false, false)
	if bd.Method != ZipMM {
		t.Fatalf("dist·dist-vector should be zipmm, got %v", bd.Method)
	}
	if bd.Bytes[cluster.Shuffle] >= SizeBytes(at) {
		t.Error("zipmm must not shuffle the full matrix")
	}
}

func TestMulTSMMWhenNarrow(t *testing.T) {
	// t(A)·A with 47 columns: fused self-multiply, one pass, near-zero
	// transmission — this is what makes the LSE of AᵀA nearly free on cri1.
	m := model()
	a := sparsity.MetaDims(116_800_000, 47, 0.6)
	at := sparsity.MetaDims(47, 116_800_000, 0.6)
	out, bd, outLocal := m.MulHinted(at, a, false, false, true)
	if bd.Method != TSMM {
		t.Fatalf("narrow self-product should use TSMM, got %v", bd.Method)
	}
	if !outLocal {
		t.Error("a 47x47 result must be collected")
	}
	if out.Rows != 47 || out.Cols != 47 {
		t.Fatalf("out dims %dx%d", out.Rows, out.Cols)
	}
	// Compare with the wide case: TSMM ineligible above one block.
	wa := sparsity.MetaDims(58_400_000, 8700, 4.5e-3)
	wat := sparsity.MetaDims(8700, 58_400_000, 4.5e-3)
	_, bdWide, _ := m.MulHinted(wat, wa, false, false, true)
	if bdWide.Method == TSMM {
		t.Fatal("8.7K-column self-product must not use TSMM (output exceeds a block)")
	}
	if bdWide.Total() <= bd.Total() {
		t.Error("the wide self-product must cost far more than the narrow TSMM")
	}
}

func TestJobOverheadCharged(t *testing.T) {
	m := model()
	a, d, _ := dfpShapes()
	_, bd, _ := m.Mul(a, d, false, true)
	if bd.ComputeSec < m.Config().JobOverheadSec {
		t.Error("distributed op must include job overhead")
	}
	_, bdLocal, _ := m.Mul(d, sparsity.MetaDims(1, 1, 1), true, true)
	flopTime := bdLocal.FLOP / m.Config().LocalFlops()
	if bdLocal.ComputeSec > flopTime+1e-9 {
		t.Error("local op must not pay job overhead")
	}
}

func TestMulCPMMForLargeBothSides(t *testing.T) {
	m := model()
	a, _, _ := dfpShapes()
	at := sparsity.MetaDims(a.Cols, a.Rows, a.Sparsity)
	_, bd, _ := m.Mul(at, a, false, false)
	if bd.Method != CPMM {
		t.Fatalf("dist·dist should be CPMM, got %v", bd.Method)
	}
	if bd.Bytes[cluster.Shuffle] <= 0 || bd.Bytes[cluster.Broadcast] != 0 {
		t.Error("CPMM shuffles both sides and broadcasts nothing")
	}
}

func TestCPMMCostlierThanBMMPerByte(t *testing.T) {
	// The §2.2 motivation: switching a BMM matrix-vector pipeline to CPMM
	// matrix-matrix multiplications explodes communication. Verify the cost
	// model reproduces the ordering for the DFP shapes.
	m := model()
	a, d, _ := dfpShapes()
	// BMM chain: t(A)·(A·d) — two matrix-vector multiplications.
	outAd, bdAd, adLocal := m.Mul(a, d, false, true)
	at := sparsity.MetaDims(a.Cols, a.Rows, a.Sparsity)
	_, bdAtAd, _ := m.Mul(at, outAd, false, adLocal)
	bmmChain := bdAd.Total() + bdAtAd.Total()
	// CPMM: (t(A)·A) — one matrix-matrix multiplication producing AᵀA.
	_, bdAtA, _ := m.Mul(at, a, false, false)
	if bdAtA.Total() <= bmmChain {
		t.Fatalf("AᵀA CPMM (%g s) should cost more than the BMM vector chain (%g s)", bdAtA.Total(), bmmChain)
	}
}

func TestEWiseLocalAndDistributed(t *testing.T) {
	m := model()
	a, _, h := dfpShapes()
	_, bd, local := m.EWise(EWAdd, h, h, true, true)
	if !local || bd.TransmitSec != 0 {
		t.Error("local element-wise op should not transmit")
	}
	_, bd2, _ := m.EWise(EWAdd, a, a, false, false)
	if bd2.Method != DistEWise {
		t.Errorf("distributed ewise method = %v", bd2.Method)
	}
	if bd2.ComputeSec >= bd2.ComputeSec+bd2.TransmitSec {
		t.Error("distributed ewise should include transmission")
	}
}

func TestTransposeCosts(t *testing.T) {
	m := model()
	a, d, _ := dfpShapes()
	out, bd, local := m.Transpose(d, true)
	if !local || bd.TransmitSec != 0 {
		t.Error("local transpose should be free of transmission")
	}
	if out.Rows != 1 || out.Cols != 8700 {
		t.Fatalf("transpose dims %dx%d", out.Rows, out.Cols)
	}
	_, bd2, local2 := m.Transpose(a, false)
	if local2 {
		t.Error("distributed transpose result stays distributed")
	}
	if bd2.Bytes[cluster.Shuffle] <= 0 {
		t.Error("distributed transpose shuffles the matrix")
	}
}

func TestScale(t *testing.T) {
	m := model()
	a, d, _ := dfpShapes()
	_, bd, local := m.Scale(d, true)
	if !local || bd.FLOP != d.NNZ() {
		t.Error("local scale wrong")
	}
	_, _, local2 := m.Scale(a, false)
	if local2 {
		t.Error("distributed scale output must stay distributed")
	}
}

func TestCollectBroadcastDFS(t *testing.T) {
	m := model()
	_, _, h := dfpShapes()
	if m.Collect(h).Bytes[cluster.Collect] <= 0 {
		t.Error("collect charges collect bytes")
	}
	if m.Broadcast(h).Bytes[cluster.Broadcast] <= 0 {
		t.Error("broadcast charges broadcast bytes")
	}
	r := m.DFSRead(h)
	if r.Bytes[cluster.DFS] <= 0 || r.Bytes[cluster.Shuffle] <= 0 {
		t.Error("dfs read charges dfs + partition shuffle")
	}
}

func TestBreakdownPlusAndTotal(t *testing.T) {
	a := Breakdown{ComputeSec: 1, TransmitSec: 2, FLOP: 3}
	a.Bytes[0] = 10
	b := Breakdown{ComputeSec: 4, TransmitSec: 8, FLOP: 16}
	b.Bytes[0] = 20
	sum := a.Plus(b)
	if sum.ComputeSec != 5 || sum.TransmitSec != 10 || sum.FLOP != 19 || sum.Bytes[0] != 30 {
		t.Fatalf("Plus wrong: %+v", sum)
	}
	if sum.Total() != 15 {
		t.Fatalf("Total = %g", sum.Total())
	}
}

func TestMethodString(t *testing.T) {
	for m, want := range map[Method]string{LocalOp: "local", BMM: "BMM", CPMM: "CPMM", DistEWise: "dist-ewise", CollectOp: "collect", DFSIO: "dfs"} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", int(m), m.String())
		}
	}
}

func TestNewModelDefaults(t *testing.T) {
	m := NewModel(cluster.DefaultConfig(), nil)
	if m.Estimator().Name() != "MD" {
		t.Error("default estimator should be metadata-based like SystemDS")
	}
	if m.Config().Nodes != 7 {
		t.Error("config not retained")
	}
}

func TestSingleNodeEverythingLocal(t *testing.T) {
	// Fig 3(b): in a single-node environment with sufficient memory, even
	// the matrix-matrix eliminations run locally and win.
	m := NewModel(cluster.SingleNodeConfig(), nil)
	h := sparsity.MetaDims(8700, 8700, 1)
	_, bd, local := m.Mul(h, h, true, true)
	if !local || bd.TransmitSec != 0 {
		t.Fatal("single-node ops must be local with zero transmission")
	}
}

func TestBMMShuffleGrowsWithWideDist(t *testing.T) {
	// Equation 6: a wider distributed operand (more column blocks) raises
	// the number of partial products shuffled per row stripe.
	m := model()
	v := sparsity.MetaDims(20000, 1, 1)
	narrow := sparsity.MetaDims(5_000_000, 1000, 1)
	wide := sparsity.MetaDims(5_000_000, 20000, 1)
	narrowV := sparsity.MetaDims(1000, 1, 1)
	_, bdN, _ := m.Mul(narrow, narrowV, false, true)
	_, bdW, _ := m.Mul(wide, v, false, true)
	if bdW.Bytes[cluster.Shuffle] <= bdN.Bytes[cluster.Shuffle] {
		t.Fatalf("wide shuffle %g <= narrow shuffle %g", bdW.Bytes[cluster.Shuffle], bdN.Bytes[cluster.Shuffle])
	}
}

func TestCPMMAccumulatorPressure(t *testing.T) {
	// Wide outputs (cols² beyond the worker heap share) pay the spill
	// factor; narrow outputs do not. This drives the paper's column-count
	// correlation for the AᵀA elimination (§6.2.2).
	m := model()
	narrow := sparsity.MetaDims(5000, 104_500_000, 3.9e-3) // red2ᵀ
	narrowB := sparsity.MetaDims(104_500_000, 5000, 3.9e-3)
	wide := sparsity.MetaDims(15_000, 58_400_000, 2.6e-3) // cri3ᵀ
	wideB := sparsity.MetaDims(58_400_000, 15_000, 2.6e-3)
	_, bdNarrow, _ := m.Mul(narrow, narrowB, false, false)
	_, bdWide, _ := m.Mul(wide, wideB, false, false)
	if bdNarrow.Method != CPMM || bdWide.Method != CPMM {
		t.Fatalf("methods %v/%v", bdNarrow.Method, bdWide.Method)
	}
	// red2's input is slightly larger, so without the pressure factor its
	// CPMM would cost more; with it, the 15K-column output dominates.
	if bdWide.Total() <= bdNarrow.Total() {
		t.Fatalf("15K-col CPMM (%.0fs) should exceed 5K-col CPMM (%.0fs) via accumulator pressure",
			bdWide.Total(), bdNarrow.Total())
	}
}

func TestSingleNodeLocalSpill(t *testing.T) {
	// On the single-node profile, a local multiply whose working set
	// exceeds memory streams through disk — the Fig 3(b) mechanism.
	m := NewModel(cluster.SingleNodeConfig(), nil)
	big := sparsity.MetaDims(116_800_000, 47, 0.6) // 40.9GB > 24GB
	v := sparsity.MetaDims(47, 1, 1)
	_, bd, _ := m.Mul(big, v, m.FitsLocal(big), true)
	small := sparsity.MetaDims(8700, 8700, 1)
	_, bdSmall, _ := m.Mul(small, sparsity.MetaDims(8700, 1, 1), true, true)
	if bdSmall.Bytes[cluster.DFS] != 0 {
		t.Error("in-memory working set must not spill")
	}
	// The big operand either spills locally or runs as a distributed op on
	// the single worker; either way a pass costs far more than the small
	// one.
	if bd.Total() <= bdSmall.Total() {
		t.Errorf("40GB pass (%.1fs) should dwarf the in-memory op (%.3fs)", bd.Total(), bdSmall.Total())
	}
}

func TestSingleNodeTransmitWeightsDegenerate(t *testing.T) {
	cfg := cluster.SingleNodeConfig()
	if cfg.TransmitWeight(cluster.Shuffle) >= cluster.DefaultConfig().TransmitWeight(cluster.Shuffle) {
		t.Error("single-node shuffle should be an in-memory copy")
	}
	if cfg.TransmitWeight(cluster.DFS) <= cfg.TransmitWeight(cluster.Shuffle) {
		t.Error("single-node disk must stay costlier than memory copies")
	}
}

func TestDenseOnlyAndNoLocalMode(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.DenseOnly = true
	cfg.NoLocalMode = true
	m := NewModel(cfg, nil)
	sparse := sparsity.MetaDims(1_000_000, 1000, 1e-3)
	if m.FitsLocal(sparse) {
		t.Error("NoLocalMode must not place matrices locally")
	}
	if !m.FitsLocal(sparsity.MetaDims(1, 1, 1)) {
		t.Error("scalars stay local even without a local mode")
	}
	// Dense-only sizing: the sparse matrix is charged at dense size.
	md := NewModel(cluster.DefaultConfig(), nil)
	bdDense := m.DFSRead(sparse)
	bdSparse := md.DFSRead(sparse)
	if bdDense.Bytes[cluster.DFS] <= bdSparse.Bytes[cluster.DFS] {
		t.Error("dense-only engines must read the full dense footprint")
	}
}

// TestMulLowerBoundBelowCharge: MulLowerBound is what the chain DP prunes
// with, so it must never exceed the charge MulHinted computes — compared as
// floats, bit for bit, on generated operands that reach every branch.
func TestMulLowerBoundBelowCharge(t *testing.T) {
	dims := []int64{1, 2, 7, 32, 33, 47, 1000, 1001, 8700, 100_000, 5_000_000, 58_400_000}
	spars := []float64{1, 0.9, 0.41, 0.4, 0.05, 4.5e-3, 1e-6, 0}
	denseOnly := cluster.DefaultConfig()
	denseOnly.DenseOnly = true
	configs := []struct {
		name string
		cfg  cluster.Config
	}{{"default", cluster.DefaultConfig()}, {"single-node", cluster.SingleNodeConfig()}, {"dense-only", denseOnly}}
	seen := map[string]bool{}
	rng := rand.New(rand.NewSource(1))
	for _, c := range configs {
		m := NewModel(c.cfg, nil)
		for trial := 0; trial < 20000; trial++ {
			r, k, n := dims[rng.Intn(len(dims))], dims[rng.Intn(len(dims))], dims[rng.Intn(len(dims))]
			a := sparsity.MetaDims(r, k, spars[rng.Intn(len(spars))])
			b := sparsity.MetaDims(k, n, spars[rng.Intn(len(spars))])
			aLocal, bLocal, tsmm := rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(4) == 0
			if tsmm {
				// A transpose-self pair: b is aᵀ.
				b = sparsity.MetaDims(k, r, a.Sparsity)
			}
			_, bd, _ := m.MulHinted(a, b, aLocal, bLocal, tsmm)
			lb := m.MulLowerBound(a, b, aLocal, bLocal)
			if !(lb <= bd.Total()) {
				t.Fatalf("%s: %dx%d·%dx%d local=%t/%t tsmm=%t: bound %x above charge %x (%v)", c.name,
					a.Rows, a.Cols, b.Rows, b.Cols, aLocal, bLocal, tsmm, math.Float64bits(lb), math.Float64bits(bd.Total()), bd.Method)
			}
			branch := bd.Method.String()
			switch {
			case bd.Method == LocalOp && bd.Bytes[cluster.DFS] > 0:
				branch = "local-spill"
			case bd.Method == ZipMM && skinny(a, true) && !skinny(b, false):
				branch = "zipmm-left"
			case bd.Method == BMM && aLocal:
				branch = "bmm-left"
			case bd.Method == CPMM && float64(matrix.SizeBytesFor(int(r), int(n), 1))*float64(c.cfg.CoresPerNode) > float64(c.cfg.DriverMemory)/6:
				branch = "cpmm-pressure"
			}
			seen[branch] = true
			if bd.Method != LocalOp && bd.Bytes[cluster.DFS] > 0 {
				seen[c.name+"/disk-backed"] = true
			}
			seen[c.name] = true
		}
	}
	for _, want := range []string{"local", "local-spill", "TSMM", "zipmm", "zipmm-left", "BMM", "bmm-left", "CPMM",
		"cpmm-pressure", "single-node/disk-backed", "dense-only"} {
		if !seen[want] {
			t.Errorf("no generated operands reached %s", want)
		}
	}
}

// Collect returns the cost of pulling a distributed value into the driver.
func (m *Model) Collect(a sparsity.Meta) Breakdown {
	bd := m.transmit(cluster.Collect, m.bytesOf(a))
	bd.Method = CollectOp
	return bd
}

// Broadcast returns the cost of pushing a local value to every executor.
func (m *Model) Broadcast(a sparsity.Meta) Breakdown {
	bd := m.transmit(cluster.Broadcast, m.bytesOf(a))
	bd.Method = BMM
	return bd
}
