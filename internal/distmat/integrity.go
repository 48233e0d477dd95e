package distmat

import (
	"remac/internal/cluster"
	"remac/internal/cost"
	"remac/internal/fault"
	"remac/internal/integrity"
	"remac/internal/matrix"
	"remac/internal/sparsity"
)

// This file is the integrity settlement layer: after every charged operator,
// the context (a) charges the always-on verification work the enabled mode
// performs (digesting transmitted payloads, propagating ABFT checksum
// vectors through distributed multiplies), (b) settles the corruption events
// the fault injector fired inside the operator's charge window against the
// operator's actual payload, and (c) runs the per-op non-finite guard.
//
// Settlement is honest rather than declarative: a landed corruption really
// flips a bit in a copy of the payload (integrity.Corrupt), and detection
// really recomputes the digest or the ABFT identity against the damaged
// copy. A detected corruption is repaired like a block lost to a worker
// failure — a lineage re-run of the corrupt block's share of its producer,
// charged to the simulated clock — and the clean payload is kept, so
// repaired results are bitwise identical to a fault-free run. An undetected
// corruption replaces the payload with the damaged copy and propagates.

// maxRepairAttempts bounds lineage repair of one corrupted block. A flip in
// flight is gone after one re-run; a flip at rest under a DFS read re-reads
// the same bad bytes every attempt, so the budget exhausts and the run
// fails with a typed integrity error.
const maxRepairAttempts = 3

// IntegrityErr returns the first unrecoverable integrity or numeric error
// the settlement layer recorded, or nil. The engine polls it between
// evaluations so a poisoned run stops instead of returning success.
func (ctx *Context) IntegrityErr() error { return ctx.intErr }

// mulOperands carries a distributed multiply's inputs into settlement so
// ABFT can validate the checksum identity of c = a·b.
type mulOperands struct {
	a, b *matrix.Matrix
}

// settle completes one charged operator under the integrity layer and
// returns the operator's (possibly corrupted) payload. Every charge site in
// this package calls it immediately after apply.
func (ctx *Context) settle(kind, label string, bd cost.Breakdown, outMeta sparsity.Meta, data *matrix.Matrix, mul *mulOperands) *matrix.Matrix {
	if ctx.Verify >= integrity.VerifyDigest {
		if sec := digestSec(bd, ctx.Cluster.Config().Workers()); sec > 0 {
			ctx.chargeVerify("integrity/digest-verify", 0, sec)
		}
	}
	if ctx.Verify == integrity.VerifyABFT && mul != nil && !bd.Local {
		flop := abftFlop(bd, outMeta)
		ctx.chargeVerify("integrity/abft-verify", flop, flop/ctx.Cluster.Config().ClusterFlops())
	}
	// The verification charges above may themselves advance the injector,
	// so drain pending only after them. Repairs never re-inject
	// (ChargeRecovery bypasses the injector), so this loop terminates.
	for len(ctx.pending) > 0 {
		ev := ctx.pending[0]
		ctx.pending = ctx.pending[1:]
		data = ctx.settleEvent(ev, kind, label, bd, outMeta, data, mul)
	}
	if ctx.NaNGuard == integrity.GuardPerOp && data != nil {
		ctx.guardScan(label, outMeta, data, bd.Local)
	}
	return data
}

// digestSec models the cost of digesting an operator's transmitted payload:
// data landing at the driver (collect, and the broadcast source) is hashed
// by the driver alone, while shuffle and DFS payloads are hashed by all
// workers in parallel.
func digestSec(bd cost.Breakdown, workers int) float64 {
	driver := bd.Bytes[cluster.Collect] + bd.Bytes[cluster.Broadcast]
	spread := bd.Bytes[cluster.Shuffle] + bd.Bytes[cluster.DFS]
	if workers < 1 {
		workers = 1
	}
	return driver/integrity.DigestBandwidth + spread/(integrity.DigestBandwidth*float64(workers))
}

// abftFlop models maintaining the checksum row through a distributed
// multiply: one extra row of the product (1/m of its FLOP) plus column-sum
// passes over the operands and output of the same order.
func abftFlop(bd cost.Breakdown, outMeta sparsity.Meta) float64 {
	m := float64(outMeta.Rows)
	if m < 1 {
		m = 1
	}
	return 4 * bd.FLOP / m
}

// chargeVerify books verification work as a charged integrity operator:
// a trace span plus a cluster charge (stats-equals-spans holds) and a
// VerifySec attribution.
func (ctx *Context) chargeVerify(label string, flop, sec float64) {
	ctx.apply("integrity", label, cost.Breakdown{FLOP: flop, ComputeSec: sec}, nil, nil, 0)
	ctx.Cluster.AddIntegrity(cluster.IntegrityCharge{VerifySec: sec})
}

// blocksOf counts the virtual block grid cells of a value — the granularity
// at which one corruption damages, and one repair rebuilds, a payload.
func blocksOf(meta sparsity.Meta, blockSize int) float64 {
	bs := int64(blockSize)
	if bs < 1 {
		bs = 1
	}
	br := (meta.Rows + bs - 1) / bs
	bc := (meta.Cols + bs - 1) / bs
	if br < 1 {
		br = 1
	}
	if bc < 1 {
		bc = 1
	}
	return float64(br * bc)
}

// settleEvent resolves one corruption event against the operator whose
// charge window it fired in, returning the payload to keep.
func (ctx *Context) settleEvent(ev fault.Event, kind, label string, bd cost.Breakdown, outMeta sparsity.Meta, data *matrix.Matrix, mul *mulOperands) *matrix.Matrix {
	inert := func() *matrix.Matrix {
		ctx.recordFault("fault", "fault/corruption-inert", 0, 0, [4]float64{})
		return data
	}
	transit := 0.0
	for _, b := range bd.Bytes {
		transit += b
	}
	isMul := mul != nil && !bd.Local
	// Decide where the flip landed. Only payloads in flight (bytes on the
	// wire or under DFS) and distributed multiply compute phases are
	// vulnerable; driver-local memory is ECC-protected, so everything else
	// is inert.
	var landCompute bool
	switch {
	case isMul && transit > 0:
		p := 0.5
		if t := bd.ComputeSec + bd.TransmitSec; t > 0 {
			p = bd.ComputeSec / t
		}
		landCompute = float64(ev.Bits&0xFFFFF)/float64(1<<20) < p
	case isMul:
		landCompute = true
	case transit > 0:
		landCompute = false
	default:
		return inert()
	}
	if data == nil {
		return inert()
	}
	corrupted, ok := integrity.Corrupt(data, ev.Bits)
	if !ok {
		return inert() // all-zero payload: nothing to damage
	}

	// Honest detection against the damaged copy. Digests cover payloads in
	// flight; a flip inside the multiply's compute phase happens before the
	// output digest exists, so only ABFT's checksum identity can catch it.
	detected, via := false, ""
	if landCompute {
		if ctx.Verify == integrity.VerifyABFT && !integrity.ABFTCheck(mul.a, mul.b, corrupted) {
			detected, via = true, "abft"
		}
	} else if ctx.Verify >= integrity.VerifyDigest && integrity.Digest(corrupted) != integrity.Digest(data) {
		detected, via = true, "digest"
	}
	ctx.recordFault("fault", "fault/corruption", 0, 0, [4]float64{})
	if !detected {
		ctx.Cluster.AddIntegrity(cluster.IntegrityCharge{Injected: 1})
		ctx.escaped = true
		return corrupted
	}

	// Repair: the corrupt block is a lost partition of its producer, so one
	// attempt re-runs the block's share of the producing operator (for DFS
	// reads, a re-read of that block). At-rest corruption under a DFS read
	// re-reads the same bad bytes, so every attempt fails and the bounded
	// budget exhausts into a typed error.
	frac := 1 / blocksOf(outMeta, ctx.Cluster.Config().BlockSize)
	attempts := 1
	sticky := kind == "dfs-read" && ev.Bits%64 == 63
	if sticky {
		attempts = maxRepairAttempts
	}
	scale := frac * float64(attempts)
	var bytes [4]float64
	for i := range bytes {
		bytes[i] = bd.Bytes[i] * scale
	}
	flop := bd.FLOP * scale
	sec := bd.Total() * scale
	ctx.Cluster.ChargeRecovery(flop, sec, bytes)
	ctx.recordFault("recovery", "recovery/integrity-"+via, sec, flop, bytes)
	ic := cluster.IntegrityCharge{Injected: 1, Repairs: attempts, RepairSec: sec}
	if via == "digest" {
		ic.ByDigest = 1
	} else {
		ic.ByABFT = 1
	}
	ctx.Cluster.AddIntegrity(ic)
	if sticky && ctx.intErr == nil {
		ctx.intErr = &integrity.Error{Op: label, Via: via, Attempts: attempts}
	}
	return data // repaired: the clean payload is kept, bit for bit
}

// guardScan runs the non-finite scan over a value: the pass is charged as an
// integrity operator and the first NaN/Inf found becomes a typed numeric
// error on the context.
func (ctx *Context) guardScan(label string, meta sparsity.Meta, data *matrix.Matrix, local bool) {
	w := 1.0
	if !local {
		w = float64(ctx.Cluster.Config().Workers())
	}
	sec := cost.SizeBytes(meta) / (integrity.ScanBandwidth * w)
	ctx.apply("integrity", "integrity/nan-scan", cost.Breakdown{ComputeSec: sec, Local: local}, nil, nil, 0)
	ctx.Cluster.AddIntegrity(cluster.IntegrityCharge{VerifySec: sec})
	if ctx.intErr != nil {
		return
	}
	if i, j, v, found := integrity.ScanNonFinite(data); found {
		ctx.intErr = &integrity.NumericError{Op: label, Row: i, Col: j, Value: v}
	}
}

// GuardValue scans one bound value at iteration end (GuardPerIteration); the
// engine calls it for every loop variable after each iteration.
func (d *DistMatrix) GuardValue(name string) {
	d.ctx.guardScan("iteration/"+name, d.vMeta, d.force(), d.local)
}
