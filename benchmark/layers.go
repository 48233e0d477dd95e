package main

import (
	"math/rand"
	"sort"
	"time"

	"remac/internal/data"
	"remac/internal/integrity"
	"remac/internal/lang"
	"remac/internal/matrix"
	"remac/internal/serve"
	"remac/internal/sparsity"
)

// metricDef declares one metric: its name, unit and which direction is
// better. exact marks counts that repeat bit-for-bit for one seed on the
// workloads that run one client.
type metricDef struct {
	name, unit, better string
	exact              bool
}

// endToEndDefs are the metrics a user of the program sees. Every workload
// reports every one of them.
var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "throughput_qps", unit: "ops/s", better: "higher"},
	{name: "latency_ms_p50", unit: "ms", better: "lower"},
	{name: "latency_ms_p75", unit: "ms", better: "lower"},
	{name: "alloc_mb_per_op", unit: "MB", better: "lower"},
	{name: "sim_exec_s", unit: "s", better: "lower"},
}

// layerDefs are the per-layer metrics of the traced pass, named
// <module>.<what>. A layer a workload does not call reports 0.
var layerDefs = []metricDef{
	{name: "lang.parse_us", unit: "us", better: "lower"},
	{name: "lang.canonical_us", unit: "us", better: "lower"},
	{name: "sparsity.metaof_ms", unit: "ms", better: "lower"},
	{name: "sparsity.mnc_mul_us", unit: "us", better: "lower"},
	{name: "sparsity.mnc_add_us", unit: "us", better: "lower"},
	{name: "opt.compile_ms", unit: "ms", better: "lower"},
	{name: "opt.frontend_ms", unit: "ms", better: "lower"},
	{name: "search.blockwise_ms", unit: "ms", better: "lower"},
	{name: "costgraph.plan_ms", unit: "ms", better: "lower"},
	{name: "search.options_found", unit: "count", better: "higher", exact: true},
	{name: "costgraph.options_selected", unit: "count", better: "higher", exact: true},
	{name: "costgraph.modelled_cost_s", unit: "s", better: "lower", exact: true},
	{name: "cost.fidelity_x", unit: "x", better: "lower", exact: true},
	{name: "engine.run_ms", unit: "ms", better: "lower"},
	{name: "engine.iterations", unit: "count", better: "lower", exact: true},
	{name: "engine.ops", unit: "count", better: "lower", exact: true},
	{name: "engine.flop_g", unit: "GFLOP", better: "lower", exact: true},
	{name: "engine.recorder_overhead_pct", unit: "%", better: "lower"},
	{name: "cluster.compute_s", unit: "s", better: "lower", exact: true},
	{name: "cluster.transmit_s", unit: "s", better: "lower", exact: true},
	{name: "cluster.bytes_collect_gb", unit: "GB", better: "lower", exact: true},
	{name: "cluster.bytes_broadcast_gb", unit: "GB", better: "lower", exact: true},
	{name: "cluster.bytes_shuffle_gb", unit: "GB", better: "lower", exact: true},
	{name: "cluster.bytes_dfs_gb", unit: "GB", better: "lower", exact: true},
	{name: "cluster.sim_speedup_x", unit: "x", better: "higher", exact: true},
	{name: "matrix.mul_dd_ms", unit: "ms", better: "lower"},
	{name: "matrix.mul_dd_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "matrix.mul_dv_us", unit: "us", better: "lower"},
	{name: "matrix.mul_csr_d_ms", unit: "ms", better: "lower"},
	{name: "matrix.mul_csr_d_zipf_ms", unit: "ms", better: "lower"},
	{name: "matrix.mul_csr_v_us", unit: "us", better: "lower"},
	{name: "matrix.mul_d_csr_ms", unit: "ms", better: "lower"},
	{name: "matrix.mul_csr_csr_ms", unit: "ms", better: "lower"},
	{name: "matrix.transpose_csr_us", unit: "us", better: "lower"},
	{name: "matrix.transpose_d_ms", unit: "ms", better: "lower"},
	{name: "matrix.ewise_d_ms", unit: "ms", better: "lower"},
	{name: "matrix.scale_d_ms", unit: "ms", better: "lower"},
	{name: "matrix.clone_d_ms", unit: "ms", better: "lower"},
	{name: "matrix.bytes_moved_mb", unit: "MB", better: "lower", exact: true},
	{name: "integrity.digest_ms", unit: "ms", better: "lower"},
	{name: "serve.hash_ms", unit: "ms", better: "lower"},
	{name: "serve.do_ms", unit: "ms", better: "lower"},
	{name: "serve.body_ms", unit: "ms", better: "lower"},
	{name: "serve.plan_ms", unit: "ms", better: "lower"},
	{name: "serve.overhead_ms", unit: "ms", better: "lower"},
	{name: "serve.plan_hit_rate", unit: "share", better: "higher"},
	{name: "serve.inter_hit_rate", unit: "share", better: "higher"},
	{name: "serve.inter_misses", unit: "count", better: "lower"},
	{name: "serve.plan_entries", unit: "count", better: "lower"},
	{name: "serve.mqo_shared_hits", unit: "count", better: "higher"},
	{name: "serve.mqo_batched", unit: "count", better: "higher"},
	{name: "serve.flop_charged_g", unit: "GFLOP", better: "lower"},
	{name: "serve.rejected", unit: "count", better: "lower"},
	{name: "serve.retries", unit: "count", better: "lower"},
	{name: "httpapi.decode_us", unit: "us", better: "lower"},
	{name: "httpapi.build_ms", unit: "ms", better: "lower"},
	{name: "httpapi.encode_us", unit: "us", better: "lower"},
	{name: "gateway.do_ms", unit: "ms", better: "lower"},
	{name: "gateway.overhead_ms", unit: "ms", better: "lower"},
	{name: "gateway.wire_attempts", unit: "count", better: "lower"},
	{name: "gateway.wire_retries", unit: "count", better: "lower"},
	{name: "gateway.replays", unit: "count", better: "lower"},
	{name: "gateway.spilled", unit: "count", better: "lower"},
	{name: "gateway.failed_over", unit: "count", better: "lower"},
	{name: "gateway.quota_rejected", unit: "count", better: "lower"},
	{name: "gateway.audit_dropped", unit: "count", better: "lower"},
	{name: "gateway.shard_share_max", unit: "share", better: "lower"},
	{name: "gateway.invalidate_ms", unit: "ms", better: "lower"},
	{name: "gateway.invalidations_lagged", unit: "count", better: "lower"},
	{name: "runtime.cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "runtime.mallocs_per_op", unit: "count", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "runtime.heap_inuse_peak_mb", unit: "MB", better: "lower"},
	{name: "bench.machine_speed_x", unit: "x", better: "higher"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "bench.generator_late_ms_p90", unit: "ms", better: "lower"},
	{name: "bench.slo_ok_share", unit: "share", better: "higher"},
	{name: "bench.backlog_end", unit: "count", better: "lower"},
}

// sloLimit is the latency within which a due request must be answered
// correctly to count toward bench.slo_ok_share.
const sloLimit = 500 * time.Millisecond

// maxGeneratorLate is the open-loop send lateness (p90) above which the
// run's numbers are not valid.
const maxGeneratorLate = 5 * time.Millisecond

// good returns the samples of a window that answered correctly, split into
// queries (by kind) and writes.
func good(in *instance, w *window) (queries [][]sample, writes []sample) {
	queries = make([][]sample, len(in.kinds))
	for _, s := range w.samples {
		if s.err != nil {
			continue
		}
		if k := in.keyKind[s.key]; k == in.writeKind {
			writes = append(writes, s)
		} else {
			queries[k] = append(queries[k], s)
		}
	}
	return queries, writes
}

func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.latency)
	}
	sort.Float64s(out)
	return out
}

// typicalLatency summarises a window's query latency: the geometric mean,
// over the query kinds of the mix, of each kind's median. Kinds differ in
// cost by two orders of magnitude, so a pooled median would sit on the
// boundary between two kinds and jump; this one moves by the same share
// whichever kind gets faster.
func typicalLatency(queries [][]sample) float64 {
	var per []float64
	for _, ss := range queries {
		if len(ss) > 0 {
			per = append(per, quantile(latencies(ss), 0.5))
		}
	}
	return geomean(per)
}

// perPass sums f over the kinds of the mix, taking each kind's mean: the
// value for one pass of the mix (on gateway_churn, whose least-squares kinds
// are two latency groups each, for one visit of every group).
func perPass(queries [][]sample, f func(o *outcome) float64) float64 {
	total := 0.0
	for _, ss := range queries {
		if len(ss) == 0 {
			continue
		}
		sum := 0.0
		for i := range ss {
			sum += f(&ss[i].out)
		}
		total += sum / float64(len(ss))
	}
	return total
}

// perPassExact sums f over the first sample of each kind: identical on every
// run of one seed where op order is deterministic.
func perPassExact(queries [][]sample, f func(o *outcome) float64) float64 {
	total := 0.0
	for _, ss := range queries {
		if len(ss) > 0 {
			total += f(&ss[0].out)
		}
	}
	return total
}

func countOps(queries [][]sample) int {
	n := 0
	for _, ss := range queries {
		n += len(ss)
	}
	return n
}

// blockRates returns a window's queries per wall second and its process CPU
// milliseconds per query. Both come from the median block: within a window
// the box has slow stretches of a second or more, and a mean over the window
// carries every one of them, where a median over blocks of equal work does
// not. A window too short for two blocks falls back to totals.
func blockRates(in *instance, w *window, ops float64) (throughput, cpuMs float64) {
	if wall, cpu := w.perBlock(); wall > 0 {
		return float64(in.blockQueries) / wall.Seconds(), ms(cpu) / float64(in.blockQueries)
	}
	return ops / w.wall.Seconds(), ms(w.cpu) / ops
}

// endToEnd computes the end-to-end metrics of an untraced window. Timings
// cover only ops that passed verification and are reported at the reference
// speed (see burst), as setupSec already is.
func endToEnd(in *instance, w *window, setupSec float64) map[string]float64 {
	queries, _ := good(in, w)
	ops := float64(countOps(queries))
	throughput, _ := blockRates(in, w, ops)
	if in.clients > 0 {
		// An open loop completes what it is sent, at whatever speed the
		// machine runs; only a closed loop's rate scales with it.
		throughput /= w.speed
	}
	p50 := typicalLatency(queries) * w.speed
	return map[string]float64{
		"setup_s":         setupSec,
		"throughput_qps":  throughput,
		"latency_ms_p50":  p50,
		"latency_ms_p75":  p50 * tailOf(queries, 0.75),
		"alloc_mb_per_op": float64(w.allocBytes) / 1e6 / ops,
		"sim_exec_s":      perPass(queries, func(o *outcome) float64 { return o.simSec }),
	}
}

// tailOf is the p-quantile, over every query of the window, of its latency
// relative to the median of its kind. Pooling the kinds this way gives the
// tail hundreds of samples where one kind alone has ten or twenty.
func tailOf(queries [][]sample, p float64) float64 {
	var rel []float64
	for _, ss := range queries {
		if len(ss) == 0 {
			continue
		}
		lat := latencies(ss)
		mid := quantile(lat, 0.5)
		for _, l := range lat {
			rel = append(rel, l/mid)
		}
	}
	sort.Float64s(rel)
	return quantile(rel, p)
}

// perLayer computes the per-layer metrics from the traced window wt, its
// tracer, the untraced window wu of the same run, and the server-side
// counters read before and after wt.
func perLayer(in *instance, wu, wt *window, tr *tracer, before, after counters) map[string]float64 {
	m := map[string]float64{}
	queries, writes := good(in, wt)
	ops := float64(countOps(queries))
	layers := tr.byLayer() // a layer the workload never called reads as zero
	total := func(name string) float64 { return ms(layers[name].Total) / ops }
	self := func(name string) float64 { return ms(layers[name].Self) / ops }
	m["lang.parse_us"] = total("lang.parse") * 1e3
	m["sparsity.metaof_ms"] = total("sparsity.metaof")
	m["opt.compile_ms"] = total("opt.compile")
	m["opt.frontend_ms"] = self("opt.compile")
	m["search.blockwise_ms"] = total("search.blockwise")
	m["costgraph.plan_ms"] = total("costgraph.plan")
	m["engine.run_ms"] = total("engine.run")
	m["serve.do_ms"] = total("serve.do")
	m["serve.body_ms"] = total("serve.body")
	m["serve.plan_ms"] = total("serve.plan")
	m["serve.overhead_ms"] = self("serve.do")
	m["httpapi.decode_us"] = total("httpapi.decode") * 1e3
	m["httpapi.build_ms"] = total("httpapi.build")
	m["httpapi.encode_us"] = total("httpapi.encode") * 1e3
	m["gateway.do_ms"] = total("gateway.do")
	m["gateway.overhead_ms"] = self("gateway.do")
	if len(writes) > 0 {
		m["gateway.invalidate_ms"] = quantile(latencies(writes), 0.5)
	}

	exact := func(f func(o *outcome) float64) float64 { return perPassExact(queries, f) }
	m["search.options_found"] = exact(func(o *outcome) float64 { return float64(o.optionsFound) })
	m["costgraph.options_selected"] = exact(func(o *outcome) float64 { return float64(o.optionsSelected) })
	modelled := exact(func(o *outcome) float64 { return o.modelledCost })
	m["costgraph.modelled_cost_s"] = modelled
	if modelled > 0 {
		m["cost.fidelity_x"] = exact(func(o *outcome) float64 { return o.simSec }) / (modelled * loopIterations)
	}
	m["engine.iterations"] = exact(func(o *outcome) float64 { return float64(o.iterations) })
	m["engine.ops"] = exact(func(o *outcome) float64 { return float64(o.engineOps) })
	m["engine.flop_g"] = exact(func(o *outcome) float64 { return o.flop }) / 1e9
	m["cluster.compute_s"] = exact(func(o *outcome) float64 { return o.computeSec })
	m["cluster.transmit_s"] = exact(func(o *outcome) float64 { return o.transmitSec })
	for i, name := range []string{"collect", "broadcast", "shuffle", "dfs"} {
		m["cluster.bytes_"+name+"_gb"] = exact(func(o *outcome) float64 { return o.bytes[i] }) / 1e9
	}

	sb, sa := before.serve, after.serve
	m["serve.plan_hit_rate"] = share(sa.PlanHits-sb.PlanHits, sa.PlanMisses-sb.PlanMisses)
	m["serve.inter_hit_rate"] = share(sa.InterHits-sb.InterHits, sa.InterMisses-sb.InterMisses)
	m["serve.inter_misses"] = float64(sa.InterMisses - sb.InterMisses)
	m["serve.plan_entries"] = float64(sa.PlanEntries)
	m["serve.mqo_shared_hits"] = float64(sa.MQOSharedHits - sb.MQOSharedHits)
	m["serve.mqo_batched"] = float64(sa.MQOBatchedQueries - sb.MQOBatchedQueries)
	m["serve.rejected"] = float64(sa.Rejected + sa.Shed - sb.Rejected - sb.Shed)
	m["serve.retries"] = float64(sa.Retries - sb.Retries)
	if sa.Completed > 0 {
		m["serve.flop_charged_g"] = perPass(queries, func(o *outcome) float64 { return o.flop }) / 1e9
	}

	gb, ga := before.gw, after.gw
	m["gateway.wire_attempts"] = float64(after.wire.Attempts - before.wire.Attempts)
	m["gateway.wire_retries"] = float64(after.wire.Retries - before.wire.Retries)
	m["gateway.replays"] = float64(after.wire.Replays - before.wire.Replays)
	m["gateway.spilled"] = float64(ga.Spilled - gb.Spilled)
	m["gateway.failed_over"] = float64(ga.FailedOver - gb.FailedOver)
	m["gateway.quota_rejected"] = float64(ga.QuotaRejected - gb.QuotaRejected)
	m["gateway.audit_dropped"] = float64(ga.AuditDropped - gb.AuditDropped)
	m["gateway.invalidations_lagged"] = float64(ga.InvalidationsLagged - gb.InvalidationsLagged)
	var served, busiest uint64
	for i, sh := range ga.PerShard {
		n := sh.Snapshot.Completed
		if i < len(gb.PerShard) {
			n -= gb.PerShard[i].Snapshot.Completed
		}
		served += n
		if n > busiest {
			busiest = n
		}
	}
	if served > 0 {
		m["gateway.shard_share_max"] = float64(busiest) / float64(served)
	}

	_, m["runtime.cpu_ms_per_op"] = blockRates(in, wt, ops)
	m["runtime.mallocs_per_op"] = float64(wt.mallocs) / ops
	m["runtime.gc_cycles"] = float64(wt.gcCycles)
	m["runtime.gc_pause_ms"] = ms(wt.gcPause)
	m["runtime.heap_inuse_peak_mb"] = float64(wt.heapPeak) / 1e6

	m["bench.machine_speed_x"] = wt.speed
	untraced, _ := good(in, wu)
	if base := typicalLatency(untraced) * wu.speed; base > 0 {
		m["bench.trace_overhead_pct"] = (typicalLatency(queries)*wt.speed/base - 1) * 100
	}
	var late []float64
	okInTime := 0
	for _, s := range wt.samples {
		late = append(late, ms(s.late))
		if s.err == nil && s.latency <= sloLimit {
			okInTime++
		}
	}
	sort.Float64s(late)
	m["bench.generator_late_ms_p90"] = quantile(late, 0.9)
	m["bench.slo_ok_share"] = float64(okInTime) / float64(len(wt.samples))
	m["bench.backlog_end"] = float64(wt.backlogEnd)
	return m
}

func share(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// probeReps is how many times a probe times its call; it reports the median.
const probeReps = 3

func probe(f func()) time.Duration {
	d := make([]float64, probeReps)
	for i := range d {
		start := time.Now()
		f()
		d[i] = float64(time.Since(start))
	}
	return time.Duration(median(d))
}

var sink any // keeps probe results alive

// kernelProbes times the local kernels and the estimator on the operand
// shapes the workloads run: 870² dense, 2000×870 CSR (uniform and
// zipf-2.1), n×1 vectors. They call the program's exported functions with
// generated operands; nothing here depends on the workload.
func kernelProbes(seed int64, sz sizing, m map[string]float64) {
	uniform := data.MustLoad(datasetName("cri2", seed)).A
	skewed := data.MustLoad(datasetName("zipf-2.1", seed)).A
	rows, n := uniform.Rows(), uniform.Cols()
	rng := rand.New(rand.NewSource(seed))
	dense := matrix.RandDense(rng, n, n)
	fat := matrix.RandDense(rng, n, rows)
	vec := matrix.RandVector(rng, n)
	uniformT := uniform.Transpose()

	// moved is computed from operand and result sizes, not measured: the
	// bytes one round of the probes reads and writes.
	var moved int64
	timed := func(f func() *matrix.Matrix, operands ...*matrix.Matrix) time.Duration {
		var out *matrix.Matrix
		d := probe(func() { out = f() })
		moved += out.SizeBytes()
		for _, o := range operands {
			moved += o.SizeBytes()
		}
		return d
	}
	mul := func(a, b *matrix.Matrix) time.Duration {
		return timed(func() *matrix.Matrix { return a.Mul(b) }, a, b)
	}
	dd := mul(dense, dense)
	m["matrix.mul_dd_ms"] = ms(dd)
	m["matrix.mul_dd_gflops"] = 2 * float64(n) * float64(n) * float64(n) / dd.Seconds() / 1e9
	m["matrix.mul_dv_us"] = ms(mul(dense, vec)) * 1e3
	m["matrix.mul_csr_d_ms"] = ms(mul(uniform, dense))
	m["matrix.mul_csr_d_zipf_ms"] = ms(mul(skewed, dense))
	m["matrix.mul_csr_v_us"] = ms(mul(uniform, vec)) * 1e3
	m["matrix.mul_d_csr_ms"] = ms(mul(fat, uniform))
	m["matrix.mul_csr_csr_ms"] = ms(mul(uniformT, uniform))
	m["matrix.transpose_csr_us"] = ms(timed(uniform.Transpose, uniform)) * 1e3
	m["matrix.transpose_d_ms"] = ms(timed(dense.Transpose, dense))
	m["matrix.ewise_d_ms"] = ms(timed(func() *matrix.Matrix { return dense.Sub(dense).ElemMul(dense) }, dense, dense, dense))
	m["matrix.scale_d_ms"] = ms(timed(func() *matrix.Matrix { return dense.Scale(2) }, dense))
	m["matrix.clone_d_ms"] = ms(timed(dense.Clone, dense))
	m["matrix.bytes_moved_mb"] = float64(moved) / 1e6

	a, at := sparsity.MetaOf(uniform), sparsity.MetaOf(uniformT)
	m["sparsity.mnc_mul_us"] = ms(probe(func() { sink = sparsity.MNC{}.Mul(at, a) })) * 1e3
	m["sparsity.mnc_add_us"] = ms(probe(func() { sink = sparsity.MNC{}.Add(a, a) })) * 1e3
}

// valueProbes times the two result digests over the values the workload's
// queries returned in set-up (summed over one pass of the mix), and
// canonicalisation over its scripts (mean per script).
func valueProbes(in *instance, m map[string]float64) {
	var digest, hash time.Duration
	for _, o := range in.first {
		if o == nil || len(o.values) == 0 {
			continue
		}
		values := o.values
		digest += probe(func() {
			for _, v := range values {
				sink = integrity.Digest(v)
			}
		})
		hash += probe(func() { sink = serve.HashValues(values) })
	}
	m["integrity.digest_ms"] = ms(digest)
	m["serve.hash_ms"] = ms(hash)
	var canon time.Duration
	for _, s := range in.scripts {
		canon += probe(func() { sink, _ = lang.Canonical(s) })
	}
	if len(in.scripts) > 0 {
		m["lang.canonical_us"] = ms(canon) * 1e3 / float64(len(in.scripts))
	}
}
