package bench

import (
	"fmt"

	"remac/internal/algorithms"
	"remac/internal/cluster"
	"remac/internal/engine"
	"remac/internal/fault"
	"remac/internal/opt"
	"remac/internal/trace"
)

// faultSeed selects the fault schedule of the Faults experiment.
const faultSeed = 11

// Faults measures resilience of the recovery policies: DFP on cri2 under
// increasing failure rates, comparing the no-elimination baseline against
// ReMac (Aggressive) under lineage recompute, checkpoint re-read and
// coded k-of-n recovery — every arm of a rate replays the identical
// seeded fault plan. The driver heap is shrunk so hoisted intermediates
// live on the workers — with the default heap they would sit in driver
// memory, out of reach of worker failures, and neither checkpointing nor
// coding would have anything to protect.
//
// The coded arm additionally reports its decode time, the parity-encoding
// FLOP it pays up front, the measured sparsity of the parity blocks (from
// the encode/parity spans) and the largest relative error any k-of-n
// decode introduced (0 when every systematic block survived, in which
// case the result is bitwise identical to the fault-free run).
func Faults() (*Table, error) {
	cfg := cluster.DefaultConfig()
	cfg.DriverMemory = 512 << 20
	const iters = 5

	t := &Table{ID: "Faults", Title: fmt.Sprintf("DFP on cri2 under injected failures (seed %d)", faultSeed),
		Columns: []string{"exec(s)", "recovery(s)", "recompGFLOP", "decode(s)", "encGFLOP", "retries", "failures", "paritySpars", "maxRelErr"}}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d iterations, driver heap 512MB so LSE values are worker-resident", iters),
		"rate r/h schedules r worker failures, 2r transmission errors, r stragglers per simulated hour of work",
		"elimination concentrates the run into one large shuffled LSE, raising retry exposure; checkpointing removes its recompute FLOP",
		"coded k-of-n decodes lost blocks from surviving systematic + parity blocks instead of recomputing; encGFLOP is its up-front parity cost",
	)

	// The coded arm widens the stock 4-of-6 code to 4-of-7: under the
	// schedule's highest rate (480/h) some failure windows erase three
	// distinct workers, which two parity blocks cannot cover — the third
	// keeps every observed erasure pattern decodable, so the coded arm
	// recomputes nothing.
	coded := engine.RecoveryPolicy{Kind: engine.RecoverCoded, K: 4, N: 7}
	rates := []float64{30, 120, 480}
	variants := []struct {
		label    string
		strategy opt.Strategy
		recovery engine.RecoveryPolicy
	}{
		{"no-elim", opt.NoElimination, engine.RecoveryPolicy{}},
		{"ReMac/lineage", opt.Aggressive, engine.RecoveryPolicy{}},
		{"ReMac/ckpt", opt.Aggressive, engine.RecoveryPolicy{Kind: engine.RecoverCheckpoint}},
		{"ReMac/" + coded.String(), opt.Aggressive, coded},
	}
	for _, rate := range rates {
		for _, v := range variants {
			rc := runCfg{
				alg: algorithms.DFP, dataset: "cri2",
				strategy: v.strategy, iterations: iters, cluster: cfg,
				recovery: v.recovery,
				faults: fault.Config{
					Seed:                  faultSeed,
					WorkerFailuresPerHour: rate,
					TransmitErrorsPerHour: 2 * rate,
					StragglersPerHour:     rate,
				},
			}
			var out *runOut
			var err error
			row := Row{Label: fmt.Sprintf("%s @%g/h", v.label, rate)}
			if v.recovery.Kind == engine.RecoverCoded {
				// Trace the coded arm so parity sparsity and decode error
				// can be read off its encode/decode spans.
				var rec *trace.Recorder
				out, rec, err = runFaultTraced(rc)
				if err == nil {
					spars, relErr := codedSpanStats(rec)
					row.Values = map[string]float64{"paritySpars": spars, "maxRelErr": relErr}
				}
			} else {
				out, err = runOne(rc)
			}
			if err != nil {
				return nil, err
			}
			if row.Values == nil {
				row.Values = map[string]float64{}
			}
			row.Values["exec(s)"] = out.ExecSec
			row.Values["recovery(s)"] = out.RecoverySec
			row.Values["recompGFLOP"] = out.RecomputeFLOP / 1e9
			row.Values["decode(s)"] = out.DecodeSec
			row.Values["encGFLOP"] = out.EncodeFLOP / 1e9
			row.Values["retries"] = float64(out.Retries)
			row.Values["failures"] = float64(out.FailedWorkers)
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// runFaultTraced runs one faults arm with a recorder attached regardless
// of whether a global trace sink is set (the sink, when set, still
// receives the spans as runOne would have sent them).
func runFaultTraced(cfg runCfg) (*runOut, *trace.Recorder, error) {
	rec := trace.NewRun(fmt.Sprintf("%s/%s/%v", cfg.alg, cfg.dataset, cfg.strategy))
	out, err := runOneTraced(cfg, rec)
	if err != nil {
		return nil, nil, err
	}
	if sink := traceSink(); sink != nil {
		traceMu.Lock()
		err = rec.WriteJSONL(sink)
		traceMu.Unlock()
		if err != nil {
			return nil, nil, err
		}
	}
	return out, rec, nil
}

// codedSpanStats reads the coded arm's honesty signals off its spans: the
// mean measured sparsity of the encoded parity blocks and the largest
// relative error any k-of-n decode introduced.
func codedSpanStats(rec *trace.Recorder) (paritySparsity, maxRelErr float64) {
	var sum float64
	var n int
	for _, s := range rec.Spans() {
		switch s.Label {
		case "encode/parity":
			if s.Out != nil {
				sum += s.Out.Sparsity
				n++
			}
		case "recovery/coded-decode":
			if s.RelErr > maxRelErr {
				maxRelErr = s.RelErr
			}
		}
	}
	if n > 0 {
		paritySparsity = sum / float64(n)
	}
	return paritySparsity, maxRelErr
}
