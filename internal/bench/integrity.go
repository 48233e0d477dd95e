package bench

import (
	"errors"
	"fmt"

	"remac/internal/algorithms"
	"remac/internal/cluster"
	"remac/internal/fault"
	"remac/internal/integrity"
	"remac/internal/opt"
)

// integritySeed selects the corruption schedule of the Integrity experiment.
const integritySeed = 23

// isIntegrityErr reports whether a run failed on an unrepairable corruption.
func isIntegrityErr(err error) bool { return errors.Is(err, integrity.ErrCorruption) }

// Integrity measures the end-to-end data-integrity layer in two parts.
//
// Part one runs the standard DFP/GD/GNMF suite on a perfect cluster under
// each verification mode and reports the simulated-time overhead of digest
// and ABFT verification against the unverified baseline (acceptance: ABFT
// stays within 10%).
//
// Part two injects silent corruptions into DFP on cri2 at increasing rates
// and sweeps the verification modes, counting injected corruptions, how many
// were detected (and through which layer), lineage repairs, and — by
// comparing the result fingerprint against a fault-free reference — how many
// runs returned silently wrong answers. With full verification every injected
// corruption is either repaired to a bitwise-identical result or surfaced as
// a typed integrity error; with verification off the same corruptions land as
// silent wrong answers.
func Integrity() (*Table, error) {
	modes := []integrity.VerifyMode{integrity.VerifyOff, integrity.VerifyDigest, integrity.VerifyABFT}
	t := &Table{ID: "Integrity", Title: fmt.Sprintf("Verification overhead and corruption sweep (seed %d)", integritySeed),
		Columns: []string{"exec(s)", "verify(s)", "overhead%", "injected", "detected", "repairs", "silent"}}
	t.Notes = append(t.Notes,
		"overhead rows: perfect cluster; overhead% is simulated execution time vs verify=off",
		"sweep rows: DFP on cri2, 5 iterations, driver heap 512MB; rate r/h schedules r corruptions per simulated hour",
		"silent=1 marks a run that succeeded with a result differing bitwise from the fault-free reference",
		"failed(integrity) marks a corruption that exhausted its repair budget and surfaced as a typed error",
	)

	// Part one: fault-free overhead on the standard suite.
	suite := []struct {
		alg     algorithms.Name
		dataset string
	}{
		{algorithms.DFP, "cri2"},
		{algorithms.GD, "cri1"},
		{algorithms.GNMF, "red2"},
	}
	for _, w := range suite {
		base := 0.0
		for _, mode := range modes {
			out, err := runOne(runCfg{
				alg: w.alg, dataset: w.dataset, strategy: opt.Adaptive,
				iterations: 3, verify: mode,
			})
			if err != nil {
				return nil, err
			}
			total := out.ExecSec + out.PartitionSec
			if mode == integrity.VerifyOff {
				base = total
			}
			overhead := 0.0
			if base > 0 {
				overhead = 100 * (total - base) / base
			}
			if mode == integrity.VerifyABFT && overhead > 10 {
				return nil, fmt.Errorf("integrity: ABFT overhead %.1f%% on %v/%s exceeds the 10%% budget", overhead, w.alg, w.dataset)
			}
			t.Rows = append(t.Rows, Row{
				Label: fmt.Sprintf("%v/%s verify=%v", w.alg, w.dataset, mode),
				Values: map[string]float64{
					"exec(s)":   total,
					"verify(s)": out.VerifySec,
					"overhead%": overhead,
				},
			})
		}
	}

	// Part two: corruption sweep. The reference fingerprint comes from a
	// fault-free run of the identical configuration.
	cfg := cluster.DefaultConfig()
	cfg.DriverMemory = 512 << 20
	const iters = 5
	sweep := runCfg{
		alg: algorithms.DFP, dataset: "cri2", strategy: opt.Aggressive,
		iterations: iters, cluster: cfg,
	}
	ref, err := runOne(sweep)
	if err != nil {
		return nil, err
	}
	for _, rate := range []float64{120, 480} {
		for _, mode := range modes {
			cfg := sweep
			cfg.verify = mode
			cfg.faults = fault.Config{Seed: integritySeed, CorruptionsPerHour: rate}
			label := fmt.Sprintf("corrupt@%g/h verify=%v", rate, mode)
			out, err := runOne(cfg)
			if err != nil {
				if isIntegrityErr(err) {
					t.Rows = append(t.Rows, Row{Label: label, Text: map[string]string{"exec(s)": "failed(integrity)"}})
					continue
				}
				return nil, err
			}
			silent := 0.0
			if out.ResultHash != ref.ResultHash {
				silent = 1
			}
			if mode == integrity.VerifyABFT {
				if silent != 0 {
					return nil, fmt.Errorf("integrity: %s returned a silently wrong result", label)
				}
				if detected := out.CorruptionsDigest + out.CorruptionsABFT; detected != out.CorruptionsInjected {
					return nil, fmt.Errorf("integrity: %s detected %d of %d corruptions", label, detected, out.CorruptionsInjected)
				}
			}
			t.Rows = append(t.Rows, Row{
				Label: label,
				Values: map[string]float64{
					"exec(s)":  out.ExecSec,
					"injected": float64(out.CorruptionsInjected),
					"detected": float64(out.CorruptionsDigest + out.CorruptionsABFT),
					"repairs":  float64(out.IntegrityRepairs),
					"silent":   silent,
				},
			})
		}
	}
	return t, nil
}
