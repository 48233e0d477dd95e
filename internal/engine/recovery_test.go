package engine

import (
	"context"
	"errors"
	"sync"
	"testing"

	"remac/internal/algorithms"
	"remac/internal/cluster"
	"remac/internal/distmat"
	"remac/internal/fault"
	"remac/internal/integrity"
	"remac/internal/matrix"
	"remac/internal/opt"
)

func TestParseRecovery(t *testing.T) {
	cases := []struct {
		in   string
		want RecoveryPolicy
	}{
		{"", RecoveryPolicy{}},
		{"lineage", RecoveryPolicy{}},
		{"checkpoint", RecoveryPolicy{Kind: RecoverCheckpoint}},
		{"coded", RecoveryPolicy{Kind: RecoverCoded, K: distmat.DefaultCodedK, N: distmat.DefaultCodedN}},
		{"coded:4,7", RecoveryPolicy{Kind: RecoverCoded, K: 4, N: 7}},
		{"coded: 8 , 12", RecoveryPolicy{Kind: RecoverCoded, K: 8, N: 12}},
	}
	for _, c := range cases {
		got, err := ParseRecovery(c.in)
		if err != nil {
			t.Fatalf("ParseRecovery(%q) err = %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseRecovery(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseRecoveryErrors(t *testing.T) {
	for _, in := range []string{"none", "coded:", "coded:4", "coded:4;6", "coded:x,y", "coded:1,2", "coded:4,4", "coded:6,4",
		"coded:2,5", "coded:2,100000"} {
		_, err := ParseRecovery(in)
		var pe *RecoveryPolicyError
		if !errors.As(err, &pe) {
			t.Fatalf("ParseRecovery(%q) err = %v, want *RecoveryPolicyError", in, err)
		}
	}
}

func TestNormalizeRejectsParamsOnNonCodedPolicies(t *testing.T) {
	for _, p := range []RecoveryPolicy{
		{Kind: RecoverLineage, K: 4, N: 6},
		{Kind: RecoverCheckpoint, N: 6},
	} {
		if _, err := p.Normalize(); err == nil {
			t.Fatalf("Normalize(%+v) accepted coded parameters on a non-coded policy", p)
		}
	}
}

func TestPolicyString(t *testing.T) {
	cases := map[string]RecoveryPolicy{
		"lineage":    {},
		"checkpoint": {Kind: RecoverCheckpoint},
		"coded":      {Kind: RecoverCoded},
		"coded:4,7":  {Kind: RecoverCoded, K: 4, N: 7},
	}
	for want, p := range cases {
		if got := p.String(); got != want {
			t.Fatalf("%+v.String() = %q, want %q", p, got, want)
		}
	}
}

// TestRunRejectsInvalidPolicy: RunWithOptions validates the policy before
// doing any work and surfaces the typed error — for a code of more data
// groups than the compiled plan's cluster has workers too.
func TestRunRejectsInvalidPolicy(t *testing.T) {
	c := compileFor(t, algorithms.GD, "cri1", opt.Aggressive)
	workers := c.Config.Cluster.Workers()
	for _, p := range []RecoveryPolicy{
		{Kind: RecoverCoded, K: 6, N: 4},
		{Kind: RecoverCoded, K: workers + 1, N: workers + 2},
	} {
		_, err := RunWithOptions(context.Background(), c, inputsFor(t, algorithms.GD, "cri1"), nil, RunOptions{Recovery: p})
		var pe *RecoveryPolicyError
		if !errors.As(err, &pe) {
			t.Fatalf("%v: err = %v, want *RecoveryPolicyError", p, err)
		}
	}
	if _, err := (RecoveryPolicy{Kind: RecoverCoded, K: workers, N: 2 * workers}).On(c.Config.Cluster); err != nil {
		t.Fatalf("a code of one data group per worker and as much parity: %v", err)
	}
}

// TestCodedPolicyEndToEnd: a coded run under injected faults encodes
// parity, decodes at least once, and its final bindings are the fault-free
// reference's, bit for bit.
func TestCodedPolicyEndToEnd(t *testing.T) {
	c := compileFor(t, algorithms.GD, "cri1", opt.Aggressive)
	ref, err := RunWithOptions(context.Background(), c, inputsFor(t, algorithms.GD, "cri1"), nil, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	coded, err := RunWithOptions(context.Background(), c, inputsFor(t, algorithms.GD, "cri1"), nil,
		RunOptions{
			Faults: fault.NewPlan(fault.Config{
				Seed:                  5,
				WorkerFailuresPerHour: 600,
				StragglersPerHour:     600,
				Workers:               cluster.DefaultConfig().Workers(),
			}),
			Recovery: RecoveryPolicy{Kind: RecoverCoded},
		})
	if err != nil {
		t.Fatal(err)
	}
	if coded.Stats.EncodeFLOP == 0 {
		t.Fatal("coded run must charge parity encoding")
	}
	if coded.Stats.CodedRecoveries == 0 {
		t.Fatal("rates this high must trigger at least one k-of-n decode")
	}
	for name, want := range ref.Env {
		got, ok := coded.Env[name]
		if !ok {
			t.Fatalf("coded run lost binding %q", name)
		}
		if !sameBits(got.Data(), want.Data()) {
			t.Fatalf("%s differs from the fault-free run", name)
		}
	}
}

// failStopPlan injects worker failures, transmission errors and stragglers
// at rates that land every kind in a run on a small sample.
func failStopPlan(seed int64) *fault.Plan {
	return fault.NewPlan(fault.Config{
		Seed:                  seed,
		WorkerFailuresPerHour: 600,
		TransmitErrorsPerHour: 1200,
		StragglersPerHour:     600,
		Workers:               cluster.DefaultConfig().Workers(),
	})
}

// digestOf is integrity.DigestValues of a run's final bindings.
func digestOf(res *Result) uint64 {
	values := map[string]*matrix.Matrix{}
	for name, v := range res.Env {
		values[name] = v.Data()
	}
	return integrity.DigestValues(values)
}

// TestRecoveryPoliciesReturnTheCleanBits: fail-stop faults only move the
// clock, under every recovery policy. GD, DFP, BFGS and GNMF on a small
// sample return the clean run's values bit for bit under lineage,
// checkpoint, the default code and the 4-of-7 code, with failures and
// retries landing in every run and decodes in every coded one.
func TestRecoveryPoliciesReturnTheCleanBits(t *testing.T) {
	ds := smallDataset("cri2", 400, 120)
	policies := []RecoveryPolicy{{}, {Kind: RecoverCheckpoint}, {Kind: RecoverCoded}, {Kind: RecoverCoded, K: 4, N: 7}}
	for _, alg := range []algorithms.Name{algorithms.GD, algorithms.DFP, algorithms.BFGS, algorithms.GNMF} {
		c := compileOn(t, alg, ds, opt.Aggressive, 5)
		ins := inputsOn(alg, ds)
		clean, err := runPlain(c, ins)
		if err != nil {
			t.Fatal(err)
		}
		want := digestOf(clean)
		for _, rp := range policies {
			res, err := RunWithOptions(context.Background(), c, ins, nil, RunOptions{Faults: failStopPlan(5), Recovery: rp})
			if err != nil {
				t.Fatalf("%v/%v: %v", alg, rp, err)
			}
			s := res.Stats
			if s.FailedWorkers == 0 || s.Retries == 0 || (rp.Kind == RecoverCoded && s.CodedRecoveries == 0) {
				t.Fatalf("%v/%v: faults did not land (failures %d, retries %d, decodes %d); the test checks nothing",
					alg, rp, s.FailedWorkers, s.Retries, s.CodedRecoveries)
			}
			if got := digestOf(res); got != want {
				t.Errorf("%v/%v: values digest %#x, clean run %#x", alg, rp, got, want)
			}
		}
	}
}

// TestRecoveryPoliciesReturnTheCleanBitsConcurrently: eight faulted coded
// runs at once over one input, each with its own fault schedule, all read
// the transpose the input carries and return the clean run's values. Under
// -race, a decode writing into the shared input or its transpose is
// reported.
func TestRecoveryPoliciesReturnTheCleanBitsConcurrently(t *testing.T) {
	ds := smallDataset("cri2", 400, 120)
	c := compileOn(t, algorithms.DFP, ds, opt.Conservative, 5)
	ins := inputsOn(algorithms.DFP, ds)
	clean, err := runPlain(c, ins)
	if err != nil {
		t.Fatal(err)
	}
	want := digestOf(clean)
	carried := ins["A"].Data.Transposed()
	const runs = 8
	results := make([]*Result, runs)
	fused := make([]*matrix.Matrix, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := newExecutor(context.Background(), c, ins, nil,
				RunOptions{Faults: failStopPlan(int64(g)), Recovery: RecoveryPolicy{Kind: RecoverCoded}})
			if err != nil {
				errs[g] = err
				return
			}
			if results[g], errs[g] = e.run(); errs[g] == nil {
				if a := e.slots[e.s.Names["A"]]; a != nil && a.Fused() != nil {
					fused[g] = a.Fused().Data()
				}
			}
		}()
	}
	wg.Wait()
	for g, res := range results {
		if errs[g] != nil {
			t.Fatalf("run %d: %v", g, errs[g])
		}
		if res.Stats.CodedRecoveries == 0 {
			t.Fatalf("run %d decoded nothing; the test checks nothing", g)
		}
		if fused[g] != carried {
			t.Errorf("run %d read a transpose of A other than the carried one", g)
		}
		if got := digestOf(res); got != want {
			t.Errorf("run %d: values digest %#x, clean run %#x", g, got, want)
		}
	}
}
