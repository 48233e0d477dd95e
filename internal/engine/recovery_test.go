package engine

import (
	"context"
	"errors"
	"math"
	"testing"

	"remac/internal/algorithms"
	"remac/internal/cluster"
	"remac/internal/distmat"
	"remac/internal/fault"
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
// parity, decodes at least once, and its final bindings stay within the
// 1e-9 relative tolerance of the fault-free reference.
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
		w, g := want.Data(), got.Data()
		var maxDiff, maxAbs float64
		for i := 0; i < w.Rows(); i++ {
			for j := 0; j < w.Cols(); j++ {
				if d := math.Abs(g.At(i, j) - w.At(i, j)); d > maxDiff {
					maxDiff = d
				}
				if a := math.Abs(w.At(i, j)); a > maxAbs {
					maxAbs = a
				}
			}
		}
		if maxAbs > 0 && maxDiff/maxAbs > 1e-9 {
			t.Fatalf("%s deviates by %g relative, want <= 1e-9", name, maxDiff/maxAbs)
		}
	}
}
