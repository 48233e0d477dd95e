package engine

import (
	"fmt"
	"strconv"
	"strings"

	"remac/internal/cluster"
	"remac/internal/distmat"
)

// RecoveryKind selects how blocks lost to injected worker failures are
// rebuilt.
type RecoveryKind int

const (
	// RecoverLineage recomputes lost partitions from their producing
	// lineage (the default; inputs re-read DFS).
	RecoverLineage RecoveryKind = iota
	// RecoverCheckpoint persists LSE-hoisted intermediates to DFS so later
	// failures recover them at DFS-read cost.
	RecoverCheckpoint
	// RecoverCoded encodes every distributed value with a systematic
	// low-weight erasure code: k data groups plus n-k parity blocks, from
	// which erased groups decode without recomputation (distmat/coded.go).
	RecoverCoded
)

func (k RecoveryKind) String() string {
	switch k {
	case RecoverLineage:
		return "lineage"
	case RecoverCheckpoint:
		return "checkpoint"
	case RecoverCoded:
		return "coded"
	}
	return fmt.Sprintf("RecoveryKind(%d)", int(k))
}

// RecoveryPolicy is the recovery strategy of a run: the kind plus, for
// coded recovery, the (k, n) code parameters. The zero value is lineage
// recomputation. K/N of 0 under RecoverCoded select the defaults
// (distmat.DefaultCodedK, distmat.DefaultCodedN).
type RecoveryPolicy struct {
	Kind RecoveryKind
	K, N int
}

// RecoveryPolicyError reports an invalid recovery policy or an
// unparseable -recovery flag value.
type RecoveryPolicyError struct{ Msg string }

func (e *RecoveryPolicyError) Error() string { return "engine: recovery policy: " + e.Msg }

// Normalize validates the policy and fills coded defaults. Non-coded
// policies must not carry code parameters; coded policies require
// n > k >= 2 and at most k parity blocks (n <= 2k): a decode reads one parity
// block per erased data group, and a value has only k groups to erase, so
// parity beyond k would be encoded and stored but never read.
func (p RecoveryPolicy) Normalize() (RecoveryPolicy, error) {
	if p.Kind != RecoverCoded {
		if p.K != 0 || p.N != 0 {
			return p, &RecoveryPolicyError{Msg: fmt.Sprintf("%s policy cannot carry coded parameters k=%d n=%d", p.Kind, p.K, p.N)}
		}
		return p, nil
	}
	if p.K == 0 && p.N == 0 {
		p.K, p.N = distmat.DefaultCodedK, distmat.DefaultCodedN
	}
	if p.K < 2 || p.N <= p.K || p.N-p.K > p.K {
		return p, &RecoveryPolicyError{Msg: fmt.Sprintf("coded requires n > k >= 2 and n <= 2k, got k=%d n=%d", p.K, p.N)}
	}
	return p, nil
}

// On normalizes the policy for a run on cluster c: besides Normalize's
// rules, a coded policy may split a value into no more data groups than c has
// workers, since the placement homes each group on a worker of its own. With
// both bounds, a value's parity is never larger than the value.
func (p RecoveryPolicy) On(c cluster.Config) (RecoveryPolicy, error) {
	p, err := p.Normalize()
	if err == nil && p.Kind == RecoverCoded && p.K > c.Workers() {
		err = &RecoveryPolicyError{Msg: fmt.Sprintf("coded k=%d exceeds the cluster's %d workers", p.K, c.Workers())}
	}
	return p, err
}

// String renders the policy in the -recovery flag syntax.
func (p RecoveryPolicy) String() string {
	if p.Kind == RecoverCoded && (p.K != 0 || p.N != 0) {
		return fmt.Sprintf("coded:%d,%d", p.K, p.N)
	}
	return p.Kind.String()
}

// ParseRecovery parses a -recovery flag value: "" or "lineage",
// "checkpoint", "coded" (default k,n), or "coded:k,n".
func ParseRecovery(s string) (RecoveryPolicy, error) {
	switch s {
	case "", "lineage":
		return RecoveryPolicy{}, nil
	case "checkpoint":
		return RecoveryPolicy{Kind: RecoverCheckpoint}, nil
	case "coded":
		return RecoveryPolicy{Kind: RecoverCoded}.Normalize()
	}
	if rest, ok := strings.CutPrefix(s, "coded:"); ok {
		kStr, nStr, ok := strings.Cut(rest, ",")
		if !ok {
			return RecoveryPolicy{}, &RecoveryPolicyError{Msg: fmt.Sprintf("%q: want coded:k,n", s)}
		}
		k, err1 := strconv.Atoi(strings.TrimSpace(kStr))
		n, err2 := strconv.Atoi(strings.TrimSpace(nStr))
		if err1 != nil || err2 != nil {
			return RecoveryPolicy{}, &RecoveryPolicyError{Msg: fmt.Sprintf("%q: want coded:k,n", s)}
		}
		return RecoveryPolicy{Kind: RecoverCoded, K: k, N: n}.Normalize()
	}
	return RecoveryPolicy{}, &RecoveryPolicyError{Msg: fmt.Sprintf("unknown policy %q (want lineage, checkpoint, coded or coded:k,n)", s)}
}
