package algorithms

import (
	"strings"
	"testing"

	"remac/internal/plan"
)

func TestAllScriptsParse(t *testing.T) {
	for _, n := range append(All, PartialDFP) {
		src, err := Script(n, 7)
		if err != nil {
			t.Fatalf("%v: %v", n, err)
		}
		prog := MustProgram(n, 7)
		if _, err := plan.Build(prog); err != nil {
			t.Fatalf("%v: lowering failed: %v", n, err)
		}
		if n != PartialDFP && !strings.Contains(src, "while") {
			t.Errorf("%v: missing loop", n)
		}
	}
}

func TestIterationCountSubstituted(t *testing.T) {
	src, _ := Script(GD, 42)
	if !strings.Contains(src, "i < 42") {
		t.Fatalf("iteration count not substituted:\n%s", src)
	}
}

func TestSymmetryPragmas(t *testing.T) {
	for _, n := range []Name{DFP, BFGS} {
		prog := MustProgram(n, 3)
		if !prog.Symmetric["H"] {
			t.Errorf("%v: H must be declared symmetric", n)
		}
	}
}

func TestLoopConstantStructure(t *testing.T) {
	// A and b must be loop-constant in every least-squares workload; the
	// model state must not be.
	for _, n := range []Name{GD, DFP, BFGS} {
		p, err := plan.Build(MustProgram(n, 3))
		if err != nil {
			t.Fatal(err)
		}
		if !p.LoopConst["A"] {
			t.Errorf("%v: A should be loop-constant", n)
		}
		if p.LoopConst["x"] {
			t.Errorf("%v: x must not be loop-constant", n)
		}
	}
	// GNMF: V constant, W/H not.
	p, err := plan.Build(MustProgram(GNMF, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !p.LoopConst["V"] || p.LoopConst["W"] || p.LoopConst["H"] {
		t.Error("GNMF loop-constant labels wrong")
	}
}

func TestDefaultIterations(t *testing.T) {
	if DefaultIterations(GD) <= DefaultIterations(DFP) {
		t.Error("GD (first-order) should run more iterations than DFP (quasi-Newton)")
	}
}

func TestReads(t *testing.T) {
	if got := Reads(GNMF); len(got) != 3 || got[0] != "V" {
		t.Errorf("GNMF reads = %v", got)
	}
	if got := Reads(DFP); len(got) != 4 || got[0] != "A" {
		t.Errorf("DFP reads = %v", got)
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := Script(Name("nope"), 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// Reads returns the dataset symbols a workload reads: the design matrix A
// plus per-algorithm extras.
func Reads(n Name) []string {
	if n == GNMF {
		return []string{"V", "W0", "H0"}
	}
	return []string{"A", "b", "H0", "x0"}
}
