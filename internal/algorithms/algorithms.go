// Package algorithms holds the DML scripts of the paper's evaluation
// workloads: Gradient Descent (GD), Davidon-Fletcher-Powell (DFP),
// Broyden-Fletcher-Goldfarb-Shanno (BFGS) — all solving the least-squares
// problem min ‖Ax − b‖² as in §2.1 — plus GNMF, the §6.3.3 stress case.
// Scripts are parameterized by iteration count.
package algorithms

import (
	"fmt"

	"remac/internal/lang"
)

// Name identifies a workload.
type Name string

// Workload names used throughout the experiments.
const (
	GD         Name = "GD"
	DFP        Name = "DFP"
	BFGS       Name = "BFGS"
	GNMF       Name = "GNMF"
	PartialDFP Name = "PartialDFP"
)

// All lists the full algorithms (PartialDFP is a sub-expression benchmark).
var All = []Name{GD, DFP, BFGS, GNMF}

// DefaultIterations returns the loop trip count used in the experiments:
// quasi-Newton methods converge in few iterations; first-order methods need
// many.
func DefaultIterations(n Name) int {
	switch n {
	case GD:
		return 100
	case GNMF:
		return 50
	default:
		return 15
	}
}

// Script returns the DML source for a workload with the given iteration
// count.
func Script(n Name, iterations int) (string, error) {
	switch n {
	case GD:
		return gdScript(iterations), nil
	case DFP:
		return dfpScript(iterations), nil
	case BFGS:
		return bfgsScript(iterations), nil
	case GNMF:
		return gnmfScript(iterations), nil
	case PartialDFP:
		return partialDFPScript(), nil
	default:
		return "", fmt.Errorf("algorithms: unknown workload %q", n)
	}
}

// MustProgram parses the workload script, panicking on error (the scripts
// are embedded constants; a parse failure is a programming error).
func MustProgram(n Name, iterations int) *lang.Program {
	src, err := Script(n, iterations)
	if err != nil {
		panic(err)
	}
	return lang.MustParse(src)
}

// gdScript is plain gradient descent: x ← x − α·Aᵀ(Ax − b).
// AᵀA and Aᵀb are the implicit loop-constant subexpressions §6.2.2
// discusses: rewriting the gradient as (AᵀA)x − (Aᵀb) trades per-iteration
// passes over A for one pre-loop matrix product.
func gdScript(iters int) string {
	return fmt.Sprintf(`
A = read("A")
b = read("b")
x = read("x0")
alpha = 0.0001
i = 0
while (i < %d) {
    g = t(A) %%*%% (A %%*%% x) - t(A) %%*%% b
    x = x - alpha * g
    i = i + 1
}
`, iters)
}

// dfpScript is the Davidon-Fletcher-Powell update of Equations 1–2.
func dfpScript(iters int) string {
	return fmt.Sprintf(`
#@symmetric H
A = read("A")
b = read("b")
H = read("H0")
x = read("x0")
alpha = 0.0001
i = 0
while (i < %d) {
    g = t(A) %%*%% (A %%*%% x - b)
    d = H %%*%% g
    H = H - (H %%*%% t(A) %%*%% A %%*%% d %%*%% t(d) %%*%% t(A) %%*%% A %%*%% H) / as.scalar(t(d) %%*%% t(A) %%*%% A %%*%% H %%*%% t(A) %%*%% A %%*%% d) + (d %%*%% t(d)) / as.scalar(2 * (t(d) %%*%% t(A) %%*%% A %%*%% d))
    x = x - alpha * d
    i = i + 1
}
`, iters)
}

// bfgsScript is the BFGS inverse-Hessian update with s = −α·Hg and
// y = g' − g (two gradient evaluations per iteration, like the paper's
// implementation atop the same least-squares objective).
func bfgsScript(iters int) string {
	return fmt.Sprintf(`
#@symmetric H
A = read("A")
b = read("b")
H = read("H0")
x = read("x0")
alpha = 0.0001
i = 0
while (i < %d) {
    g = t(A) %%*%% (A %%*%% x - b)
    s = 0 - alpha * (H %%*%% g)
    x = x + s
    gn = t(A) %%*%% (A %%*%% x - b)
    y = gn - g
    sy = as.scalar(t(s) %%*%% y)
    H = H + (sy + as.scalar(t(y) %%*%% H %%*%% y)) * (s %%*%% t(s)) / (sy * sy) - (H %%*%% y %%*%% t(s) + s %%*%% t(y) %%*%% H) / sy
    i = i + 1
}
`, iters)
}

// gnmfScript is Gaussian non-negative matrix factorization with
// multiplicative updates plus the reconstruction objective — the
// combinatorial stress case of §6.3.3. The W·H product appears in the
// objective and (as a window) inside both update chains, so the search
// space of combinations explodes.
func gnmfScript(iters int) string {
	return fmt.Sprintf(`
V = read("V")
W = read("W0")
H = read("H0")
i = 0
obj = 0
while (i < %d) {
    # Reconstruction loss via the trace expansion (never materializes WH):
    # ||V - WH||^2 = sum(V*V) - 2 tr(H' W'V) + tr((W'W)(HH'))
    obj = sum(V * V) - 2 * sum((t(W) %%*%% V) * H) + sum((t(W) %%*%% W) * (H %%*%% t(H)))
    H = H * (t(W) %%*%% V) / (t(W) %%*%% W %%*%% H)
    W = W * (V %%*%% t(H)) / (W %%*%% H %%*%% t(H))
    i = i + 1
}
`, iters)
}

// partialDFPScript is the longest DFP subexpression the paper's SPORES
// build supports: dᵀAᵀAHAᵀAd, evaluated once (no loop).
func partialDFPScript() string {
	return `
#@symmetric H
A = read("A")
H = read("H0")
d = read("x0")
r = t(d) %*% t(A) %*% A %*% H %*% t(A) %*% A %*% d
`
}
