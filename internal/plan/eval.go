package plan

import (
	"fmt"
	"math"

	"remac/internal/matrix"
)

// Eval computes the value of a plan tree over plain in-memory matrices.
// Scalars are represented as 1×1 matrices. This is the reference evaluator
// the tests use to assert that every transform and every optimized plan
// preserves values; the simulated-cluster execution path lives in the
// engine package.
func Eval(n *Node, env map[string]*matrix.Matrix) (*matrix.Matrix, error) {
	switch n.Kind {
	case Leaf:
		v, ok := env[BaseSym(n.Sym)]
		if !ok {
			return nil, fmt.Errorf("plan: eval: unbound symbol %q", n.Sym)
		}
		return v, nil
	case Const:
		return matrix.Scalar(n.Val), nil
	case Trans:
		x, err := Eval(n.L(), env)
		if err != nil {
			return nil, err
		}
		return x.Transpose(), nil
	case Neg:
		x, err := Eval(n.L(), env)
		if err != nil {
			return nil, err
		}
		return x.Neg(), nil
	case SumAll:
		x, err := Eval(n.L(), env)
		if err != nil {
			return nil, err
		}
		return matrix.Scalar(x.Sum()), nil
	case AsScalar:
		x, err := Eval(n.L(), env)
		if err != nil {
			return nil, err
		}
		if !x.IsScalar() {
			return nil, fmt.Errorf("plan: as.scalar of %dx%d matrix", x.Rows(), x.Cols())
		}
		return x, nil
	case NRows, NCols:
		x, err := Eval(n.L(), env)
		if err != nil {
			return nil, err
		}
		if n.Kind == NRows {
			return matrix.Scalar(float64(x.Rows())), nil
		}
		return matrix.Scalar(float64(x.Cols())), nil
	case Sqrt, Abs:
		x, err := Eval(n.L(), env)
		if err != nil {
			return nil, err
		}
		if !x.IsScalar() {
			return nil, fmt.Errorf("plan: %v of non-scalar", n.Kind)
		}
		v := x.ScalarValue()
		if n.Kind == Sqrt {
			v = math.Sqrt(v)
		} else {
			v = math.Abs(v)
		}
		return matrix.Scalar(v), nil
	}
	l, err := Eval(n.L(), env)
	if err != nil {
		return nil, err
	}
	r, err := Eval(n.R(), env)
	if err != nil {
		return nil, err
	}
	return ApplyBin(n.Kind, l, r)
}

// ApplyBin applies a binary plan operator to two values, handling
// scalar-matrix broadcasting the way DML does.
func ApplyBin(k Kind, l, r *matrix.Matrix) (*matrix.Matrix, error) {
	switch k {
	case MMul:
		if l.IsScalar() || r.IsScalar() {
			// DML allows scalar %*% only through *; treat as scale for
			// robustness of synthetic plans.
			return scaleBy(l, r), nil
		}
		return l.Mul(r), nil
	case Add:
		if l.IsScalar() && !r.IsScalar() {
			return r.AddScalar(l.ScalarValue()), nil
		}
		if r.IsScalar() && !l.IsScalar() {
			return l.AddScalar(r.ScalarValue()), nil
		}
		return l.Add(r), nil
	case Sub:
		if r.IsScalar() && !l.IsScalar() {
			return l.AddScalar(-r.ScalarValue()), nil
		}
		if l.IsScalar() && !r.IsScalar() {
			return r.Neg().AddScalar(l.ScalarValue()), nil
		}
		return l.Sub(r), nil
	case EMul:
		if l.IsScalar() || r.IsScalar() {
			return scaleBy(l, r), nil
		}
		return l.ElemMul(r), nil
	case EDiv:
		if r.IsScalar() && !l.IsScalar() {
			return l.Scale(1 / r.ScalarValue()), nil
		}
		if l.IsScalar() && r.IsScalar() {
			return matrix.Scalar(l.ScalarValue() / r.ScalarValue()), nil
		}
		if l.IsScalar() {
			return nil, fmt.Errorf("plan: scalar / matrix is not supported")
		}
		return l.ElemDiv(r), nil
	}
	return nil, fmt.Errorf("plan: ApplyBin: not a binary op %v", k)
}

func scaleBy(l, r *matrix.Matrix) *matrix.Matrix {
	if l.IsScalar() {
		return r.Scale(l.ScalarValue())
	}
	return l.Scale(r.ScalarValue())
}
