// Package lang implements the DML-like scripting language ReMac compiles:
// assignments, while-loops, linear-algebra expressions with matrix
// multiplication (%*%), element-wise operators, transposition and a small
// builtin set. It mirrors the slice of SystemDS's DML that the paper's
// algorithms (GD, DFP, BFGS, GNMF) use.
package lang

import (
	"fmt"
	"strings"
)

// Program is a parsed script: a statement list plus script pragmas.
type Program struct {
	Stmts []Stmt
	// Symmetric lists matrix symbols declared symmetric via the
	// `#@symmetric X` pragma. Symmetry lets the optimizer's canonical keys
	// match subexpressions hidden by transposition (e.g. AH vs HAᵀ).
	Symmetric map[string]bool
}

// Stmt is a statement node.
type Stmt interface{ stmt() }

// Assign binds the value of Expr to Name.
type Assign struct {
	Name string
	Expr Expr
}

// While loops over Body while Cond holds.
type While struct {
	Cond Expr
	Body []Stmt
}

func (*Assign) stmt() {}
func (*While) stmt()  {}

// Expr is an expression node.
type Expr interface {
	expr()
	// String renders the expression in source syntax.
	String() string
}

// Num is a numeric literal.
type Num struct{ V float64 }

// Ref references a variable.
type Ref struct{ Name string }

// Str is a string literal (only used as read() argument).
type Str struct{ V string }

// Bin is a binary operation. Op is one of
// "+", "-", "*", "/", "%*%", "<", ">", "<=", ">=", "==", "!=".
type Bin struct {
	Op   string
	L, R Expr
}

// Un is a unary operation; Op is "-".
type Un struct {
	Op string
	X  Expr
}

// Call invokes a builtin: t, sum, as.scalar, read, nrow, ncol, sqrt, abs.
type Call struct {
	Fn   string
	Args []Expr
}

func (*Num) expr()  {}
func (*Ref) expr()  {}
func (*Str) expr()  {}
func (*Bin) expr()  {}
func (*Un) expr()   {}
func (*Call) expr() {}

// String implements Expr.
func (n *Num) String() string { return trimFloat(n.V) }

// String implements Expr.
func (r *Ref) String() string { return r.Name }

// String implements Expr.
func (s *Str) String() string { return fmt.Sprintf("%q", s.V) }

// String implements Expr.
func (b *Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L.String(), b.Op, b.R.String())
}

// String implements Expr.
func (u *Un) String() string { return fmt.Sprintf("(%s%s)", u.Op, u.X.String()) }

// String implements Expr.
func (c *Call) String() string {
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", c.Fn, strings.Join(args, ", "))
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}

// Builtins lists the supported call targets.
var Builtins = map[string]int{ // name -> arity
	"t":         1,
	"sum":       1,
	"as.scalar": 1,
	"read":      1,
	"nrow":      1,
	"ncol":      1,
	"sqrt":      1,
	"abs":       1,
}

// Loop returns the program's single while loop and the statements before
// and after it. Programs with no loop return nil for the loop.
func (p *Program) Loop() (pre []Stmt, loop *While, post []Stmt) {
	for i, s := range p.Stmts {
		if w, ok := s.(*While); ok {
			return p.Stmts[:i], w, p.Stmts[i+1:]
		}
	}
	return p.Stmts, nil, nil
}

// AssignedIn returns the set of variable names assigned anywhere in stmts
// (including nested loops).
func AssignedIn(stmts []Stmt) map[string]bool {
	out := map[string]bool{}
	var walk func([]Stmt)
	walk = func(ss []Stmt) {
		for _, s := range ss {
			switch s := s.(type) {
			case *Assign:
				out[s.Name] = true
			case *While:
				walk(s.Body)
			}
		}
	}
	walk(stmts)
	return out
}
