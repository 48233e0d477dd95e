package lang

import (
	"strings"
	"testing"
)

const dfpLike = `
#@symmetric H
A = read("cri2")
b = read("cri2_y")
H = read("H0")
x = read("x0")
i = 0
while (i < 20) {
    g = t(A) %*% (A %*% x - b)
    d = H %*% g
    H = H - (H %*% t(A) %*% A %*% d %*% t(d) %*% t(A) %*% A %*% H) / as.scalar(t(d) %*% t(A) %*% A %*% H %*% t(A) %*% A %*% d) + (d %*% t(d)) / as.scalar(2 * (t(d) %*% t(A) %*% A %*% d))
    x = x - 0.1 * d
    i = i + 1
}
`

func TestParseDFPLike(t *testing.T) {
	p, err := Parse(dfpLike)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !p.Symmetric["H"] {
		t.Error("@symmetric H pragma not recorded")
	}
	pre, loop, post := p.Loop()
	if loop == nil {
		t.Fatal("loop not found")
	}
	if len(pre) != 5 {
		t.Errorf("pre statements = %d, want 5", len(pre))
	}
	if len(post) != 0 {
		t.Errorf("post statements = %d, want 0", len(post))
	}
	if len(loop.Body) != 5 {
		t.Errorf("loop body statements = %d, want 5", len(loop.Body))
	}
	reads := p.Reads()
	if len(reads) != 4 || reads[0] != "cri2" {
		t.Errorf("Reads() = %v", reads)
	}
}

func TestPrecedence(t *testing.T) {
	p := MustParse(`y = a + b %*% c * 2`)
	// %*% and * bind tighter than +; left-assoc within the same level:
	// a + (((b %*% c) * 2))
	a := p.Stmts[0].(*Assign)
	bin, ok := a.Expr.(*Bin)
	if !ok || bin.Op != "+" {
		t.Fatalf("top op = %v", a.Expr)
	}
	right, ok := bin.R.(*Bin)
	if !ok || right.Op != "*" {
		t.Fatalf("right = %v", bin.R)
	}
	inner, ok := right.L.(*Bin)
	if !ok || inner.Op != "%*%" {
		t.Fatalf("inner = %v", right.L)
	}
}

func TestUnaryMinus(t *testing.T) {
	p := MustParse(`y = -x + 3`)
	bin := p.Stmts[0].(*Assign).Expr.(*Bin)
	if bin.Op != "+" {
		t.Fatalf("op = %q", bin.Op)
	}
	if _, ok := bin.L.(*Un); !ok {
		t.Fatalf("left = %v, want unary", bin.L)
	}
}

func TestComparisonInCondition(t *testing.T) {
	p := MustParse("while (i <= 10) { i = i + 1 }")
	w := p.Stmts[0].(*While)
	cond := w.Cond.(*Bin)
	if cond.Op != "<=" {
		t.Fatalf("cond op = %q", cond.Op)
	}
}

func TestCallParsing(t *testing.T) {
	p := MustParse(`v = as.scalar(t(x) %*% x)`)
	call := p.Stmts[0].(*Assign).Expr.(*Call)
	if call.Fn != "as.scalar" || len(call.Args) != 1 {
		t.Fatalf("call = %v", call)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`y = `,                       // missing expression
		`y = foo(1)`,                 // unknown function
		`y = t(a, b)`,                // wrong arity
		`while (x) y = 2`,            // missing brace
		`y = (1 + 2`,                 // unbalanced paren
		`y = "unterminated`,          // bad string
		`y = 1 ! 2`,                  // stray !
		`y = a % b`,                  // stray %
		`2 = x`,                      // assignment to number
		`y = 1..2e`,                  // bad number
		`while (i < 10) { i = i + 1`, // unterminated block
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	_, err := Parse("a = 1\nb = 2\nc = foo(3)\n")
	if err == nil || !strings.Contains(err.Error(), "lang:3") {
		t.Fatalf("error = %v, want line 3", err)
	}
}

func TestStringRendering(t *testing.T) {
	p := MustParse(`y = t(A) %*% (x + 1) * 2`)
	got := p.Stmts[0].(*Assign).Expr.String()
	want := "((t(A) %*% (x + 1)) * 2)"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestScientificNumbers(t *testing.T) {
	p := MustParse(`y = 1.5e-3 + 2E2`)
	bin := p.Stmts[0].(*Assign).Expr.(*Bin)
	if bin.L.(*Num).V != 1.5e-3 || bin.R.(*Num).V != 200 {
		t.Fatalf("numbers parsed wrong: %v", bin)
	}
}

func TestAssignedInAndRefsIn(t *testing.T) {
	p := MustParse(dfpLike)
	_, loop, _ := p.Loop()
	assigned := AssignedIn(loop.Body)
	for _, name := range []string{"g", "d", "H", "x", "i"} {
		if !assigned[name] {
			t.Errorf("%s should be assigned in loop", name)
		}
	}
	if assigned["A"] {
		t.Error("A is not assigned in loop")
	}
	refs := RefsIn(loop.Body[0].(*Assign).Expr)
	for _, name := range []string{"A", "x", "b"} {
		if !refs[name] {
			t.Errorf("g's definition should reference %s", name)
		}
	}
}

func TestNestedLoopsAssignedIn(t *testing.T) {
	p := MustParse(`
i = 0
while (i < 2) {
    j = 0
    while (j < 2) {
        k = j
        j = j + 1
    }
    i = i + 1
}`)
	assigned := AssignedIn(p.Stmts)
	for _, name := range []string{"i", "j", "k"} {
		if !assigned[name] {
			t.Errorf("%s should be assigned (nested)", name)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustParse("y = ")
}

func TestCommentsSkipped(t *testing.T) {
	p := MustParse("# plain comment\na = 1 # trailing\nb = 2")
	if len(p.Stmts) != 2 {
		t.Fatalf("stmts = %d, want 2", len(p.Stmts))
	}
	if len(p.Symmetric) != 0 {
		t.Error("plain comments must not create pragmas")
	}
}

func TestNRowNColParse(t *testing.T) {
	p := MustParse(`n = nrow(A)
m = ncol(t(A) %*% A)`)
	if len(p.Stmts) != 2 {
		t.Fatalf("stmts = %d", len(p.Stmts))
	}
	c := p.Stmts[0].(*Assign).Expr.(*Call)
	if c.Fn != "nrow" {
		t.Fatalf("fn = %q", c.Fn)
	}
}

// RefsIn returns the set of variable names referenced by an expression.
func RefsIn(e Expr) map[string]bool {
	out := map[string]bool{}
	var walk func(Expr)
	walk = func(e Expr) {
		switch e := e.(type) {
		case *Ref:
			out[e.Name] = true
		case *Bin:
			walk(e.L)
			walk(e.R)
		case *Un:
			walk(e.X)
		case *Call:
			for _, a := range e.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return out
}

// Reads returns the dataset names the program reads, in order of first
// appearance.
func (p *Program) Reads() []string {
	seen := map[string]bool{}
	var names []string
	var visitExpr func(Expr)
	visitExpr = func(e Expr) {
		switch e := e.(type) {
		case *Bin:
			visitExpr(e.L)
			visitExpr(e.R)
		case *Un:
			visitExpr(e.X)
		case *Call:
			if e.Fn == "read" && len(e.Args) == 1 {
				if s, ok := e.Args[0].(*Str); ok && !seen[s.V] {
					seen[s.V] = true
					names = append(names, s.V)
				}
			}
			for _, a := range e.Args {
				visitExpr(a)
			}
		}
	}
	var visitStmts func([]Stmt)
	visitStmts = func(stmts []Stmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *Assign:
				visitExpr(s.Expr)
			case *While:
				visitExpr(s.Cond)
				visitStmts(s.Body)
			}
		}
	}
	visitStmts(p.Stmts)
	return names
}
