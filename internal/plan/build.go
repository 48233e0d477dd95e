package plan

import (
	"fmt"

	"remac/internal/lang"
)

// StmtPlan is a statement lowered to a plan tree.
type StmtPlan struct {
	// Target is the assigned variable.
	Target string
	// TargetSym is the versioned symbol this statement defines ("H#1" for a
	// shadowing reassignment); the engine binds it and promotes to Target at
	// iteration end, so inlined references to the pre-update value stay
	// correct.
	TargetSym string
	// Tree is the right-hand side with upstream definitions inlined (the
	// representation the redundancy search scans).
	Tree *Node
	// Raw is the right-hand side as written, without inlining — the form
	// the SystemDS-style baselines execute statement by statement.
	Raw *Node
	// Inlined reports that downstream statements absorbed this definition,
	// so the redundancy search does not treat it as a separate root.
	Inlined bool
	// Src is the original AST statement (the engine executes these).
	Src *lang.Assign
}

// Plans is a whole program lowered for optimization.
type Plans struct {
	Pre  []StmtPlan
	Body []StmtPlan
	Post []StmtPlan
	// Loop is the source while-loop, nil if the program is straight-line.
	Loop *lang.While
	// LoopConst holds symbols whose values cannot change inside the loop
	// (never assigned in the loop body) — the explicit loop-constant labels
	// of search step 1*.
	LoopConst map[string]bool
	// Symmetric holds symbols declared or inferred symmetric.
	Symmetric map[string]bool
}

// Build lowers a parsed program. Matrix inputs and their shapes are not
// needed at this stage; shape checking happens against a Resolver later.
//
// Inside the loop body, assignments whose definitions do not reference
// their own previous value are inlined into later statements (the paper's
// d = Hg substitution); loop-carried variables (H = H - ...) stay as leaf
// symbols, and any use after their re-assignment within the same iteration
// references a versioned symbol so values from different program points
// never unify.
func Build(prog *lang.Program) (*Plans, error) {
	pre, loop, post := prog.Loop()
	p := &Plans{Loop: loop, Symmetric: map[string]bool{}}
	for s := range prog.Symmetric {
		p.Symmetric[s] = true
	}

	p.LoopConst = map[string]bool{}
	var bodyAssigned map[string]bool
	if loop != nil {
		bodyAssigned = lang.AssignedIn(loop.Body)
	} else {
		bodyAssigned = map[string]bool{}
	}
	// Everything not assigned in the loop body is loop-constant.
	isLoopConst := func(sym string) bool { return !bodyAssigned[BaseSym(sym)] }

	lower := func(stmts []lang.Stmt, inLoop bool) ([]StmtPlan, error) {
		b := &builder{
			inline:      map[string]*Node{},
			version:     map[string]int{},
			used:        map[string]bool{},
			referenced:  map[string]bool{},
			isLoopConst: isLoopConst,
			inLoop:      inLoop,
		}
		var out []StmtPlan
		for _, s := range stmts {
			a, ok := s.(*lang.Assign)
			if !ok {
				return nil, fmt.Errorf("plan: only one loop per program is supported")
			}
			sp, err := b.assign(a)
			if err != nil {
				return nil, err
			}
			out = append(out, sp)
		}
		// A statement absorbed into a downstream tree by inlining is not a
		// separate search root — its expression already appears downstream.
		for i := range out {
			if b.used[out[i].Target] {
				out[i].Inlined = true
			}
		}
		return out, nil
	}

	var err error
	if p.Pre, err = lower(pre, false); err != nil {
		return nil, err
	}
	if loop != nil {
		if p.Body, err = lower(loop.Body, true); err != nil {
			return nil, err
		}
	}
	if p.Post, err = lower(post, false); err != nil {
		return nil, err
	}
	// Record the loop-constant label of every symbol the loop body touches
	// (search step 1*).
	for _, sp := range p.Body {
		sp.Tree.Walk(func(n *Node) {
			if n.Kind == Leaf {
				p.LoopConst[BaseSym(n.Sym)] = n.LoopConst
			}
		})
	}
	return p, nil
}

// BaseSym strips the "#n" version suffix.
func BaseSym(sym string) string {
	for i := 0; i < len(sym); i++ {
		if sym[i] == '#' {
			return sym[:i]
		}
	}
	return sym
}

type builder struct {
	inline      map[string]*Node // definitions eligible for substitution
	version     map[string]int   // re-assignment counters for loop-carried vars
	used        map[string]bool  // inlined definitions actually substituted
	referenced  map[string]bool  // symbols whose current value was referenced
	isLoopConst func(string) bool
	inLoop      bool
}

func (b *builder) assign(a *lang.Assign) (StmtPlan, error) {
	tree, err := b.expr(a.Expr)
	if err != nil {
		return StmtPlan{}, fmt.Errorf("plan: in %s = ...: %w", a.Name, err)
	}
	raw, err := (&builder{isLoopConst: b.isLoopConst, inline: map[string]*Node{}, used: map[string]bool{}, referenced: map[string]bool{}}).expr(a.Expr)
	if err != nil {
		return StmtPlan{}, fmt.Errorf("plan: in %s = ...: %w", a.Name, err)
	}
	sp := StmtPlan{Target: a.Name, Tree: tree, Raw: raw, Src: a}
	selfRef := false
	tree.Walk(func(n *Node) {
		if n.Kind == Leaf && BaseSym(n.Sym) == a.Name {
			selfRef = true
		}
	})
	if b.inLoop && !selfRef && productChain(tree) {
		// Inlinable: later statements see the definition. Only pure
		// multiplication chains are substituted (the paper's d = Hg);
		// inlining additive definitions would explode the expansion into
		// exponentially many blocks without revealing new chain windows.
		b.inline[a.Name] = tree
	} else {
		delete(b.inline, a.Name)
		// If the variable's previous value was already referenced in this
		// body (a loop-carried update like H = H - ...), later uses must
		// not unify with those references: they get a versioned symbol.
		if b.inLoop && (selfRef || b.referenced[a.Name]) {
			b.version[a.Name]++
		}
		b.referenced[a.Name] = false
	}
	sp.TargetSym = b.symFor(a.Name)
	return sp, nil
}

func (b *builder) symFor(name string) string {
	if v := b.version[name]; v > 0 {
		return fmt.Sprintf("%s#%d", name, v)
	}
	return name
}

func (b *builder) expr(e lang.Expr) (*Node, error) {
	switch e := e.(type) {
	case *lang.Num:
		return NewConst(e.V), nil
	case *lang.Str:
		return nil, fmt.Errorf("string literal in expression")
	case *lang.Ref:
		if def, ok := b.inline[e.Name]; ok {
			b.used[e.Name] = true
			return def, nil
		}
		b.referenced[e.Name] = true
		sym := b.symFor(e.Name)
		return NewLeaf(sym, b.isLoopConst(sym)), nil
	case *lang.Un:
		x, err := b.expr(e.X)
		if err != nil {
			return nil, err
		}
		return NewUn(Neg, x), nil
	case *lang.Bin:
		l, err := b.expr(e.L)
		if err != nil {
			return nil, err
		}
		r, err := b.expr(e.R)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case "+":
			return NewBin(Add, l, r), nil
		case "-":
			return NewBin(Sub, l, r), nil
		case "*":
			return NewBin(EMul, l, r), nil
		case "/":
			return NewBin(EDiv, l, r), nil
		case "%*%":
			return NewBin(MMul, l, r), nil
		default:
			return nil, fmt.Errorf("operator %q not allowed in assignments", e.Op)
		}
	case *lang.Call:
		switch e.Fn {
		case "read":
			s, ok := e.Args[0].(*lang.Str)
			if !ok {
				return nil, fmt.Errorf("read() needs a string literal")
			}
			return NewLeaf(s.V, b.isLoopConst(s.V)), nil
		case "t":
			x, err := b.expr(e.Args[0])
			if err != nil {
				return nil, err
			}
			return NewUn(Trans, x), nil
		case "sum":
			x, err := b.expr(e.Args[0])
			if err != nil {
				return nil, err
			}
			return NewUn(SumAll, x), nil
		case "as.scalar":
			x, err := b.expr(e.Args[0])
			if err != nil {
				return nil, err
			}
			return NewUn(AsScalar, x), nil
		case "sqrt":
			x, err := b.expr(e.Args[0])
			if err != nil {
				return nil, err
			}
			return NewUn(Sqrt, x), nil
		case "abs":
			x, err := b.expr(e.Args[0])
			if err != nil {
				return nil, err
			}
			return NewUn(Abs, x), nil
		case "nrow", "ncol":
			x, err := b.expr(e.Args[0])
			if err != nil {
				return nil, err
			}
			if e.Fn == "nrow" {
				return NewUn(NRows, x), nil
			}
			return NewUn(NCols, x), nil
		}
		return nil, fmt.Errorf("unknown function %q", e.Fn)
	}
	return nil, fmt.Errorf("unsupported expression %T", e)
}

// SearchRoots returns the plan trees the redundancy search scans: the
// non-inlined loop-body statements (for loop programs) or all statements
// (straight-line programs).
func (p *Plans) SearchRoots() []*Node {
	stmts := p.Body
	if p.Loop == nil {
		stmts = p.Pre
	}
	var roots []*Node
	for _, sp := range stmts {
		if sp.Inlined {
			continue
		}
		roots = append(roots, sp.Tree)
	}
	return roots
}

// productChain reports whether a tree is a pure multiplication chain over
// leaves (transposes and scalar factors allowed) — the inlining-eligible
// shape.
func productChain(n *Node) bool {
	switch n.Kind {
	case Leaf, Const:
		return true
	case MMul, EMul:
		return productChain(n.L()) && productChain(n.R())
	case Trans, Neg:
		return productChain(n.L())
	default:
		return false
	}
}
