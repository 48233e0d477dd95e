package opt

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"remac/internal/chain"
	"remac/internal/costgraph"
	"remac/internal/lang"
	"remac/internal/plan"
	"remac/internal/search"
)

// The schedule: Compiled.Schedule lowers the pre-loop statements, the loop
// body (raw or normalized) and the post-loop statements into one flat list of
// instructions on the plan's first run, and every later run of the plan reads
// that list; each tree is walked in the order a recursive evaluation takes it:
// every kernel call, charge and span comes in that order. Operands pass on a
// value stack; what outlives an expression lives in numbered slots: the
// names, and the reuse slots, one per value. A planned one — an option's value
// and, under Explicit and Conservative, a subtree or chain span repeated in its
// statement list (stock SystemDS's identical-subtree CSE) — is filled on its
// first read, an OpEnter that skips the producer when the slot is full, and
// read uncharged; a repeat's reads are charged. A clear lets go like a
// rebinding does: a value the run made is recycled when its last holder lets
// go. See lifetimes.

// Opcode is what an instruction does.
type Opcode uint8

const (
	OpStmt   Opcode = iota // begin the statement span of Label
	OpBind                 // pop into name slot A, end the span, clear the slots of Clears
	OpLoad                 // push name slot A, else B, else the input named B
	OpConst                // push the scalar Val
	OpEnter                // slot A full (or shared under key Label): push it, skip N
	OpFill                 // slot A ← the top of the stack (A < 0: keep nothing; Keep: for the run)
	OpFusedT               // top ← its fused transpose
	OpT                    // top ← its transpose
	OpUnary                // top ← Kind(top)
	OpBinary               // l, r ← Kind(l, r)
	OpMul                  // l, r ← l·r (Swap: r·l) under the TSMM hint
	OpScale                // v, s ← s·v
	OpAdd                  // l, r ← l + r
)

// Instr is one instruction of a schedule.
type Instr struct {
	Kind    plan.Kind
	A, B, N int
	Val     float64
	Label   string
	Clears  []int
	Op      Opcode
	// Entry marks where an evaluation starts: the run checks for
	// cancellation and integrity errors before the instruction. A Repeat
	// operator takes slot A's cells, or fills it; a Keep fill is the run's.
	Entry, TSMM, Swap, Repeat, Keep bool
}

// Schedule is a compiled plan lowered for the engine. Every run of the plan,
// concurrent ones included, reads the one schedule and none writes to it.
type Schedule struct {
	// Code is the pre-loop statements, the loop body and the post-loop
	// statements, ending at Ends.
	Code []Instr
	Ends [3]int
	// Labels gives each slot's label (a name's is the name); Names finds a
	// name's slot; the end of a run clears the reuse slots of Clears.
	Labels []string
	Names  map[string]int
	Clears []int
	// Cond is the loop condition, nil for a straight-line program; each
	// name it reads, and its base name, has a slot.
	Cond lang.Expr
}

// Schedule returns the plan lowered for the engine: built by the first call,
// kept with its error, and shared by every later one.
func (c *Compiled) Schedule() (*Schedule, error) {
	c.lowered.Do(func() { c.schedule, c.lowerErr = c.lower() })
	return c.schedule, c.lowerErr
}

// stmt is a statement of a list: its tree, the name it binds and its label;
// a promotion has no tree and binds target to the value of from.
type stmt struct {
	tree                *plan.Node
	target, label, from string
}

type lowering struct {
	*Schedule
	c         *Compiled
	blocks    map[*plan.Node]*costgraph.BlockPlan
	producers map[string]*costgraph.ProducerPlan
	options   map[string]int // option slots by key
	// Per list: the repeated subtree keys (nil unless Explicit or
	// Conservative) and their slots.
	explicit map[string]int
	subtrees map[string]int
	entry    bool
	err      error
}

// lower builds the schedule; a promotion is the load and bind of a statement
// with no span.
func (c *Compiled) lower() (*Schedule, error) {
	l := &lowering{Schedule: &Schedule{Names: map[string]int{}}, c: c, blocks: map[*plan.Node]*costgraph.BlockPlan{},
		producers: map[string]*costgraph.ProducerPlan{}, options: map[string]int{}}
	if c.Decision != nil {
		for _, bp := range c.Decision.BlockPlans {
			l.blocks[bp.Block.Origin] = bp
		}
		for _, pp := range c.Decision.Producers {
			l.producers[pp.Option.Key] = pp
		}
	}
	// The SystemDS-style baselines run every body statement's raw tree; the
	// option strategies run the normalized trees of the statements nothing
	// inlined, bind versioned symbols — inlined references to the pre-update
	// value keep resolving to the old binding — and promote them at the end
	// of the body, so the next iteration and the loop condition see them.
	sps := [3][]plan.StmtPlan{c.plans.Pre, c.plans.Body, c.plans.Post}
	var lists [3][]stmt
	var promote []stmt
	for i := range sps {
		for j, sp := range sps[i] {
			switch {
			case i != 1:
				lists[i] = append(lists[i], stmt{tree: sp.Raw, target: sp.Target, label: sp.Target})
			case c.usesRawBody:
				lists[1] = append(lists[1], stmt{tree: c.normalizedBody[j], target: sp.Target, label: sp.Target})
			case !sp.Inlined:
				lists[1] = append(lists[1], stmt{tree: c.normalizedBody[len(lists[1])], target: sp.TargetSym, label: sp.Target})
				if sp.TargetSym != sp.Target {
					promote = append(promote, stmt{target: sp.Target, from: sp.TargetSym})
				}
			}
		}
	}
	lists[1] = append(lists[1], promote...)
	for i, list := range lists {
		if err := l.list(list, sps[i]); err != nil {
			return nil, err
		}
		l.Ends[i] = len(l.Code)
	}
	if c.plans.Loop != nil {
		l.Cond = c.plans.Loop.Cond
		l.cond(l.Cond)
	}
	l.lifetimes()
	return l.Schedule, nil
}

// cond gives each name the loop condition reads, and its base name, a slot.
func (l *lowering) cond(x lang.Expr) {
	switch x := x.(type) {
	case *lang.Ref:
		l.slot(x.Name)
		l.slot(plan.BaseSym(x.Name))
	case *lang.Un:
		l.cond(x.X)
	case *lang.Bin:
		l.cond(x.L)
		l.cond(x.R)
	case *lang.Call:
		for _, a := range x.Args {
			l.cond(a)
		}
	}
}

// slotOf returns the slot of key in m, made on first use.
func (l *lowering) slotOf(m map[string]int, key string) int {
	k, ok := m[key]
	if !ok {
		k = len(l.Labels)
		l.Labels = append(l.Labels, key)
		m[key] = k
	}
	return k
}

// slot returns the slot of a name.
func (l *lowering) slot(name string) int { return l.slotOf(l.Names, name) }

// list lowers one statement list.
func (l *lowering) list(stmts []stmt, sps []plan.StmtPlan) error {
	l.explicit, l.subtrees = nil, map[string]int{}
	if s := l.c.Config.Strategy; s == Explicit || s == Conservative {
		// Explicit is stock SystemDS's identical-subtree CSE; Conservative
		// subsumes it ("applies CSE after all optimizations improving the
		// operator order", §6.3.1). Each statement list is a DAG of its own.
		roots := make([]*plan.Node, len(sps))
		for i, sp := range sps {
			roots[i] = sp.Raw
		}
		l.explicit = plan.ExplicitCSEKeys(roots)
	}
	for _, st := range stmts {
		if st.tree == nil {
			l.load(st.from)
		} else {
			l.emit(Instr{Op: OpStmt, Label: st.label})
			if l.node(st.tree); l.err != nil {
				return fmt.Errorf("opt: %s: %w", st.label, l.err)
			}
		}
		l.emit(Instr{Op: OpBind, A: l.slot(st.target)})
	}
	return nil
}

func (l *lowering) emit(in Instr) int {
	in.Entry, l.entry = l.entry, false
	l.Code = append(l.Code, in)
	return len(l.Code) - 1
}

// read lowers a read of reuse slot k: an OpEnter, what produce emits, the
// OpFill. A value a run may share goes under key share; keep: the run's.
func (l *lowering) read(k int, share string, keep bool, produce func()) {
	enter := l.emit(Instr{Op: OpEnter, A: k, Label: share})
	produce()
	fill := l.emit(Instr{Op: OpFill, A: k, Label: share, Keep: keep})
	l.Code[enter].N = fill - enter
}

// node lowers a plan tree: a chain region with a resolved block plan through
// it, a repeated subtree through its slot, anything else structurally.
func (l *lowering) node(n *plan.Node) {
	l.entry = true
	if bp, ok := l.blocks[n]; ok {
		l.op(bp.Block, bp.Root)
		for _, dep := range bp.Block.ScalarDeps {
			l.node(dep)
			l.emit(Instr{Op: OpScale})
		}
		return
	}
	if l.explicit != nil && len(n.Kids) > 0 {
		if key := n.Key(); l.explicit[key] > 0 {
			l.read(l.slotOf(l.subtrees, key), "", false, func() { l.structural(n) })
			return
		}
	}
	l.structural(n)
}

func (l *lowering) structural(n *plan.Node) {
	switch n.Kind {
	case plan.Leaf:
		l.load(n.Sym)
		return
	case plan.Const:
		l.emit(Instr{Op: OpConst, Val: n.Val})
		return
	}
	for _, k := range n.Kids {
		l.node(k)
	}
	switch {
	case n.Kind == plan.Trans && n.L().Kind == plan.Leaf:
		l.emit(Instr{Op: OpFusedT}) // like chain atoms
	case n.Kind == plan.Trans:
		l.emit(Instr{Op: OpT})
	case len(n.Kids) == 1:
		l.emit(Instr{Op: OpUnary, Kind: n.Kind})
	default:
		l.emit(Instr{Op: OpBinary, Kind: n.Kind})
	}
}

func (l *lowering) load(sym string) {
	l.emit(Instr{Op: OpLoad, A: l.slot(sym), B: l.slot(plan.BaseSym(sym)), Label: sym})
}

// op lowers one node of a block plan: a reuse leaf reads its option's slot,
// an atom leaf resolves the symbol, an interior node multiplies — through a
// span slot under Explicit and Conservative: SystemDS's identical-subtree CSE
// over the operator DAG the order optimizer produced.
func (l *lowering) op(b *chain.Block, n *costgraph.OpNode) {
	l.entry = true
	switch {
	case n.ReuseOf != nil:
		l.option(n.ReuseOf)
		if n.Flipped {
			l.emit(Instr{Op: OpT})
		}
		return
	case n.Lo == n.Hi:
		l.atom(b.Atoms[n.Lo])
		return
	}
	lhs, rhs := b.Atoms[n.L.Lo], b.Atoms[n.R.Lo]
	mul := func() {
		l.op(b, n.L)
		l.op(b, n.R)
		l.emit(Instr{Op: OpMul, TSMM: n.L.IsLeaf() && n.R.IsLeaf() && lhs.Sym == rhs.Sym && lhs.T != rhs.T})
	}
	if l.explicit == nil {
		mul()
		return
	}
	l.read(l.slotOf(l.subtrees, chain.SpanKey(b.Atoms[n.Lo:n.Hi+1])), "", false, mul)
}

func (l *lowering) atom(a chain.Atom) {
	if a.Opaque {
		l.node(a.Node)
		if a.T {
			l.emit(Instr{Op: OpT})
		}
		return
	}
	l.load(a.Sym)
	if a.T {
		// Fused: chain atoms never materialize a distributed transpose.
		l.emit(Instr{Op: OpFusedT})
	}
}

// option lowers a read of a selected option's slot, whose producer runs on
// the first read: a cross-block group sums its first two occurrences, any
// other option runs its producer plan over the first occurrence, normalized
// to the canonical orientation. The run keeps an LSE value, and its read
// carries its SharedKey for a source of shared values (engine.RunOptions.LSE).
func (l *lowering) option(o *search.Option) {
	pp, ok := l.producers[o.Key]
	if !ok {
		l.err = fmt.Errorf("no producer for option %q", o.Key)
		return
	}
	l.read(l.slotOf(l.options, o.Key), SharedKey(pp), o.Kind == search.LSE, func() {
		blocks := l.c.Coords.Blocks
		if o.Kind != search.CSEGroup {
			occ := o.Occs[0]
			if l.op(blocks[occ.Block], pp.Root); occ.Flipped {
				l.emit(Instr{Op: OpT})
			}
			return
		}
		if len(o.Occs) < 2 {
			l.err = fmt.Errorf("group option %q has %d occurrences", o.Key, len(o.Occs))
			return
		}
		for _, occ := range o.Occs[:2] {
			// Right-associatively: a group member's order is not resolved
			// by a block plan.
			b := blocks[occ.Block]
			l.atom(b.Atoms[occ.Hi])
			for i := occ.Hi - 1; i >= occ.Lo; i-- {
				l.atom(b.Atoms[i])
				l.emit(Instr{Op: OpMul, Swap: true})
			}
		}
		l.emit(Instr{Op: OpAdd})
	})
}

// value is what a value number stands for: an operator over operands'
// numbers, a load by its slots and their bindings, a constant's bits.
type value struct {
	op   Opcode
	kind plan.Kind
	x, y int
	bits uint64
}

// lifetimes gives every slot its clears: each bind of a name its value reads,
// the end of the run (Clears) and, for a per-iteration slot (a planned one the
// run does not keep), the bind ending its list's last statement that reads
// it. One read once in its list keeps nothing; so does one read only as the
// whole producer of another slot's read, which runs only when that slot, and
// so this one, is empty. It numbers the values as a run of one iteration
// takes them (a full reuse slot skips its producer; a name's binding is
// numbered afresh at each bind, and at the body's and post-loop's entry if
// the body binds it), and marks the repeats, charged as the plan says
// (distmat: Give). A charged operator whose value a reuse slot filled outside
// any producer holds repeats that slot; one whose value no reuse slot holds
// gets a slot of its own, filled by its first computation, if the run may
// compute it again before a name it reads is rebound: twice, or in the body
// over names the body never binds. Nothing in a kept value's producer, which
// runs once a run, is a repeat.
func (l *lowering) lifetimes() {
	// By slot, the name slots its value reads; by bind, the per-iteration
	// slots whose last read it ends.
	reads, ends := map[int][]int{}, map[int][]int{}
	// By instruction, a candidate repeat's number (else -1); the name slots
	// the body binds.
	vals, binds := make([]int, len(l.Code)), map[int]bool{}
	fill := func(e int) *Instr { return &l.Code[e+l.Code[e].N] }
	for i, start := range [3]int{0, l.Ends[0], l.Ends[1]} {
		enters := map[int][]int{}
		for pc := start; pc < l.Ends[i]; pc++ {
			if in := &l.Code[pc]; in.Op == OpEnter {
				enters[in.A] = append(enters[in.A], pc)
			} else if in.Op == OpBind && i == 1 {
				binds[in.A] = true
			}
			vals[pc] = -1
		}
		for k, es := range enters {
			inner := true
			for _, e := range es {
				o := l.Code[e-1]
				inner = inner && o.Op == OpEnter && e-1+o.N == e+l.Code[e].N+1
			}
			switch last := es[len(es)-1]; {
			case fill(last).Keep:
			case len(es) == 1 || inner:
				for _, e := range es {
					fill(e).A = -1
				}
			default:
				for l.Code[last].Op != OpBind {
					last++
				}
				ends[last] = append(ends[last], k)
			}
		}
	}
	clears := func(k, pc int) bool { return slices.Contains(reads[k], l.Code[pc].A) || slices.Contains(ends[pc], k) }
	// By number: the name slots read, sorted, a reuse slot's value or not,
	// and the candidates; by slot, the number filled, and by number the slot
	// filled outside any producer.
	var nreads [][]int
	nums, kept, count, full, held := map[value]int{}, map[int]bool{}, map[int]int{}, map[int]int{}, map[int]int{}
	ver, fresh, stack, depth, once := make([]int, len(l.Labels)), 0, []int(nil), 0, 0
	number := func(v value, a, b []int) int { // a and b: what the operands read
		if _, ok := nums[v]; !ok {
			r := slices.Concat(a, b)
			slices.Sort(r)
			nums[v], nreads = len(nreads), append(nreads, slices.Compact(r))
		}
		return nums[v]
	}
	for pc := 0; pc < len(l.Code); pc++ {
		if pc == l.Ends[0] || pc == l.Ends[1] { // the body's entry is also its end's
			for k := range binds {
				fresh, ver[k] = fresh+1, fresh+1
			}
		}
		in := &l.Code[pc]
		top := len(stack) - 1
		switch in.Op {
		case OpStmt:
		case OpBind:
			stack, fresh, ver[in.A] = stack[:top], fresh+1, fresh+1
			for k, n := range full {
				if clears(k, pc) {
					delete(full, k)
					delete(held, n)
				}
			}
		case OpLoad:
			stack = append(stack, number(value{op: OpLoad, x: in.A, y: in.B, bits: uint64(ver[in.A])<<32 | uint64(ver[in.B])},
				[]int{in.A}, []int{in.B}))
		case OpConst:
			stack = append(stack, number(value{op: OpConst, bits: math.Float64bits(in.Val)}, nil, nil))
		case OpEnter:
			if n, ok := full[in.A]; ok {
				stack = append(stack, n)
				pc += in.N
			} else if depth++; pc >= once && fill(pc).Keep {
				once = pc + in.N
			}
		case OpFill:
			if n := stack[top]; in.A >= 0 {
				full[in.A], kept[n], reads[in.A] = n, true, nreads[n]
				if depth == 1 {
					held[n] = in.A
				}
			}
			depth--
		default:
			v, ry := value{op: in.Op, kind: in.Kind, x: stack[top]}, []int(nil)
			if in.Op >= OpBinary {
				if v.x, v.y = stack[top-1], stack[top]; in.Swap {
					v.x, v.y = v.y, v.x
				}
				stack, top, ry = stack[:top], top-1, nreads[v.y]
			}
			n := number(v, nreads[v.x], ry)
			stack[top] = n
			// Charged ones only: the other unary kinds are scalar arithmetic.
			if in.Op == OpFusedT || in.Op == OpUnary && in.Kind != plan.Neg && in.Kind != plan.SumAll || pc < once {
				continue
			}
			if k, ok := held[n]; ok {
				in.A, in.Repeat = k, true
			} else {
				vals[pc] = n
				count[n]++
			}
		}
	}
	slots := map[string]int{}
	for pc, n := range vals {
		body := pc >= l.Ends[0] && pc < l.Ends[1]
		if n >= 0 && !kept[n] && (count[n] > 1 || body && !slices.ContainsFunc(nreads[n], func(k int) bool { return binds[k] })) {
			k := l.slotOf(slots, "#"+strconv.Itoa(n))
			reads[k], l.Code[pc].A, l.Code[pc].Repeat = nreads[n], k, true
		}
	}
	for pc := range l.Code {
		for k := 0; k < len(l.Labels) && l.Code[pc].Op == OpBind; k++ {
			if clears(k, pc) {
				l.Code[pc].Clears = append(l.Code[pc].Clears, k)
			}
		}
	}
	for k := range l.Labels {
		if _, ok := reads[k]; ok {
			l.Clears = append(l.Clears, k)
		}
	}
}
