package opt

import (
	"fmt"
	"math"
	"slices"
	"sort"
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
// names, and the reuse slots — an option's value and, under Explicit and
// Conservative, a subtree or chain span repeated in its statement list (stock
// SystemDS's identical-subtree CSE). A reuse slot is filled on its first read,
// an OpEnter that skips the producer when the slot is full, and cleared (an
// LSE slot never) by the bind ending the last statement of its list that reads
// it, or one assigning a symbol it reads. A clear lets go like a rebinding
// does: a value the run made is recycled when its last holder lets go.
// Those reads are uncharged; a repeat slot's are charged: see repeats.

// Opcode is what an instruction does.
type Opcode uint8

const (
	OpStmt   Opcode = iota // begin the statement span of Label
	OpBind                 // pop into name slot A, end the span, clear the slots of Clears
	OpLoad                 // push name slot A, else B, else the input named B
	OpConst                // push the scalar Val
	OpEnter                // slot A full (or shared under key Label): push it, skip N
	OpFill                 // slot A ← the top of the stack (A < 0: a slot read once)
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
	// operator's value has repeat slot A.
	Entry, TSMM, Swap, Repeat bool
}

// SlotKind is what a slot holds: a name's binding or a reuse slot's value.
type SlotKind uint8

const (
	NameSlot SlotKind = iota
	LSESlot
	CSESlot
	SubtreeSlot
	RepeatSlot
)

// Schedule is a compiled plan lowered for the engine. Every run of the plan,
// concurrent ones included, reads the one schedule and none writes to it.
type Schedule struct {
	// Code is the pre-loop statements, the loop body and the post-loop
	// statements, ending at Ends.
	Code []Instr
	Ends [3]int
	// Kinds and Labels give each slot's kind and label (a name's is the
	// name); Names finds a name's slot.
	Kinds  []SlotKind
	Labels []string
	Names  map[string]int
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

// use is what a statement list does with a reuse slot: the symbols its
// producer reads, the last statement reading it, and where each read's OpFill
// is.
type use struct {
	refs  map[string]bool
	last  int
	fills []int
}

type lowering struct {
	*Schedule
	c         *Compiled
	blocks    map[*plan.Node]*costgraph.BlockPlan
	producers map[string]*costgraph.ProducerPlan
	options   map[string]int // option slots by key
	// Per list: the repeated subtree keys (nil unless Explicit or
	// Conservative) and their slots, and the reuse slots read.
	explicit map[string]int
	subtrees map[string]int
	uses     map[int]*use
	// The statement being lowered.
	stmt  int
	entry bool
	err   error
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
	l.repeats()
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
func (l *lowering) slotOf(m map[string]int, kind SlotKind, key string) int {
	k, ok := m[key]
	if !ok {
		k = len(l.Kinds)
		l.Kinds, l.Labels = append(l.Kinds, kind), append(l.Labels, key)
		m[key] = k
	}
	return k
}

// slot returns the slot of a name.
func (l *lowering) slot(name string) int { return l.slotOf(l.Names, NameSlot, name) }

// list lowers one statement list, and marks after each statement the clears
// of the reuse slots whose lifetime ends there.
func (l *lowering) list(stmts []stmt, sps []plan.StmtPlan) error {
	l.explicit, l.subtrees, l.uses = nil, map[string]int{}, map[int]*use{}
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
	binds := make([]int, len(stmts))
	for s, st := range stmts {
		l.stmt = s
		if st.tree == nil {
			l.load(st.from)
		} else {
			l.emit(Instr{Op: OpStmt, Label: st.label})
			if l.node(st.tree); l.err != nil {
				return fmt.Errorf("opt: %s: %w", st.label, l.err)
			}
		}
		binds[s] = l.emit(Instr{Op: OpBind, A: l.slot(st.target)})
	}
	var slots []int
	for k, u := range l.uses {
		if l.Kinds[k] == SubtreeSlot && len(u.fills) == 1 {
			l.Code[u.fills[0]].A = -1 // read once: nothing to keep
		} else if l.Kinds[k] != LSESlot {
			slots = append(slots, k)
		}
	}
	sort.Ints(slots)
	for s, st := range stmts {
		for _, k := range slots {
			if u := l.uses[k]; s == u.last || s < u.last && u.refs[st.target] {
				l.Code[binds[s]].Clears = append(l.Code[binds[s]].Clears, k)
			}
		}
	}
	return nil
}

func (l *lowering) emit(in Instr) int {
	in.Entry, l.entry = l.entry, false
	l.Code = append(l.Code, in)
	return len(l.Code) - 1
}

// read lowers a read of reuse slot k: an OpEnter, what produce emits, the
// OpFill. An LSE value a run may share with others goes under key share.
func (l *lowering) read(k int, share string, produce func()) {
	enter := l.emit(Instr{Op: OpEnter, A: k, Label: share})
	produce()
	fill := l.emit(Instr{Op: OpFill, A: k, Label: share})
	l.Code[enter].N = fill - enter
	u := l.uses[k]
	if u == nil {
		u = &use{refs: map[string]bool{}}
		for _, in := range l.Code[enter:fill] {
			if in.Op == OpLoad {
				u.refs[in.Label] = true
			}
		}
		l.uses[k] = u
	}
	u.last = l.stmt
	u.fills = append(u.fills, fill)
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
			l.read(l.slotOf(l.subtrees, SubtreeSlot, key), "", func() { l.structural(n) })
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
	l.read(l.slotOf(l.subtrees, SubtreeSlot, chain.SpanKey(b.Atoms[n.Lo:n.Hi+1])), "", mul)
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
// to the canonical orientation. An LSE value's read carries its SharedKey, for
// a run with a source of shared values (engine.RunOptions.LSE).
func (l *lowering) option(o *search.Option) {
	pp, ok := l.producers[o.Key]
	if !ok {
		l.err = fmt.Errorf("no producer for option %q", o.Key)
		return
	}
	kind := CSESlot
	if o.Kind == search.LSE {
		kind = LSESlot
	}
	l.read(l.slotOf(l.options, kind, o.Key), SharedKey(pp), func() {
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

// repeats numbers the values of the operator instructions as a run of one
// iteration takes them (a reuse slot already full skips its producer), and
// gives a repeat slot to each charged one the run may compute again before a
// name it reads is rebound: one computed twice, or one in the body over names
// the body never binds. The first computation fills the slot, which clears at
// every bind of a name it reads; the others are charged as the plan says and
// take its cells (distmat: Give). A name's binding is numbered afresh at each
// bind, and at the body's and post-loop's entry if the body binds it.
func (l *lowering) repeats() {
	nums, binds, full := map[value]int{}, map[int]bool{}, map[int]int{}
	// By number: the repeat slot, the instruction computing it first, and
	// the name slots read, sorted; by name, the repeat slots reading it.
	slots, first, clears := map[int]int{}, map[int]int{}, map[int][]int{}
	var reads [][]int
	ver, fresh, stack := make([]int, len(l.Kinds)), 0, []int(nil)
	number := func(v value, a, b []int) int { // a and b: what the operands read
		if _, ok := nums[v]; !ok {
			r := slices.Concat(a, b)
			slices.Sort(r)
			nums[v], reads = len(reads), append(reads, slices.Compact(r))
		}
		return nums[v]
	}
	mark := func(pc, n int) {
		if _, ok := slots[n]; !ok {
			slots[n] = len(l.Kinds)
			l.Kinds, l.Labels = append(l.Kinds, RepeatSlot), append(l.Labels, "#"+strconv.Itoa(n))
			for _, name := range reads[n] {
				clears[name] = append(clears[name], slots[n])
			}
		}
		l.Code[pc].A, l.Code[pc].Repeat = slots[n], true
	}
	for _, in := range l.Code[l.Ends[0]:l.Ends[1]] {
		if in.Op == OpBind {
			binds[in.A] = true
		}
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
			for _, k := range in.Clears {
				delete(full, k)
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
			}
		case OpFill:
			if in.A >= 0 {
				full[in.A] = stack[top]
			}
		default:
			v, ry := value{op: in.Op, kind: in.Kind, x: stack[top]}, []int(nil)
			if in.Op >= OpBinary {
				if v.x, v.y = stack[top-1], stack[top]; in.Swap {
					v.x, v.y = v.y, v.x
				}
				stack, top, ry = stack[:top], top-1, reads[v.y]
			}
			n := number(v, reads[v.x], ry)
			stack[top] = n
			// Charged ones only: the other unary kinds are scalar arithmetic.
			if in.Op == OpFusedT || in.Op == OpUnary && in.Kind != plan.Neg && in.Kind != plan.SumAll {
				continue
			}
			pc0, twice := first[n]
			if !twice {
				first[n], pc0 = pc, pc
			}
			if body := pc >= l.Ends[0] && pc < l.Ends[1]; twice || body && !slices.ContainsFunc(reads[n], func(k int) bool { return binds[k] }) {
				mark(pc, n)
				mark(pc0, n)
			}
		}
	}
	for pc := range l.Code {
		if in := &l.Code[pc]; in.Op == OpBind {
			in.Clears = append(in.Clears, clears[in.A]...)
		}
	}
}
