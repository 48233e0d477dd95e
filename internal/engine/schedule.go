package engine

import (
	"fmt"
	"sort"

	"remac/internal/chain"
	"remac/internal/costgraph"
	"remac/internal/opt"
	"remac/internal/plan"
	"remac/internal/search"
)

// The schedule: newExecutor lowers the pre-loop statements, the loop body
// (raw or normalized) and the post-loop statements once per run into one flat
// list of instructions, walking each tree in the order a recursive evaluation
// takes it: every kernel call, charge and span comes in that order. Operands
// pass on a value stack; what outlives an expression lives in numbered slots:
// the names, and the reuse slots — an option's value and, under Explicit and
// Conservative, a subtree or chain span repeated in its statement list (stock
// SystemDS's identical-subtree CSE). A reuse slot is filled on its first read,
// an opEnter that skips the producer when the slot is full, and cleared (an
// LSE slot never) by the bind ending the last statement of its list that reads
// it, or one assigning a symbol it reads. A clear lets go like a rebinding
// does: a value the run made is recycled when its last holder lets go.

type opcode uint8

const (
	opStmt   opcode = iota // begin the statement span of label
	opBind                 // pop into name slot a, end the span, clear the slots of clears
	opLoad                 // push name slot a, else b, else the input named b
	opConst                // push the scalar val
	opEnter                // slot a full (or shared under key label): push it, skip n
	opFill                 // slot a ← the top of the stack (a < 0: a slot read once)
	opFusedT               // top ← its fused transpose
	opT                    // top ← its transpose
	opUnary                // top ← kind(top)
	opBinary               // l, r ← kind(l, r)
	opMul                  // l, r ← l·r (swap: r·l) under the TSMM hint
	opScale                // v, s ← s·v
	opAdd                  // l, r ← l + r
)

type instr struct {
	kind    plan.Kind
	a, b, n int
	val     float64
	label   string
	clears  []int
	op      opcode
	// entry marks where an evaluation starts: the run checks for
	// cancellation and integrity errors before the instruction.
	entry, tsmm, swap bool
}

type slotKind uint8

const (
	nameSlot slotKind = iota
	lseSlot
	cseSlot
	subtreeSlot
)

// stmt is a statement of a list: its tree, the name it binds and its label;
// a promotion has no tree and binds target to the value of from.
type stmt struct {
	tree                *plan.Node
	target, label, from string
}

// use is what a statement list does with a reuse slot: the symbols its
// producer reads, the last statement reading it, and where each read's opFill
// is.
type use struct {
	refs  map[string]bool
	last  int
	fills []int
}

type lowering struct {
	e         *executor
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

// lower builds e.code, the lists ending at e.ends; a promotion is the load and
// bind of a statement with no span.
func (e *executor) lower() error {
	c := e.c
	l := &lowering{e: e, blocks: map[*plan.Node]*costgraph.BlockPlan{},
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
	sps := [3][]plan.StmtPlan{c.Plans.Pre, c.Plans.Body, c.Plans.Post}
	var lists [3][]stmt
	var promote []stmt
	for i := range sps {
		for j, sp := range sps[i] {
			switch {
			case i != 1:
				lists[i] = append(lists[i], stmt{tree: sp.Raw, target: sp.Target, label: sp.Target})
			case c.UsesRawBody:
				lists[1] = append(lists[1], stmt{tree: c.NormalizedBody[j], target: sp.Target, label: sp.Target})
			case !sp.Inlined:
				lists[1] = append(lists[1], stmt{tree: c.NormalizedBody[len(lists[1])], target: sp.TargetSym, label: sp.Target})
				if sp.TargetSym != sp.Target {
					promote = append(promote, stmt{target: sp.Target, from: sp.TargetSym})
				}
			}
		}
	}
	lists[1] = append(lists[1], promote...)
	for i, list := range lists {
		if err := l.list(list, sps[i]); err != nil {
			return err
		}
		e.ends[i] = len(e.code)
	}
	return nil
}

// list lowers one statement list, and marks after each statement the clears
// of the reuse slots whose lifetime ends there.
func (l *lowering) list(stmts []stmt, sps []plan.StmtPlan) error {
	l.explicit, l.subtrees, l.uses = nil, map[string]int{}, map[int]*use{}
	if s := l.e.c.Config.Strategy; s == opt.Explicit || s == opt.Conservative {
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
			l.emit(instr{op: opStmt, label: st.label})
			if l.node(st.tree); l.err != nil {
				return fmt.Errorf("engine: %s: %w", st.label, l.err)
			}
		}
		binds[s] = l.emit(instr{op: opBind, a: l.e.slot(st.target)})
	}
	var slots []int
	for k, u := range l.uses {
		if l.e.kinds[k] == subtreeSlot && len(u.fills) == 1 {
			l.e.code[u.fills[0]].a = -1 // read once: nothing to keep
		} else if l.e.kinds[k] != lseSlot {
			slots = append(slots, k)
		}
	}
	sort.Ints(slots)
	for s, st := range stmts {
		for _, k := range slots {
			if u := l.uses[k]; s == u.last || s < u.last && u.refs[st.target] {
				l.e.code[binds[s]].clears = append(l.e.code[binds[s]].clears, k)
			}
		}
	}
	return nil
}

func (l *lowering) emit(in instr) int {
	in.entry, l.entry = l.entry, false
	l.e.code = append(l.e.code, in)
	return len(l.e.code) - 1
}

// read lowers a read of reuse slot k: an opEnter, what produce emits, the
// opFill. An LSE value the run may share with others goes under key share.
func (l *lowering) read(k int, share string, produce func()) {
	enter := l.emit(instr{op: opEnter, a: k, label: share})
	produce()
	fill := l.emit(instr{op: opFill, a: k, label: share})
	l.e.code[enter].n = fill - enter
	u := l.uses[k]
	if u == nil {
		u = &use{refs: map[string]bool{}}
		for _, in := range l.e.code[enter:fill] {
			if in.op == opLoad {
				u.refs[in.label] = true
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
			l.emit(instr{op: opScale})
		}
		return
	}
	if l.explicit != nil && len(n.Kids) > 0 {
		if key := n.Key(); l.explicit[key] > 0 {
			l.read(l.e.slotOf(l.subtrees, subtreeSlot, key), "", func() { l.structural(n) })
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
		l.emit(instr{op: opConst, val: n.Val})
		return
	}
	for _, k := range n.Kids {
		l.node(k)
	}
	switch {
	case n.Kind == plan.Trans && n.L().Kind == plan.Leaf:
		l.emit(instr{op: opFusedT}) // like chain atoms
	case n.Kind == plan.Trans:
		l.emit(instr{op: opT})
	case len(n.Kids) == 1:
		l.emit(instr{op: opUnary, kind: n.Kind})
	default:
		l.emit(instr{op: opBinary, kind: n.Kind})
	}
}

func (l *lowering) load(sym string) {
	l.emit(instr{op: opLoad, a: l.e.slot(sym), b: l.e.slot(baseSym(sym)), label: sym})
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
			l.emit(instr{op: opT})
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
		l.emit(instr{op: opMul, tsmm: n.L.IsLeaf() && n.R.IsLeaf() && lhs.Sym == rhs.Sym && lhs.T != rhs.T})
	}
	if l.explicit == nil {
		mul()
		return
	}
	l.read(l.e.slotOf(l.subtrees, subtreeSlot, chain.SpanKey(b.Atoms[n.Lo:n.Hi+1])), "", mul)
}

func (l *lowering) atom(a chain.Atom) {
	if a.Opaque {
		l.node(a.Node)
		if a.T {
			l.emit(instr{op: opT})
		}
		return
	}
	l.load(a.Sym)
	if a.T {
		// Fused: chain atoms never materialize a distributed transpose.
		l.emit(instr{op: opFusedT})
	}
}

// option lowers a read of a selected option's slot, whose producer runs on
// the first read: a cross-block group sums its first two occurrences, any
// other option runs its producer plan over the first occurrence, normalized
// to the canonical orientation. With a source (RunOptions.LSE), an LSE value
// is shared with other runs under its opt.SharedKey.
func (l *lowering) option(o *search.Option) {
	pp, ok := l.producers[o.Key]
	if !ok {
		l.err = fmt.Errorf("no producer for option %q", o.Key)
		return
	}
	kind := cseSlot
	if o.Kind == search.LSE {
		kind = lseSlot
	}
	k := l.e.slotOf(l.options, kind, o.Key)
	share := ""
	if l.e.lse != nil {
		share = opt.SharedKey(pp)
	}
	l.read(k, share, func() {
		blocks := l.e.c.Coords.Blocks
		if o.Kind != search.CSEGroup {
			occ := o.Occs[0]
			if l.op(blocks[occ.Block], pp.Root); occ.Flipped {
				l.emit(instr{op: opT})
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
				l.emit(instr{op: opMul, swap: true})
			}
		}
		l.emit(instr{op: opAdd})
	})
}
