// Package chain implements the coordinate-and-block representation of §3.2
// step 2: normalized plan trees are split into blocks of matrix
// multiplication chains, every matrix atom gets a global coordinate, and
// subexpression windows are keyed by canonical, transpose-normalized
// strings so AH and HAᵀ (H symmetric) collide.
package chain

import (
	"errors"
	"fmt"
	"strings"

	"remac/internal/plan"
	"remac/internal/sparsity"
)

// Atom is one scale mark on the coordinate axis: a (possibly transposed)
// matrix symbol.
type Atom struct {
	Sym string
	// T marks transposition. Symmetric symbols never carry T (push-down
	// drops their transposes).
	T bool
	// Symm marks symmetric symbols, whose transpose flag never flips.
	Symm bool
	// LoopConst marks symbols whose value cannot change inside the loop.
	LoopConst bool
	// Coord is the global coordinate (1-based, program order).
	Coord int
	// Opaque atoms stand for non-chain subtrees (e.g. an additive region
	// kept unexpanded); Node holds the subtree they evaluate.
	Opaque bool
	Node   *plan.Node
}

// Key renders the atom for canonical keys: "A" or "A'".
func (a Atom) Key() string {
	if a.T {
		return a.Sym + "'"
	}
	return a.Sym
}

// flip returns the transposed atom. Symmetric atoms are their own
// transpose.
func (a Atom) flip() Atom {
	out := a
	if !a.Symm {
		out.T = !out.T
	}
	return out
}

// Block is one multiplication chain: a maximal run of %*% factors.
type Block struct {
	ID    int
	Atoms []Atom
	// Group identifies the additive region this block is a summand of;
	// blocks with the same Group are candidates for the cross-block
	// factor-grouping extension.
	Group int
	// Negated marks summands subtracted within their group.
	Negated bool
	// ScalarDeps holds the scalar factor subtrees attached to the block
	// (e.g. the 2 in 2·dᵀAᵀAd); the engine multiplies the chain result by
	// their values.
	ScalarDeps []*plan.Node
	// Origin is the plan-tree node this block was extracted from; the
	// engine uses it to substitute block plans during evaluation.
	Origin *plan.Node
}

// Len returns the chain length.
func (b *Block) Len() int { return len(b.Atoms) }

// Key renders the whole block's chain key.
func (b *Block) Key() string { return SpanKey(b.Atoms) }

// Coordinates is the coordinate system over a program's blocks.
type Coordinates struct {
	Blocks []*Block
	// NAtoms is the total number of coordinates.
	NAtoms int
	res    plan.Resolver
	sym    plan.SymTable
}

// SpanKey renders a window of atoms as a plain (non-canonical) key.
func SpanKey(atoms []Atom) string {
	parts := make([]string, len(atoms))
	for i, a := range atoms {
		parts[i] = a.Key()
	}
	return strings.Join(parts, "·")
}

// CanonicalKey returns the transpose-normalized key of a window: the
// window's key and its transposition's key are compared and the smaller one
// wins (§3.2 step 3: AH and HAᵀ share the key AH when H is symmetric).
// "Smaller" prefers the orientation with fewer transposed atoms, breaking
// ties lexicographically, so A·A canonicalizes to A·A rather than A'·A'.
func CanonicalKey(atoms []Atom) string {
	fwd := SpanKey(atoms)
	rev := make([]Atom, len(atoms))
	for i, a := range atoms {
		rev[len(atoms)-1-i] = a.flip()
	}
	bwd := SpanKey(rev)
	ft, bt := countT(atoms), countT(rev)
	if bt < ft || (bt == ft && bwd < fwd) {
		return bwd
	}
	return fwd
}

func countT(atoms []Atom) int {
	n := 0
	for _, a := range atoms {
		if a.T {
			n++
		}
	}
	return n
}

// Transposed reports whether the canonical key required flipping (the
// occurrence is stored transposed relative to the canonical form).
func Transposed(atoms []Atom) bool { return CanonicalKey(atoms) != SpanKey(atoms) }

// CanonicalSpan returns a window's canonical key together with whether the
// window is transposed relative to it — CanonicalKey and Transposed in one
// pass, for callers (the redundancy search, per-plan subexpression
// manifests) that need both without canonicalizing twice.
func CanonicalSpan(atoms []Atom) (key string, flipped bool) {
	key = CanonicalKey(atoms)
	return key, key != SpanKey(atoms)
}

// Extract builds coordinates from normalized statement roots (transposes
// pushed down, products expanded). Scalar-valued regions are traversed so
// chains inside denominators become blocks too. The resolver distinguishes
// scalar-valued subtrees from matrix factors; sym carries symmetry facts
// for canonical keys.
func Extract(roots []*plan.Node, res plan.Resolver, sym plan.SymTable) (*Coordinates, error) {
	c := &Coordinates{res: res, sym: sym}
	e := &extractor{c: c}
	for _, root := range roots {
		if err := e.region(root, false); err != nil {
			return nil, err
		}
	}
	return c, nil
}

type extractor struct {
	c     *Coordinates
	group int
}

// region processes a subtree that stands alone (a statement root, a
// denominator, an additive summand context).
func (e *extractor) region(n *plan.Node, negated bool) error {
	switch n.Kind {
	case plan.Add, plan.Sub:
		// Additive spine: each summand is its own block, all in one group.
		// Only open a new group at the top of the spine.
		return e.additive(n, negated, e.newGroup())
	case plan.Neg:
		return e.region(n.L(), !negated)
	case plan.SumAll, plan.AsScalar, plan.Sqrt, plan.Abs, plan.Trans, plan.NRows, plan.NCols:
		return e.region(n.L(), negated)
	case plan.EDiv, plan.EMul:
		// Element-wise combinations split chains; both sides are separate
		// regions. Scalar sides contribute scalar deps, but their interior
		// chains are still searched.
		if err := e.region(n.L(), negated); err != nil {
			return err
		}
		return e.region(n.R(), false)
	case plan.Const:
		return nil
	case plan.Leaf, plan.MMul:
		return e.chainBlock(n, negated, e.newGroup())
	}
	return fmt.Errorf("chain: unsupported node kind %v", n.Kind)
}

func (e *extractor) newGroup() int {
	e.group++
	return e.group
}

func (e *extractor) additive(n *plan.Node, negated bool, group int) error {
	switch n.Kind {
	case plan.Add:
		if err := e.additive(n.L(), negated, group); err != nil {
			return err
		}
		return e.additive(n.R(), negated, group)
	case plan.Sub:
		if err := e.additive(n.L(), negated, group); err != nil {
			return err
		}
		return e.additive(n.R(), !negated, group)
	case plan.Neg:
		return e.additive(n.L(), !negated, group)
	case plan.Leaf, plan.MMul:
		return e.chainBlock(n, negated, group)
	default:
		return e.region(n, negated)
	}
}

// MaxBlockAtoms caps the atoms of one block. The planner's work on a block
// grows as the cube of its length (the chain DP prices every split of every
// span): on cri1's shapes a 65-atom block compiles in 6–20 ms, a 257-atom
// one in 0.5–1.4 s. The longest block of the algorithm catalogue has 10.
const MaxBlockAtoms = 64

// ErrBlockTooLong is the error Extract wraps when a block exceeds
// MaxBlockAtoms: the script is the client's to fix, not the planner's.
var ErrBlockTooLong = errors.New("chain: multiplication chain too long")

// chainBlock flattens a multiplication spine into a block of atoms.
func (e *extractor) chainBlock(n *plan.Node, negated bool, group int) error {
	b := &Block{ID: len(e.c.Blocks), Group: group, Negated: negated, Origin: n}
	if err := e.flatten(n, b); err != nil {
		return err
	}
	if len(b.Atoms) == 0 {
		// Pure scalar chain (all factors scalar) — nothing to search.
		return nil
	}
	if len(b.Atoms) > MaxBlockAtoms {
		return fmt.Errorf("%w: %d matrix factors, at most %d", ErrBlockTooLong, len(b.Atoms), MaxBlockAtoms)
	}
	e.c.Blocks = append(e.c.Blocks, b)
	return nil
}

func (e *extractor) flatten(n *plan.Node, b *Block) error {
	switch n.Kind {
	case plan.MMul:
		if err := e.flatten(n.L(), b); err != nil {
			return err
		}
		return e.flatten(n.R(), b)
	case plan.Leaf:
		if e.isScalar(n) {
			b.ScalarDeps = append(b.ScalarDeps, n)
			return nil
		}
		e.c.NAtoms++
		b.Atoms = append(b.Atoms, Atom{Sym: n.Sym, Symm: e.c.sym.IsSymmetric(n.Sym), LoopConst: n.LoopConst, Coord: e.c.NAtoms})
		return nil
	case plan.Trans:
		if n.L().Kind == plan.Leaf {
			leaf := n.L()
			if e.isScalar(leaf) {
				b.ScalarDeps = append(b.ScalarDeps, leaf)
				return nil
			}
			e.c.NAtoms++
			b.Atoms = append(b.Atoms, Atom{Sym: leaf.Sym, T: !e.c.sym.IsSymmetric(leaf.Sym), Symm: e.c.sym.IsSymmetric(leaf.Sym), LoopConst: leaf.LoopConst, Coord: e.c.NAtoms})
			return nil
		}
		return fmt.Errorf("chain: transpose not pushed down: %s", n.Key())
	case plan.Const:
		b.ScalarDeps = append(b.ScalarDeps, n)
		return nil
	case plan.AsScalar, plan.SumAll, plan.Sqrt, plan.Abs, plan.NRows, plan.NCols:
		// A scalar factor with interior structure: record the dependency
		// and search its interior as separate regions.
		b.ScalarDeps = append(b.ScalarDeps, n)
		return e.region(n.L(), false)
	case plan.EMul, plan.EDiv:
		// Scalar-scaled factor inside a chain, e.g. A %*% (0.1*d): pull
		// the scalar out, keep flattening the matrix side.
		l, r := n.L(), n.R()
		if e.isScalar(l) {
			b.ScalarDeps = append(b.ScalarDeps, l)
			return e.flatten(r, b)
		}
		if e.isScalar(r) {
			b.ScalarDeps = append(b.ScalarDeps, r)
			return e.flatten(l, b)
		}
		return e.opaque(n, b)
	case plan.Neg:
		b.Negated = !b.Negated
		return e.flatten(n.L(), b)
	}
	return e.opaque(n, b)
}

// opaque records a non-chain factor as an opaque atom and searches its
// interior as separate regions. Used when products are kept unexpanded
// (the SystemDS-style baselines) or when a chain contains element-wise
// structure.
func (e *extractor) opaque(n *plan.Node, b *Block) error {
	e.c.NAtoms++
	b.Atoms = append(b.Atoms, Atom{
		Sym:       "⟨" + n.Key() + "⟩",
		LoopConst: n.LoopConst,
		Coord:     e.c.NAtoms,
		Opaque:    true,
		Node:      n,
	})
	return e.region(n, false)
}

func (e *extractor) isScalar(n *plan.Node) bool {
	if n.Kind == plan.Const || n.IsScalarKind() {
		return true
	}
	return plan.IsScalar(n, e.c.res)
}

// SpanMeta folds the estimator over a window [lo, hi] (inclusive atom
// indices within the block) to produce the window product's metadata.
func (c *Coordinates) SpanMeta(b *Block, lo, hi int, est sparsity.Estimator) (sparsity.Meta, error) {
	m, err := c.AtomMeta(b.Atoms[lo], est)
	if err != nil {
		return m, err
	}
	for i := lo + 1; i <= hi; i++ {
		next, err := c.AtomMeta(b.Atoms[i], est)
		if err != nil {
			return m, err
		}
		if m.Cols != next.Rows {
			return m, fmt.Errorf("chain: span %s dims %d vs %d", SpanKey(b.Atoms[lo:hi+1]), m.Cols, next.Rows)
		}
		m = est.Mul(m, next)
	}
	return m, nil
}

// AtomMeta resolves one atom's metadata (transposed if flagged).
func (c *Coordinates) AtomMeta(a Atom, est sparsity.Estimator) (sparsity.Meta, error) {
	if a.Opaque {
		if est == nil {
			est = sparsity.Metadata{}
		}
		return plan.InferMeta(a.Node, c.res, est)
	}
	m, ok := c.res.MetaFor(a.Sym)
	if !ok {
		return m, fmt.Errorf("chain: unknown symbol %q", a.Sym)
	}
	if a.T {
		if est == nil {
			est = sparsity.Metadata{}
		}
		return est.Transpose(m), nil
	}
	return m, nil
}

// String renders the coordinate system like Figure 4.
func (c *Coordinates) String() string {
	var b strings.Builder
	for _, blk := range c.Blocks {
		sign := "+"
		if blk.Negated {
			sign = "-"
		}
		fmt.Fprintf(&b, "block %d (group %d, %s): %s", blk.ID, blk.Group, sign, blk.Key())
		if len(blk.ScalarDeps) > 0 {
			keys := make([]string, len(blk.ScalarDeps))
			for i, d := range blk.ScalarDeps {
				keys[i] = d.Key()
			}
			fmt.Fprintf(&b, "  [scalars: %s]", strings.Join(keys, ", "))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
