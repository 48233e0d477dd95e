package plan

// This file implements the algebraic transforms of the block-wise search's
// preparation steps: transposition push-down (step 1) and distributive
// expansion (step 2). Both follow algebraic equivalences, so transformed
// plans compute the same values (asserted by the property tests).

// SymTable answers symmetry queries during push-down; a nil table treats
// every symbol as non-symmetric.
type SymTable map[string]bool

// IsSymmetric implements a Resolver-compatible symmetry lookup.
func (t SymTable) IsSymmetric(sym string) bool { return t != nil && t[BaseSym(sym)] }

// PushDownTranspose rewrites the tree so transpositions sit directly on
// leaves: t(AB) → t(B)t(A), t(A+B) → t(A)+t(B), t(t(A)) → A. Transposes of
// symmetric leaves and scalar-valued subtrees are dropped. The input tree
// is not modified.
func PushDownTranspose(n *Node, sym SymTable) *Node {
	return pushDown(n, false, sym)
}

// pushDown rewrites n with a pending transpose flag: the result is t(n) if
// flip is set, n otherwise.
func pushDown(n *Node, flip bool, sym SymTable) *Node {
	switch n.Kind {
	case Trans:
		return pushDown(n.L(), !flip, sym)
	case Leaf:
		if !flip || sym.IsSymmetric(n.Sym) {
			return &Node{Kind: Leaf, Sym: n.Sym, LoopConst: n.LoopConst}
		}
		return NewUn(Trans, &Node{Kind: Leaf, Sym: n.Sym, LoopConst: n.LoopConst})
	case Const:
		return NewConst(n.Val)
	case MMul:
		if flip {
			// t(AB) = t(B) t(A)
			return NewBin(MMul, pushDown(n.R(), true, sym), pushDown(n.L(), true, sym))
		}
		return NewBin(MMul, pushDown(n.L(), false, sym), pushDown(n.R(), false, sym))
	case Add, Sub, EMul, EDiv:
		return NewBin(n.Kind, pushDown(n.L(), flip, sym), pushDown(n.R(), flip, sym))
	case Neg:
		return NewUn(Neg, pushDown(n.L(), flip, sym))
	case SumAll, AsScalar, Sqrt, Abs, NRows, NCols:
		// Scalar-valued: a pending transpose is a no-op on the result.
		return NewUn(n.Kind, pushDown(n.L(), false, sym))
	}
	// Unknown kinds pass through unchanged.
	out := n.Clone()
	if flip {
		return NewUn(Trans, out)
	}
	return out
}

// Expand distributes matrix multiplication over addition and subtraction
// (A(B+C) → AB+AC), floats unary minus out of products, and flattens
// double negation. Transposes must already be pushed down. The input tree
// is not modified.
func Expand(n *Node) *Node {
	switch n.Kind {
	case Leaf:
		return &Node{Kind: Leaf, Sym: n.Sym, LoopConst: n.LoopConst}
	case Const:
		return NewConst(n.Val)
	case MMul:
		l, r := Expand(n.L()), Expand(n.R())
		return expandMul(l, r)
	case Neg:
		x := Expand(n.L())
		if x.Kind == Neg {
			return x.L()
		}
		return NewUn(Neg, x)
	case Add, Sub, EMul, EDiv:
		return NewBin(n.Kind, Expand(n.L()), Expand(n.R()))
	case Trans, SumAll, AsScalar, Sqrt, Abs, NRows, NCols:
		return NewUn(n.Kind, Expand(n.L()))
	}
	return n.Clone()
}

// expandMul multiplies two already-expanded subtrees, distributing over any
// additive structure and floating negation outward.
func expandMul(l, r *Node) *Node {
	switch {
	case l.Kind == Add || l.Kind == Sub:
		return NewBin(l.Kind, expandMul(l.L(), r), expandMul(l.R(), r))
	case r.Kind == Add || r.Kind == Sub:
		return NewBin(r.Kind, expandMul(l, r.L()), expandMul(l, r.R()))
	case l.Kind == Neg && r.Kind == Neg:
		return expandMul(l.L(), r.L())
	case l.Kind == Neg:
		return NewUn(Neg, expandMul(l.L(), r))
	case r.Kind == Neg:
		return NewUn(Neg, expandMul(l, r.L()))
	default:
		return NewBin(MMul, l, r)
	}
}

// Normalize applies push-down then expansion — the preparation the
// block-wise search runs before building coordinates.
func Normalize(n *Node, sym SymTable) *Node {
	return Expand(PushDownTranspose(n, sym))
}

// ExplicitCSEKeys returns the canonical keys of non-leaf, repeated subtrees
// across the given roots — the common subexpressions stock SystemDS finds
// without any plan transformation (identical subtrees only).
func ExplicitCSEKeys(roots []*Node) map[string]int {
	counts := map[string]int{}
	for _, root := range roots {
		root.Walk(func(n *Node) {
			if n.Kind == Leaf || n.Kind == Const {
				return
			}
			// Reusing a bare transpose or negation of a leaf buys nothing;
			// SystemDS does not materialize these.
			if (n.Kind == Trans || n.Kind == Neg) && n.L().Kind == Leaf {
				return
			}
			counts[n.Key()]++
		})
	}
	for k, c := range counts {
		if c < 2 {
			delete(counts, k)
		}
	}
	return counts
}
