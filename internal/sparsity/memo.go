package sparsity

// Memo wraps an estimator so that each distinct product is estimated once
// for as long as the Memo lives. Operands are keyed by content, not merely
// identity: every count vector that passes through is interned (one content
// hash, evaluated per class, when it is first seen or produced), so
// content-equal vectors become pointer-equal, Meta values compare with ==,
// and a hit on A·B makes the later (A·B)·C a hit too however the equal
// operands were arrived at — a planner re-derives the same sub-chain under
// many parenthesizations.
//
// A Memo is for one goroutine and one unit of work (the optimizer makes one
// per compilation and drops it with the planner); the results it hands out
// are plain Meta values over immutable vectors and do not refer back to it.
type Memo struct {
	est     Estimator
	vectors map[uint64]*Counts  // the canonical vectors by content hash
	canon   map[*Counts]*Counts // every vector met, to its canonical one
	mul     map[[2]Meta]Meta
}

// NewMemo returns a memoizing view of est.
func NewMemo(est Estimator) *Memo {
	return &Memo{est: est, vectors: map[uint64]*Counts{}, canon: map[*Counts]*Counts{}, mul: map[[2]Meta]Meta{}}
}

// intern returns the canonical vector with c's content: c itself if none
// was seen before. The content is compared once per vector, not once per
// product that names it.
func (m *Memo) intern(c *Counts) *Counts {
	if c == nil {
		return nil
	}
	if have, ok := m.canon[c]; ok {
		return have
	}
	h := c.contentHash()
	have, ok := m.vectors[h]
	switch {
	case !ok:
		m.vectors[h], have = c, c
	case have != c && !have.sameContent(c):
		// A hash collision between different contents: c stays as it is,
		// which can only cost hits — keys are pointers, never hashes.
		have = c
	}
	m.canon[c] = have
	return have
}

func (m *Memo) internMeta(a Meta) Meta {
	a.RowCounts, a.ColCounts = m.intern(a.RowCounts), m.intern(a.ColCounts)
	return a
}

// Name implements Estimator.
func (m *Memo) Name() string { return m.est.Name() }

// Mul implements Estimator: one evaluation per distinct operand pair.
func (m *Memo) Mul(a, b Meta) Meta {
	key := [2]Meta{m.internMeta(a), m.internMeta(b)}
	if out, ok := m.mul[key]; ok {
		return out
	}
	out := m.internMeta(m.est.Mul(key[0], key[1]))
	m.mul[key] = out
	return out
}

// Add implements Estimator. Sums are not tabled (a program has few of them),
// but their vectors are interned so products over them still meet.
func (m *Memo) Add(a, b Meta) Meta { return m.internMeta(m.est.Add(a, b)) }

// ElemMul implements Estimator; see Add.
func (m *Memo) ElemMul(a, b Meta) Meta { return m.internMeta(m.est.ElemMul(a, b)) }

// Transpose implements Estimator.
func (m *Memo) Transpose(a Meta) Meta { return m.est.Transpose(a) }

// Scale implements Estimator.
func (m *Memo) Scale(a Meta) Meta { return m.est.Scale(a) }
