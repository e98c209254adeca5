package exec

// PessimisticBounder is implemented by operators carrying a plan-time
// pessimistic (provably-sound) upper bound on their delivered row count,
// derived from degree-sequence ℓp norms of the join columns (à la LpBound).
// Unlike SetStaticBounds-style intersections, the pessimistic bound is kept
// out of FinalBounds: the bounds pass's tight track caps the node at it
// after the classic track has run without it, folding a *separate* tight
// upper bound (BoundsSnapshot.UBTight), so estimators using the classic UB
// and ones using the ℓp-tightened UB can be compared on the same run.
//
// The contract requires that the operator's counted GetNext total equals its
// delivered row count (true for the join operators implementing this), so
// one bound serves both. A negative value means no bound is known.
type PessimisticBounder interface {
	PessimisticUB() int64
}

// pessimistic is the embeddable implementation of PessimisticBounder; its
// zero value means "no bound known".
type pessimistic struct {
	pessUB int64 // 0 = unset (sentinel; a real bound of 0 is clamped to 1)
}

// SetPessimisticUB records a statistics-derived sound upper bound on the
// operator's delivered rows. Non-positive bounds are clamped to 1: the
// degree-norm derivation can prove emptiness only of the analyzed snapshot,
// and a floor of one row keeps downstream progress ratios well-defined.
func (p *pessimistic) SetPessimisticUB(ub int64) {
	if ub < 1 {
		ub = 1
	}
	p.pessUB = ub
}

// PessimisticUB implements PessimisticBounder.
func (p *pessimistic) PessimisticUB() int64 {
	if p.pessUB == 0 {
		return -1
	}
	return p.pessUB
}
