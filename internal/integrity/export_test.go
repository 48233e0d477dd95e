package integrity

import "remac/internal/matrix"

// OnSummaryPass has every summary pass — not a memo hit — report its matrix
// to fn, until the returned function is called. For tests that must sit
// outside the package because they import one that imports it.
func OnSummaryPass(fn func(m *matrix.Matrix)) (restore func()) {
	summarised = fn
	return func() { summarised = nil }
}
