package distmat

import "remac/internal/matrix"

// OnKernel has every operator report to fn whether it ran its kernel or took
// the cells it was given (Give), with its kind and operand matrices, until
// the returned function is called. For tests that must sit outside the
// package because they import one that imports it.
func OnKernel(fn func(kind string, given bool, a, b *matrix.Matrix)) (restore func()) {
	onKernel = fn
	return func() { onKernel = nil }
}
