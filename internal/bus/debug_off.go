//go:build !simdebug

package bus

// debugInvariants gates the arbiter bounds and heap assertions. False in
// normal builds, so the checkBounds calls const-fold away; -tags simdebug
// swaps in debug_on.go.
const debugInvariants = false

// checkBounds is a no-op in normal builds.
func (a *Arbiter) checkBounds() {}
