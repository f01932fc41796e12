//go:build simdebug

package bus

import "fmt"

// debugInvariants enables the arbiter assertions: every mutation of an
// arbiter's queue re-verifies its capacity bound and its heap. Normal builds
// (no -tags simdebug) compile the checks away; see debug_off.go.
const debugInvariants = true

// checkBounds panics when the arbiter's queue has grown past its capacity,
// when a request's recorded index disagrees with its heap position, or when
// a request outranks its parent — squash, promote or enqueue bookkeeping
// bugs that release builds would let corrupt the paper's queue-pressure
// results and grant order silently.
func (a *Arbiter) checkBounds() {
	if len(a.q) > a.cap {
		panic(fmt.Sprintf("bus: arbiter %q holds %d requests, capacity %d", a.name, len(a.q), a.cap))
	}
	for i, r := range a.q {
		if r.index != i {
			panic(fmt.Sprintf("bus: arbiter %q request %d sits at heap index %d but records %d", a.name, r.ID, i, r.index))
		}
		if parent := (i - 1) / 2; i > 0 && r.Better(a.q[parent]) {
			panic(fmt.Sprintf("bus: arbiter %q heap order broken: request %d at %d outranks parent %d at %d",
				a.name, r.ID, i, a.q[parent].ID, parent))
		}
	}
}
