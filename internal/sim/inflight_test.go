package sim

import (
	"math/rand"
	"testing"

	"repro/internal/bus"
)

// Property: the inflight table agrees with a Go map under random puts,
// gets and deletes over few enough lines that probe runs collide, wrap and
// are repaired by backward-shift deletion, across table growth.
func TestInflightTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := newInflightTable(1)
		ref := map[uint32]*bus.Request{}
		for step := 0; step < 5000; step++ {
			line := uint32(rng.Intn(96)) * LineSize
			switch rng.Intn(3) {
			case 0:
				r := &bus.Request{PABase: line}
				tab.put(line, r)
				ref[line] = r
			case 1:
				tab.del(line)
				delete(ref, line)
			}
			if got := tab.get(line); got != ref[line] {
				t.Fatalf("seed %d step %d: get(%#x) = %p, map has %p", seed, step, line, got, ref[line])
			}
			if tab.len() != len(ref) {
				t.Fatalf("seed %d step %d: len = %d, map has %d", seed, step, tab.len(), len(ref))
			}
		}
		for line := uint32(0); line < 96*LineSize; line += LineSize {
			if got := tab.get(line); got != ref[line] {
				t.Fatalf("seed %d: final get(%#x) = %p, map has %p", seed, line, got, ref[line])
			}
		}
	}
}
