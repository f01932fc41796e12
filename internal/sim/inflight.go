package sim

import "repro/internal/bus"

// inflightTable maps a physical line base to the transaction in flight for
// it: queued in an arbiter or crossing the bus. It is open-addressed with
// linear probing and backward-shift deletion, so it needs no tombstones and
// a lookup never allocates or hashes through the runtime's generic map
// code. Its size is bounded by the two arbiter capacities plus the
// transfers on the bus, and it doubles whenever it passes half full.
type inflightTable struct {
	slots []inflightSlot // length is a power of two
	shift uint           // 32 - log2(len(slots))
	n     int
}

// inflightSlot is one table entry; a nil req marks it empty (line base 0
// is a valid key).
type inflightSlot struct {
	line uint32
	req  *bus.Request
}

// newInflightTable sizes the table to stay at most half full while
// expect transactions are in flight.
func newInflightTable(expect int) inflightTable {
	size, bits := 16, uint(4)
	for size < 2*expect {
		size, bits = size*2, bits+1
	}
	return inflightTable{slots: make([]inflightSlot, size), shift: 32 - bits}
}

// home is line's preferred slot: a Fibonacci hash of the line number.
func (t *inflightTable) home(line uint32) int {
	return int((line / LineSize * 0x9E37_79B9) >> t.shift)
}

func (t *inflightTable) len() int { return t.n }

// get returns the request in flight for line, or nil.
func (t *inflightTable) get(line uint32) *bus.Request {
	mask := len(t.slots) - 1
	for i := t.home(line); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.req == nil {
			return nil
		}
		if s.line == line {
			return s.req
		}
	}
}

// put records req as the transaction in flight for line, replacing any
// previous one.
func (t *inflightTable) put(line uint32, req *bus.Request) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(line); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.req == nil {
			*s = inflightSlot{line: line, req: req}
			t.n++
			return
		}
		if s.line == line {
			s.req = req
			return
		}
	}
}

// del removes line's entry, if any, shifting later members of its probe
// run back so that every remaining entry stays reachable from its home.
func (t *inflightTable) del(line uint32) {
	mask := len(t.slots) - 1
	i := t.home(line)
	for {
		s := &t.slots[i]
		if s.req == nil {
			return
		}
		if s.line == line {
			break
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		s := t.slots[j]
		if s.req == nil {
			break
		}
		// s may fill the hole at i only if i lies on its probe path,
		// cyclically between its home and j.
		if (j-t.home(s.line))&mask >= (j-i)&mask {
			t.slots[i] = s
			i = j
		}
	}
	t.slots[i] = inflightSlot{}
	t.n--
}

func (t *inflightTable) grow() {
	old := t.slots
	*t = inflightTable{slots: make([]inflightSlot, 2*len(old)), shift: t.shift - 1}
	for _, s := range old {
		if s.req != nil {
			t.put(s.line, s.req)
		}
	}
}
