package mem

import (
	"math/rand"
	"slices"
	"testing"
)

// refImage is the reference model the directory-backed Image must match: a
// map from page number to page, read and written a byte at a time.
type refImage map[uint32]*[PageSize]byte

func (r refImage) read8(addr uint32) byte {
	if p := r[addr>>PageShift]; p != nil {
		return p[addr&PageMask]
	}
	return 0
}

func (r refImage) write8(addr uint32, v byte) {
	p := r[addr>>PageShift]
	if p == nil {
		p = new([PageSize]byte)
		r[addr>>PageShift] = p
	}
	p[addr&PageMask] = v
}

// backed reports whether any page of [addr, addr+n) is backed.
func (r refImage) backed(addr uint32, n int) bool {
	for i := 0; i < n; i++ {
		if r[(addr+uint32(i))>>PageShift] != nil {
			return true
		}
	}
	return false
}

// leaves counts the directory leaves img has allocated.
func leaves(img *Image) int {
	n := 0
	for _, l := range img.dir {
		if l != nil {
			n++
		}
	}
	return n
}

// leaves counts the 4 MiB regions holding a backed page: the leaves an
// Image that allocates only on write must hold.
func (r refImage) leaves() int {
	seen := map[uint32]bool{}
	for pn := range r {
		seen[pn>>leafShift] = true
	}
	return len(seen)
}

func (r refImage) pageNumbers() []uint32 {
	out := make([]uint32, 0, len(r))
	for pn := range r {
		out = append(out, pn)
	}
	slices.Sort(out)
	return out
}

// modelAddr draws an address from the places the simulator touches: the
// four workload arenas, the page-table region, page boundaries (so words
// straddle), and both ends of the 32-bit space. Each arena draw stays in a
// 64-page window so pages are revisited.
func modelAddr(rng *rand.Rand) uint32 {
	window := func(base uint32) uint32 { return base + uint32(rng.Intn(64*PageSize)) }
	switch rng.Intn(9) {
	case 0:
		return window(0x1000_0000) // pointer heap
	case 1:
		return window(0x4000_0000) // data arrays
	case 2:
		return window(0x0010_0000) // low arena
	case 3:
		return window(0xFF10_0000) // high arena
	case 4:
		return PTRegionBase + uint32(rng.Intn(int(PTRegionLimit-PTRegionBase)))
	case 5:
		return window(0x1000_0000)&^PageMask + PageSize - uint32(1+rng.Intn(3)) // straddles
	case 6:
		return 0
	case 7:
		return 0xFFFF_FFFC
	default:
		return 0xFFFF_FFFC + uint32(rng.Intn(4)) // the top word, wrapping to 0
	}
}

// TestImageMatchesMapModel drives the directory-backed Image and a
// map-backed reference with the same random reads and writes. After every
// step reads agree, PageCount and the leaf count agree, PageNumbers is the
// model's page set in ascending order, and a read of unbacked memory
// allocated nothing.
func TestImageMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var img Image // the zero value is an empty memory
		ref := refImage{}
		buf := make([]byte, 2*PageSize+64)
		for step := 0; step < 3000; step++ {
			addr := modelAddr(rng)
			n := 1 + rng.Intn(len(buf))
			switch op := rng.Intn(6); op {
			case 0:
				v := byte(rng.Intn(256))
				img.Write8(addr, v)
				ref.write8(addr, v)
			case 1:
				v := rng.Uint32()
				img.Write32(addr, v)
				for i := uint32(0); i < WordSize; i++ {
					ref.write8(addr+i, byte(v>>(8*i)))
				}
			case 2:
				src := buf[:n]
				rng.Read(src)
				img.WriteBytes(addr, src)
				for i, b := range src {
					ref.write8(addr+uint32(i), b)
				}
			case 3:
				var want uint32
				for i := uint32(0); i < WordSize; i++ {
					want |= uint32(ref.read8(addr+i)) << (8 * i)
				}
				if got := img.Read32(addr); got != want {
					t.Fatalf("seed %d step %d: Read32(%#x) = %#x, model %#x", seed, step, addr, got, want)
				}
				if !ref.backed(addr, WordSize) {
					if a := testing.AllocsPerRun(5, func() { img.Read32(addr) }); a != 0 {
						t.Fatalf("seed %d step %d: unbacked Read32(%#x) allocated %v times", seed, step, addr, a)
					}
				}
			case 4:
				dst := buf[:n]
				img.ReadBytes(addr, dst)
				for i, b := range dst {
					if want := ref.read8(addr + uint32(i)); b != want {
						t.Fatalf("seed %d step %d: ReadBytes(%#x, %d)[%d] = %#x, model %#x", seed, step, addr, n, i, b, want)
					}
				}
				if !ref.backed(addr, n) {
					if a := testing.AllocsPerRun(5, func() { img.ReadBytes(addr, dst) }); a != 0 {
						t.Fatalf("seed %d step %d: unbacked ReadBytes(%#x, %d) allocated %v times", seed, step, addr, n, a)
					}
				}
			case 5:
				if got, want := img.Read8(addr), ref.read8(addr); got != want {
					t.Fatalf("seed %d step %d: Read8(%#x) = %#x, model %#x", seed, step, addr, got, want)
				}
			}
			// A read may not back a page or create a leaf, even on first
			// use, which AllocsPerRun's warm-up call would hide.
			if leaves(&img) != ref.leaves() {
				t.Fatalf("seed %d step %d: %d leaves, model pages span %d", seed, step, leaves(&img), ref.leaves())
			}
			if img.PageCount() != len(ref) {
				t.Fatalf("seed %d step %d: PageCount %d, model %d", seed, step, img.PageCount(), len(ref))
			}
			if got, want := img.PageNumbers(), ref.pageNumbers(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: PageNumbers %x, model %x", seed, step, got, want)
			}
		}
	}
}
