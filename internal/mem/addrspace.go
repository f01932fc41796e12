package mem

import (
	"cmp"
	"fmt"
	"slices"
)

// Virtual/physical layout of the simulated process. The page-table region is
// identity-mapped (VA == PA), mirroring a kernel direct map, so the hardware
// page-walker can fetch directory and table entries through the cache
// hierarchy by physical address.
const (
	// PTRegionBase is the first byte of the identity-mapped page-table
	// region. The 4 KiB page directory lives at its start.
	PTRegionBase uint32 = 0x0040_0000
	// PTRegionLimit bounds the page-table region (4 MiB is enough for a
	// full 32-bit space: 1024 table pages + 1 directory page).
	PTRegionLimit uint32 = 0x0080_0000
	// FrameBase is the first physical frame handed out for data pages.
	// Keeping it away from common heap VAs makes VA != PA in general,
	// which matters for the physically indexed L2.
	FrameBase uint32 = 0x8000_0000

	// PresentBit marks a valid PDE or PTE.
	PresentBit uint32 = 1
)

// AddressSpace couples a memory Image with an IA-32-style two-level page
// table. Virtual pages are mapped on demand to sequentially allocated
// physical frames; the directory and page-table pages are materialised in
// the Image itself so the simulated hardware walker performs real memory
// reads.
type AddressSpace struct {
	Img *Image

	root     uint32            // physical address of the page directory
	nextPT   uint32            // next free page-table page in the PT region
	nextFrm  uint32            // next free data frame
	vToFrame map[uint32]uint32 // vpage -> frame number (generator fast path)
}

// NewAddressSpace returns an address space with an empty page table rooted
// at PTRegionBase.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{
		Img:      NewImage(),
		root:     PTRegionBase,
		nextPT:   PTRegionBase + PageSize,
		nextFrm:  FrameBase >> PageShift,
		vToFrame: make(map[uint32]uint32),
	}
}

// Root returns the physical address of the page directory.
func (as *AddressSpace) Root() uint32 { return as.root }

// MappedPages reports how many virtual pages are mapped.
func (as *AddressSpace) MappedPages() int { return len(as.vToFrame) }

// MapPage ensures the virtual page containing va is mapped, allocating a
// frame and any needed page-table page, and returns the frame number.
func (as *AddressSpace) MapPage(va uint32) uint32 {
	vpage := va >> PageShift
	if f, ok := as.vToFrame[vpage]; ok {
		return f
	}
	pdeAddr, _ := as.EntryAddrs(va)
	pde := as.Img.Read32(pdeAddr)
	if pde&PresentBit == 0 {
		if as.nextPT >= PTRegionLimit {
			panic("mem: page-table region exhausted")
		}
		pde = as.nextPT | PresentBit
		as.nextPT += PageSize
		as.Img.Write32(pdeAddr, pde)
	}
	frame := as.nextFrm
	as.nextFrm++
	_, pteAddr := as.EntryAddrs(va)
	as.Img.Write32(pteAddr, frame<<PageShift|PresentBit)
	as.vToFrame[vpage] = frame
	return frame
}

// EnsureMapped maps every page overlapped by [va, va+size).
func (as *AddressSpace) EnsureMapped(va uint32, size uint32) {
	if size == 0 {
		return
	}
	first := va >> PageShift
	last := (va + size - 1) >> PageShift
	for p := first; ; p++ {
		as.MapPage(p << PageShift)
		if p == last {
			break
		}
	}
}

// Translate maps a virtual address to its physical address using the
// software map (the generator/architect view, not the timed walker).
// ok is false if the page is unmapped.
func (as *AddressSpace) Translate(va uint32) (pa uint32, ok bool) {
	f, ok := as.vToFrame[va>>PageShift]
	if !ok {
		return 0, false
	}
	return f<<PageShift | va&PageMask, true
}

// EntryAddrs returns the physical addresses of the page-directory entry and
// page-table entry for va. The PTE address is only meaningful when the PDE
// is present; the timed walker must check the PresentBit itself.
func (as *AddressSpace) EntryAddrs(va uint32) (pdeAddr, pteAddr uint32) {
	dirIdx := va >> 22
	tblIdx := (va >> PageShift) & 0x3FF
	pdeAddr = as.root + 4*dirIdx
	pde := as.Img.Read32(pdeAddr)
	pteAddr = (pde &^ PageMask) + 4*tblIdx
	return pdeAddr, pteAddr
}

// WalkEntry is one memory reference a hardware page walk performs.
type WalkEntry struct {
	Addr  uint32 // physical address of the PDE or PTE word
	Value uint32 // the word the walker reads
}

// Walk returns the two memory references of a hardware walk for va and the
// resulting frame. ok is false if either level is not present.
func (as *AddressSpace) Walk(va uint32) (refs [2]WalkEntry, frame uint32, ok bool) {
	pdeAddr, _ := as.EntryAddrs(va)
	pde := as.Img.Read32(pdeAddr)
	refs[0] = WalkEntry{Addr: pdeAddr, Value: pde}
	if pde&PresentBit == 0 {
		return refs, 0, false
	}
	_, pteAddr := as.EntryAddrs(va)
	pte := as.Img.Read32(pteAddr)
	refs[1] = WalkEntry{Addr: pteAddr, Value: pte}
	if pte&PresentBit == 0 {
		return refs, 0, false
	}
	return refs, pte >> PageShift, true
}

// Mapping is one virtual-page-to-frame association.
type Mapping struct {
	VPage uint32
	Frame uint32
}

// Mappings returns all virtual-to-frame associations in ascending VPage
// order, so a serialised space is the same bytes every time.
func (as *AddressSpace) Mappings() []Mapping {
	out := make([]Mapping, 0, len(as.vToFrame))
	for v, f := range as.vToFrame {
		out = append(out, Mapping{VPage: v, Frame: f})
	}
	slices.SortFunc(out, func(a, b Mapping) int { return cmp.Compare(a.VPage, b.VPage) })
	return out
}

// RestoreMapping reinstates a mapping from a checkpoint. The page-table
// words themselves arrive with the restored raw pages; this only rebuilds
// the software map and keeps the allocators ahead of restored state so the
// space remains usable for further allocation.
func (as *AddressSpace) RestoreMapping(vpage, frame uint32) {
	as.vToFrame[vpage] = frame
	if frame >= as.nextFrm {
		as.nextFrm = frame + 1
	}
	pdeAddr := as.root + 4*(vpage>>10)
	if pde := as.Img.Read32(pdeAddr); pde&PresentBit != 0 {
		if end := (pde &^ PageMask) + PageSize; end > as.nextPT {
			as.nextPT = end
		}
	}
}

func (as *AddressSpace) String() string {
	return fmt.Sprintf("mem.AddressSpace{%d mapped pages, %s}", len(as.vToFrame), as.Img)
}
