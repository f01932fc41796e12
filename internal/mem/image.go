// Package mem provides the simulated 32-bit memory substrate used by the
// whole reproduction: a sparse, page-granular memory image holding the
// little-endian contents of the simulated address space, plus an IA-32-style
// two-level page table mapping virtual pages to physical frames.
//
// The image itself is indexed like the page table it holds: a fixed
// 1024-entry directory of leaves, each leaf 1024 page pointers, so finding a
// page is two array indexings rather than a hash lookup, and backed pages
// enumerate in ascending address order.
//
// The content-directed prefetcher reads *actual memory contents* (cache-line
// bytes) to recognise pointers, so workloads materialise real linked data
// structures in an Image before tracing their traversal.
package mem

import (
	"encoding/binary"
	"fmt"
)

// Architectural constants for the simulated IA-32-like machine.
const (
	PageShift = 12
	PageSize  = 1 << PageShift // 4 KiB pages, as in Table 1
	PageMask  = PageSize - 1
	WordSize  = 4 // address-sized words are 32 bits
)

// leafShift splits a page number into a directory index (its high 10 bits)
// and a leaf index (its low 10 bits).
const (
	leafShift = 10
	leafSize  = 1 << leafShift
)

// leaf maps the 1024 pages of one 4 MiB region to their backing bytes.
type leaf [leafSize]*[PageSize]byte

// Image is a sparse byte-addressable memory: a two-level page directory
// over the 4 GiB space, allocating a leaf on the first write into its 4 MiB
// region and a page on the first write into its 4 KiB. The zero value is an
// empty memory; reads of unbacked pages return zeros without allocating, so
// a sparsely touched space stays cheap.
type Image struct {
	dir   [leafSize]*leaf
	pages int
}

// NewImage returns an empty memory image.
func NewImage() *Image { return &Image{} }

// page returns the backing page for addr, or nil if it is unbacked.
func (m *Image) page(addr uint32) *[PageSize]byte {
	l := m.dir[addr>>(PageShift+leafShift)]
	if l == nil {
		return nil
	}
	return l[addr>>PageShift&(leafSize-1)]
}

// backedPage returns the backing page for addr, allocating it (and its
// leaf) if needed.
func (m *Image) backedPage(addr uint32) *[PageSize]byte {
	l := m.dir[addr>>(PageShift+leafShift)]
	if l == nil {
		l = new(leaf)
		m.dir[addr>>(PageShift+leafShift)] = l
	}
	p := l[addr>>PageShift&(leafSize-1)]
	if p == nil {
		p = new([PageSize]byte)
		l[addr>>PageShift&(leafSize-1)] = p
		m.pages++
	}
	return p
}

// PageCount reports how many distinct pages are backed.
func (m *Image) PageCount() int { return m.pages }

// PageNumbers returns the backed page numbers in ascending order.
func (m *Image) PageNumbers() []uint32 {
	out := make([]uint32, 0, m.pages)
	for d, l := range m.dir {
		if l == nil {
			continue
		}
		for i, p := range l {
			if p != nil {
				out = append(out, uint32(d)<<leafShift|uint32(i))
			}
		}
	}
	return out
}

// Read8 returns the byte at addr.
func (m *Image) Read8(addr uint32) byte {
	p := m.page(addr)
	if p == nil {
		return 0
	}
	return p[addr&PageMask]
}

// Write8 stores one byte at addr.
func (m *Image) Write8(addr uint32, v byte) {
	m.backedPage(addr)[addr&PageMask] = v
}

// Read32 returns the little-endian 32-bit word at addr. The word may
// straddle a page boundary.
func (m *Image) Read32(addr uint32) uint32 {
	if addr&PageMask <= PageSize-WordSize {
		p := m.page(addr)
		if p == nil {
			return 0
		}
		off := addr & PageMask
		return binary.LittleEndian.Uint32(p[off : off+4])
	}
	var b [4]byte
	for i := range b {
		b[i] = m.Read8(addr + uint32(i))
	}
	return binary.LittleEndian.Uint32(b[:])
}

// Write32 stores a little-endian 32-bit word at addr. The word may straddle
// a page boundary.
func (m *Image) Write32(addr uint32, v uint32) {
	if addr&PageMask <= PageSize-WordSize {
		p := m.backedPage(addr)
		off := addr & PageMask
		binary.LittleEndian.PutUint32(p[off:off+4], v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	for i := range b {
		m.Write8(addr+uint32(i), b[i])
	}
}

// ReadBytes fills dst with the bytes starting at addr.
func (m *Image) ReadBytes(addr uint32, dst []byte) {
	for len(dst) > 0 {
		off := addr & PageMask
		n := PageSize - int(off)
		if n > len(dst) {
			n = len(dst)
		}
		p := m.page(addr)
		if p == nil {
			for i := 0; i < n; i++ {
				dst[i] = 0
			}
		} else {
			copy(dst[:n], p[off:int(off)+n])
		}
		dst = dst[n:]
		addr += uint32(n)
	}
}

// WriteBytes stores src starting at addr.
func (m *Image) WriteBytes(addr uint32, src []byte) {
	for len(src) > 0 {
		off := addr & PageMask
		n := PageSize - int(off)
		if n > len(src) {
			n = len(src)
		}
		p := m.backedPage(addr)
		copy(p[off:int(off)+n], src[:n])
		src = src[n:]
		addr += uint32(n)
	}
}

// ReadLine copies the size-byte cache line containing addr into a fresh
// slice. addr is truncated down to the line boundary.
func (m *Image) ReadLine(addr uint32, size int) []byte {
	out := make([]byte, size)
	m.ReadLineInto(addr, out)
	return out
}

// ReadLineInto fills dst with the len(dst)-byte cache line containing addr,
// truncating addr down to the line boundary. It is the allocation-free form
// of ReadLine for callers that reuse a scratch buffer.
func (m *Image) ReadLineInto(addr uint32, dst []byte) {
	base := addr &^ uint32(len(dst)-1)
	m.ReadBytes(base, dst)
}

func (m *Image) String() string {
	return fmt.Sprintf("mem.Image{%d pages, %d KiB backed}", m.pages, m.pages*PageSize/1024)
}
