// Package heap builds linked data structures inside a simulated address
// space. The structures carry real little-endian pointers at real virtual
// addresses, so the content-directed prefetcher's recognition problem —
// telling addresses from data values and random bit patterns — is exercised
// against genuine memory contents, exactly as in the paper.
//
// Builders deliberately randomise node placement: consecutive logical nodes
// are scattered in memory so that neither the stride prefetcher nor simple
// next-line prefetching can follow a traversal, leaving the pointer loads
// for the content prefetcher to cover.
package heap

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/mem"
)

// Allocator is a bump allocator over a region of the simulated address
// space. It maps pages on demand and never frees; workload generators build
// their whole data set once and then trace traversals over it.
type Allocator struct {
	as    *mem.AddressSpace
	base  uint32
	cur   uint32
	limit uint32
}

// NewAllocator returns an allocator carving [base, limit) out of as.
func NewAllocator(as *mem.AddressSpace, base, limit uint32) *Allocator {
	if limit <= base {
		panic("heap: empty region")
	}
	return &Allocator{as: as, base: base, cur: base, limit: limit}
}

// Space returns the address space this allocator maps into.
func (a *Allocator) Space() *mem.AddressSpace { return a.as }

// Used reports the number of bytes allocated so far.
func (a *Allocator) Used() uint32 { return a.cur - a.base }

// Alloc returns the address of a fresh size-byte block aligned to align
// (which must be a power of two). The covered pages are mapped.
func (a *Allocator) Alloc(size, align uint32) uint32 {
	if align == 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("heap: bad alignment %d", align))
	}
	addr := (a.cur + align - 1) &^ (align - 1)
	if addr+size > a.limit || addr+size < addr {
		panic(fmt.Sprintf("heap: region exhausted: need %d bytes at %#x, limit %#x", size, addr, a.limit))
	}
	a.cur = addr + size
	a.as.EnsureMapped(addr, size)
	return addr
}

// Fill describes how non-pointer bytes of a node are populated. The mix
// matters: small integers fall in the all-zeros upper region (filtered by
// the filter bits), sign-extended negatives fall in the all-ones region,
// and random words are the false-positive fodder for the matching
// heuristic.
type Fill struct {
	SmallInts float64 // fraction of words drawn from [0, 4096)
	Negatives float64 // fraction of words drawn from [-4096, 0)
	Random    float64 // fraction of fully random 32-bit words
	// Remainder is zeros.
}

// DefaultFill is a plausible mix for heap records of commercial workloads.
var DefaultFill = Fill{SmallInts: 0.45, Negatives: 0.08, Random: 0.17}

// word draws one filler word.
func (f Fill) word(rng *rand.Rand) uint32 {
	r := rng.Float64()
	switch {
	case r < f.SmallInts:
		return uint32(rng.Intn(4096))
	case r < f.SmallInts+f.Negatives:
		return uint32(-int32(1 + rng.Intn(4096)))
	case r < f.SmallInts+f.Negatives+f.Random:
		return rng.Uint32()
	default:
		return 0
	}
}

// fillNode writes filler into every word of the node except the offsets in
// keep (a node's at most three pointer and key fields).
func fillNode(img *mem.Image, rng *rand.Rand, addr, size uint32, f Fill, keep []uint32) {
	for off := uint32(0); off+mem.WordSize <= size; off += mem.WordSize {
		if slices.Contains(keep, off) {
			continue
		}
		img.Write32(addr+off, f.word(rng))
	}
}

// scatter allocates n nodes of nodeSize bytes in randomised address order
// and returns their addresses indexed by logical position. align applies to
// each node.
func scatter(a *Allocator, rng *rand.Rand, n int, nodeSize, align uint32) []uint32 {
	addrs := make([]uint32, n)
	for i := range addrs {
		addrs[i] = a.Alloc(nodeSize, align)
	}
	rng.Shuffle(n, func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
	return addrs
}

// List is a singly linked list materialised in simulated memory.
type List struct {
	Head     uint32
	Nodes    []uint32 // traversal order
	NodeSize uint32
	NextOff  uint32
}

// ListSpec configures BuildList.
type ListSpec struct {
	Nodes    int
	NodeSize uint32 // bytes; may exceed one cache line
	NextOff  uint32 // byte offset of the next pointer
	Align    uint32 // node alignment (0 means 4)
	Fill     Fill
	Seq      bool // lay nodes out sequentially instead of scattering
}

// BuildList materialises a singly linked list. The final node's next
// pointer is nil (0).
func BuildList(a *Allocator, rng *rand.Rand, spec ListSpec) *List {
	if spec.Nodes <= 0 {
		panic("heap: list needs at least one node")
	}
	if spec.NextOff+mem.WordSize > spec.NodeSize {
		panic("heap: next pointer outside node")
	}
	align := spec.Align
	if align == 0 {
		align = 4
	}
	var addrs []uint32
	if spec.Seq {
		addrs = make([]uint32, spec.Nodes)
		for i := range addrs {
			addrs[i] = a.Alloc(spec.NodeSize, align)
		}
	} else {
		addrs = scatter(a, rng, spec.Nodes, spec.NodeSize, align)
	}
	keep := []uint32{spec.NextOff}
	img := a.as.Img
	for i, addr := range addrs {
		fillNode(img, rng, addr, spec.NodeSize, spec.Fill, keep)
		next := uint32(0)
		if i+1 < len(addrs) {
			next = addrs[i+1]
		}
		img.Write32(addr+spec.NextOff, next)
	}
	return &List{Head: addrs[0], Nodes: addrs, NodeSize: spec.NodeSize, NextOff: spec.NextOff}
}

// Tree is a binary search tree materialised in simulated memory. Keys are
// the logical indices 0..Nodes-1 stored at KeyOff.
type Tree struct {
	Root     uint32
	Nodes    []uint32
	NodeSize uint32
	KeyOff   uint32
	LeftOff  uint32
	RightOff uint32
	Count    int
}

// TreeSpec configures BuildTree.
type TreeSpec struct {
	Nodes    int
	NodeSize uint32
	KeyOff   uint32
	LeftOff  uint32
	RightOff uint32
	Fill     Fill
}

// BuildTree materialises a binary search tree over keys 0..Nodes-1,
// inserted in random order (expected depth O(log n)).
func BuildTree(a *Allocator, rng *rand.Rand, spec TreeSpec) *Tree {
	if spec.Nodes <= 0 {
		panic("heap: tree needs at least one node")
	}
	max := spec.KeyOff
	if spec.LeftOff > max {
		max = spec.LeftOff
	}
	if spec.RightOff > max {
		max = spec.RightOff
	}
	if max+mem.WordSize > spec.NodeSize {
		panic("heap: tree field outside node")
	}
	addrs := scatter(a, rng, spec.Nodes, spec.NodeSize, 4)
	keep := []uint32{spec.KeyOff, spec.LeftOff, spec.RightOff}
	img := a.as.Img
	keys := rng.Perm(spec.Nodes)
	byKey := make([]uint32, spec.Nodes) // key -> node address
	for i, addr := range addrs {
		fillNode(img, rng, addr, spec.NodeSize, spec.Fill, keep)
		img.Write32(addr+spec.KeyOff, uint32(keys[i]))
		img.Write32(addr+spec.LeftOff, 0)
		img.Write32(addr+spec.RightOff, 0)
		byKey[keys[i]] = addr
	}
	root := addrs[0]
	for _, addr := range addrs[1:] {
		key := img.Read32(addr + spec.KeyOff)
		cur := root
		for {
			ck := img.Read32(cur + spec.KeyOff)
			var off uint32
			if key < ck {
				off = spec.LeftOff
			} else {
				off = spec.RightOff
			}
			child := img.Read32(cur + off)
			if child == 0 {
				img.Write32(cur+off, addr)
				break
			}
			cur = child
		}
	}
	return &Tree{
		Root: root, Nodes: byKey, NodeSize: spec.NodeSize,
		KeyOff: spec.KeyOff, LeftOff: spec.LeftOff, RightOff: spec.RightOff,
		Count: spec.Nodes,
	}
}

// Hash is a chained hash table materialised in simulated memory: an array
// of bucket head pointers, each chaining scattered entry nodes.
type Hash struct {
	BucketBase uint32 // base of the head-pointer array
	Buckets    int
	NodeSize   uint32
	NextOff    uint32
	KeyOff     uint32
	ChainLen   []int // entries per bucket
}

// HashSpec configures BuildHash.
type HashSpec struct {
	Buckets  int
	Entries  int
	NodeSize uint32
	NextOff  uint32
	KeyOff   uint32
	Fill     Fill
}

// BuildHash materialises a chained hash table with Entries nodes spread
// uniformly over Buckets chains.
func BuildHash(a *Allocator, rng *rand.Rand, spec HashSpec) *Hash {
	if spec.Buckets <= 0 || spec.Entries <= 0 {
		panic("heap: hash needs buckets and entries")
	}
	base := a.Alloc(uint32(spec.Buckets)*mem.WordSize, 64)
	img := a.as.Img
	for i := 0; i < spec.Buckets; i++ {
		img.Write32(base+uint32(i)*mem.WordSize, 0)
	}
	addrs := scatter(a, rng, spec.Entries, spec.NodeSize, 4)
	keep := []uint32{spec.NextOff, spec.KeyOff}
	chain := make([]int, spec.Buckets)
	for i, addr := range addrs {
		fillNode(img, rng, addr, spec.NodeSize, spec.Fill, keep)
		b := i % spec.Buckets
		slot := base + uint32(b)*mem.WordSize
		img.Write32(addr+spec.NextOff, img.Read32(slot)) // push front
		img.Write32(addr+spec.KeyOff, uint32(i))
		img.Write32(slot, addr)
		chain[b]++
	}
	return &Hash{
		BucketBase: base, Buckets: spec.Buckets, NodeSize: spec.NodeSize,
		NextOff: spec.NextOff, KeyOff: spec.KeyOff, ChainLen: chain,
	}
}

// Array is a dense array for stride-friendly access patterns.
type Array struct {
	Base     uint32
	Elems    int
	ElemSize uint32
}

// BuildArray materialises a dense array of Elems elements of ElemSize
// bytes, filled with non-pointer data.
func BuildArray(a *Allocator, rng *rand.Rand, elems int, elemSize uint32, f Fill) *Array {
	base := a.Alloc(uint32(elems)*elemSize, 64)
	img := a.as.Img
	for off := uint32(0); off+mem.WordSize <= uint32(elems)*elemSize; off += mem.WordSize {
		img.Write32(base+off, f.word(rng))
	}
	return &Array{Base: base, Elems: elems, ElemSize: elemSize}
}

// Elem returns the address of element i.
func (ar *Array) Elem(i int) uint32 { return ar.Base + uint32(i)*ar.ElemSize }
