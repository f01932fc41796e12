// Quickstart: build a pointer-chasing workload in simulated memory, run it
// on the Table 1 machine with and without the content-directed prefetcher,
// and print the speedup.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	// 1. Materialise a scattered linked list with per-node payload
	// records in a simulated 32-bit address space. The pointers are real
	// little-endian words in memory — exactly what the prefetcher scans.
	space := mem.NewAddressSpace()
	alloc := heap.NewAllocator(space, 0x1000_0000, 0x1100_0000)
	rng := rand.New(rand.NewSource(1))
	list := heap.BuildList(alloc, rng, heap.ListSpec{
		Nodes:    24_000,
		NodeSize: 64,
		NextOff:  0,
		Fill:     heap.DefaultFill,
	})
	payload := make([]uint32, len(list.Nodes))
	for i, n := range list.Nodes {
		payload[i] = alloc.Alloc(64, 64)
		space.Img.Write32(payload[i], rng.Uint32()|1)
		space.Img.Write32(n+8, payload[i]) // node -> payload pointer
	}

	// 2. Trace two traversals: load next pointer (dependence chain), load
	// the payload through the node's pointer, do some work, branch on the
	// loaded data.
	b := trace.NewBuilder(0)
	for pass := 0; pass < 2; pass++ {
		for i, n := range list.Nodes {
			b.Load(0x104, 2, 1, n+8)        // r2 = node->payload
			b.Load(0x108, 3, 2, payload[i]) // r3 = *r2
			for w := 0; w < 6; w++ {
				b.Int(0x120+uint32(w)*4, 3, 3, trace.NoReg)
			}
			b.Branch(0x160, 3, space.Img.Read32(payload[i])&1 == 1)
			b.Load(0x100, 1, 1, n) // r1 = node->next: the chase
			b.Branch(0x180, 1, i+1 < len(list.Nodes))
		}
	}
	ck := &trace.Checkpoint{Name: "quickstart", Space: space, Trace: b.Trace()}

	// 3. Run the stride-only baseline and the content-prefetcher machine.
	base := sim.Default()
	base.WarmupOps = 50_000
	withCDP := base.WithContent(core.DefaultConfig)

	rBase := sim.Run(ck, base)
	rCDP := sim.Run(ck, withCDP)

	fmt.Printf("baseline (stride only):  %9d cycles  IPC %.3f\n",
		rBase.MeasuredCycles, rBase.IPC())
	fmt.Printf("with content prefetcher: %9d cycles  IPC %.3f\n",
		rCDP.MeasuredCycles, rCDP.IPC())
	fmt.Printf("speedup: %.3f\n\n", rCDP.SpeedupOver(rBase))

	c := rCDP.Counters
	fmt.Printf("content prefetches issued: %d\n", c.PrefIssued[cache.SrcContent])
	fmt.Printf("  fully masked misses:     %d\n", c.FullHits[cache.SrcContent])
	fmt.Printf("  partially masked misses: %d\n", c.PartialHits[cache.SrcContent])
	fmt.Printf("  accuracy:                %.3f\n", c.Accuracy(cache.SrcContent))
	fmt.Printf("  chain rescans:           %d\n", c.Rescans)
}
