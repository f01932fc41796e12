// Pointerchase: a deep dive into prefetch chaining and feedback-directed
// path reinforcement (Figures 3 and 4 of the paper).
//
// The example builds one long scattered linked list whose traversal does
// substantial per-node work — the regime where the prefetch wave can run
// ahead of the demand stream — and compares four machines:
//
//	stride baseline | chaining only | chaining at depth 9 | chaining + reinforcement
//
//	go run ./examples/pointerchase
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

func buildWorkload() *trace.Checkpoint {
	space := mem.NewAddressSpace()
	alloc := heap.NewAllocator(space, 0x1000_0000, 0x1100_0000)
	rng := rand.New(rand.NewSource(7))
	list := heap.BuildList(alloc, rng, heap.ListSpec{
		Nodes: 20_000, NodeSize: 64, NextOff: 0, Fill: heap.DefaultFill,
	})
	// Records are 128 bytes (two lines): next-line widening earns its keep.
	records := make([]uint32, len(list.Nodes))
	for i, n := range list.Nodes {
		records[i] = alloc.Alloc(128, 64)
		space.Img.Write32(records[i], rng.Uint32()|1)
		space.Img.Write32(n+8, records[i])
	}
	b := trace.NewBuilder(0)
	for pass := 0; pass < 2; pass++ {
		for i, n := range list.Nodes {
			b.Load(0x104, 2, 1, n+8)           // record pointer
			b.Load(0x108, 3, 2, records[i])    // record line 0
			b.Load(0x10C, 3, 2, records[i]+64) // record line 1
			for w := 0; w < 20; w++ {
				b.Int(0x120+uint32(w)*4, 3, 3, trace.NoReg)
			}
			b.Branch(0x160, 3, space.Img.Read32(records[i])&3 != 0)
			b.Load(0x100, 1, 1, n)
			b.Branch(0x180, 1, i+1 < len(list.Nodes))
		}
	}
	return &trace.Checkpoint{Name: "pointerchase", Space: space, Trace: b.Trace()}
}

func main() {
	ck := buildWorkload()
	base := sim.Default()
	base.WarmupOps = 60_000

	configs := []struct {
		name string
		cfg  sim.Config
	}{
		{"stride baseline", base},
		{"cdp depth 3, no reinforcement", withCDP(base, 3, false)},
		{"cdp depth 9, no reinforcement", withCDP(base, 9, false)},
		{"cdp depth 3, reinforcement", withCDP(base, 3, true)},
	}

	var baseline *sim.Result
	fmt.Printf("%-32s %12s %8s %8s %9s %9s %8s\n",
		"configuration", "cycles", "speedup", "issued", "full", "partial", "rescans")
	for _, c := range configs {
		r := sim.Run(ck, c.cfg)
		if baseline == nil {
			baseline = r
		}
		st := r.Counters
		fmt.Printf("%-32s %12d %8.3f %8d %9d %9d %8d\n",
			c.name, r.MeasuredCycles, r.SpeedupOver(baseline),
			st.PrefIssued[cache.SrcContent],
			st.FullHits[cache.SrcContent], st.PartialHits[cache.SrcContent],
			st.Rescans)
	}
	fmt.Println("\nReinforcement keeps the chain a depth-threshold ahead of the demand")
	fmt.Println("stream (Figure 4(b)): same depth bound, strictly fewer chain restarts.")
}

func withCDP(base sim.Config, depth int, reinforce bool) sim.Config {
	cc := core.DefaultConfig
	cc.DepthThreshold = depth
	cc.Reinforce = reinforce
	return base.WithContent(cc)
}
