package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
)

func init() {
	register("fig4", "Figure 4: re-establishing a terminated prefetch chain", runFig4)
}

// fig4Chain builds the figure's idealised scenario: one long dependent
// pointer chain with enough work per node that the prefetch wave can run a
// full depth-threshold ahead of the demand stream.
func fig4Chain(nodes, work int) *trace.Checkpoint {
	space := mem.NewAddressSpace()
	alloc := heap.NewAllocator(space, 0x1000_0000, 0x1100_0000)
	rng := rand.New(rand.NewSource(4))
	l := heap.BuildList(alloc, rng, heap.ListSpec{
		Nodes: nodes, NodeSize: 64, NextOff: 0, Fill: heap.DefaultFill,
	})
	pay := make([]uint32, len(l.Nodes))
	for i, n := range l.Nodes {
		pay[i] = alloc.Alloc(64, 64)
		space.Img.Write32(pay[i], rng.Uint32()|1)
		space.Img.Write32(n+8, pay[i])
	}
	b := trace.NewBuilder(0)
	for i, n := range l.Nodes {
		b.Load(0x104, 2, 1, n+8)
		b.Load(0x108, 3, 2, pay[i])
		for w := 0; w < work; w++ {
			b.Int(0x120+uint32(w%8)*4, 3, 3, trace.NoReg)
		}
		b.Branch(0x160, 3, space.Img.Read32(pay[i])&3 != 0)
		b.Load(0x100, 1, 1, n)
		b.Branch(0x180, 1, i+1 < len(l.Nodes))
	}
	return &trace.Checkpoint{Name: "fig4-chain", Space: space, Trace: b.Trace()}
}

func runFig4(o Options) (*Report, error) {
	nodes := 20_000
	ck := fig4Chain(nodes, 24)
	base := sim.Default()
	base.WarmupOps = 10_000

	mk := func(reinforce bool, slack int) sim.Config {
		cc := core.DefaultConfig
		cc.DepthThreshold = 3
		cc.NextLines = 0
		cc.Reinforce = reinforce
		if reinforce {
			cc.RescanSlack = slack
		}
		return base.WithContent(cc)
	}
	rows := []struct {
		name string
		cfg  sim.Config
	}{
		{"(a) no reinforcement", mk(false, 1)},
		{"(b) with reinforcement", mk(true, 1)},
		{"(c) reinforcement, rescan slack 2", mk(true, 2)},
	}

	t := &report.Table{
		Title: "Figure 4: demand misses along one pointer chain, depth threshold 3",
		Headers: []string{"scheme", "chain misses", "nodes/miss", "rescans",
			"full hits", "speedup vs (a)"},
		Note: "Paper: without reinforcement the chain dies at the threshold and costs a miss every " +
			"4 requests; reinforcement sustains it after the initial miss; slack 2 halves the rescans.",
	}
	var first *sim.Result
	for _, r := range rows {
		res, err := sim.RunContext(o.ctx(), ck, r.cfg)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = res
		}
		c := res.Counters
		perMiss := "-"
		if c.MissNoPF > 0 {
			perMiss = fmt.Sprintf("%.1f", float64(nodes)/float64(c.MissNoPF))
		}
		t.AddRow(r.name, c.MissNoPF, perMiss, c.Rescans,
			c.FullHits[cache.SrcContent], res.SpeedupOver(first))
	}
	return &Report{ID: "fig4", Title: "Figure 4", Text: t.Render()}, nil
}
