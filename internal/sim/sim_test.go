package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/trace"
)

// buildChase materialises a scattered linked list inside one 16 MiB region
// (the prefetchable range of 8 compare bits) and traces `passes` traversals
// over it. With payload set, every node carries a pointer to a scattered
// payload block that is dereferenced and then steers a data-dependent
// branch — the pattern (fetch record, process it, decide) that gives the
// demand stream more than one memory round trip of work per node, letting
// the prefetch wave run ahead exactly as in the paper's workloads.
func buildChase(t *testing.T, nodes, passes, workPerNode int, payload bool) *trace.Checkpoint {
	t.Helper()
	as := mem.NewAddressSpace()
	alloc := heap.NewAllocator(as, 0x1000_0000, 0x1100_0000)
	rng := rand.New(rand.NewSource(7))
	l := heap.BuildList(alloc, rng, heap.ListSpec{
		Nodes: nodes, NodeSize: 64, NextOff: 0, Fill: heap.DefaultFill,
	})
	payloadOf := make(map[uint32]uint32, nodes)
	if payload {
		blocks := make([]uint32, nodes)
		for i := range blocks {
			blocks[i] = alloc.Alloc(64, 64)
			as.Img.Write32(blocks[i], rng.Uint32())
		}
		rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
		for i, n := range l.Nodes {
			payloadOf[n] = blocks[i]
			as.Img.Write32(n+8, blocks[i])
		}
	}
	b := trace.NewBuilder(0)
	for p := 0; p < passes; p++ {
		cur := l.Head
		for cur != 0 {
			next := as.Img.Read32(cur)
			if payload {
				pb := payloadOf[cur]
				b.Load(0x104, 2, 1, cur+8) // r2 = node->payload
				b.Load(0x108, 3, 2, pb)    // r3 = *payload (second round trip)
				for w := 0; w < workPerNode; w++ {
					b.Int(0x120+uint32(w)*4, 3, 3, trace.NoReg)
				}
				// Data-dependent branch: resolves only after the payload
				// arrives, gating fetch of the next chain load on a
				// mispredict.
				b.Branch(0x160, 3, as.Img.Read32(pb)&1 == 1)
			} else {
				for w := 0; w < workPerNode; w++ {
					b.Int(0x120+uint32(w)*4, 2, 2, trace.NoReg)
				}
			}
			b.Load(0x100, 1, 1, cur) // r1 = node->next: the chase
			b.Branch(0x180, 1, next != 0)
			cur = next
		}
	}
	return &trace.Checkpoint{Name: "chase", Space: as, Trace: b.Trace()}
}

// buildStrideWalk traces sequential passes over a dense array: the workload
// the stride prefetcher owns.
func buildStrideWalk(t *testing.T, elems, passes int) *trace.Checkpoint {
	t.Helper()
	as := mem.NewAddressSpace()
	alloc := heap.NewAllocator(as, 0x1000_0000, 0x3000_0000)
	rng := rand.New(rand.NewSource(8))
	arr := heap.BuildArray(alloc, rng, elems, 64, heap.Fill{SmallInts: 1})
	b := trace.NewBuilder(0)
	for p := 0; p < passes; p++ {
		for i := 0; i < elems; i++ {
			b.Load(0x200, 1, trace.NoReg, arr.Elem(i))
			// Work on each element keeps the loop latency-bound rather
			// than bus-bandwidth-bound, so prefetch lead matters.
			for w := 0; w < 24; w++ {
				b.Int(0x210+uint32(w)*4, 2, 1, trace.NoReg)
			}
			b.Branch(0x208, 2, i+1 < elems)
		}
	}
	return &trace.Checkpoint{Name: "stride", Space: as, Trace: b.Trace()}
}

func testConfig() Config {
	cfg := Default()
	cfg.WarmupOps = 0
	cfg.MPTUBucketOps = 10_000
	return cfg
}

func TestBaselineRunsToCompletion(t *testing.T) {
	ck := buildChase(t, 2000, 1, 2, false)
	res := Run(ck, testConfig())
	if res.Core.Retired != uint64(ck.Trace.Len()) {
		t.Fatalf("retired %d of %d", res.Core.Retired, ck.Trace.Len())
	}
	if res.Counters.L2Misses == 0 {
		t.Fatal("pointer chase produced no L2 misses")
	}
	if res.Counters.Walks == 0 {
		t.Fatal("no page walks despite cold TLB")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := testConfig().WithContent(core.DefaultConfig)
	a := Run(buildChase(t, 3000, 1, 2, false), cfg)
	b := Run(buildChase(t, 3000, 1, 2, false), cfg)
	if a.Core.Cycles != b.Core.Cycles {
		t.Fatalf("nondeterministic: %d vs %d cycles", a.Core.Cycles, b.Core.Cycles)
	}
	if a.Counters.PrefIssued != b.Counters.PrefIssued {
		t.Fatalf("nondeterministic prefetch counts: %v vs %v",
			a.Counters.PrefIssued, b.Counters.PrefIssued)
	}
}

// TestDeterminismCountersIdentical is the determinism contract the detrand
// analyzer (cmd/simlint) exists to protect: two runs of the same
// workload/seed produce a byte-identical stats.Counters block — every
// counter, not just headline cycles. Counters is a flat struct of scalars
// and fixed-size arrays, so == compares every field.
func TestDeterminismCountersIdentical(t *testing.T) {
	cfg := testConfig().WithContent(core.DefaultConfig)
	cfg.WarmupOps = 10_000
	a := Run(buildChase(t, 16_000, 2, 4, true), cfg)
	b := Run(buildChase(t, 16_000, 2, 4, true), cfg)
	if *a.Counters != *b.Counters {
		av := reflect.ValueOf(*a.Counters)
		bv := reflect.ValueOf(*b.Counters)
		for i := 0; i < av.NumField(); i++ {
			if x, y := av.Field(i), bv.Field(i); !x.Equal(y) {
				t.Errorf("Counters.%s differs between identical runs: %v vs %v",
					av.Type().Field(i).Name, x, y)
			}
		}
		t.Fatal("stats.Counters not byte-identical across identical runs")
	}
	if a.MeasuredCycles != b.MeasuredCycles || a.MeasuredUops != b.MeasuredUops {
		t.Fatalf("measured region differs: %d/%d cycles, %d/%d µops",
			a.MeasuredCycles, b.MeasuredCycles, a.MeasuredUops, b.MeasuredUops)
	}
	if !reflect.DeepEqual(a.MPTU.Values(), b.MPTU.Values()) {
		t.Fatal("MPTU series differs across identical runs")
	}
}

func TestContentPrefetcherSpeedsUpPointerChase(t *testing.T) {
	// Working set 32K nodes * 64B = 2 MiB > 1 MiB UL2: capacity misses on
	// every pass.
	ck := buildChase(t, 32_000, 2, 4, true)
	base := Run(ck, testConfig())
	cdp := Run(ck, testConfig().WithContent(core.DefaultConfig))
	sp := cdp.SpeedupOver(base)
	t.Logf("baseline %d cycles, cdp %d cycles, speedup %.3f",
		base.MeasuredCycles, cdp.MeasuredCycles, sp)
	t.Logf("cdp issued %d content prefetches, %d useful, %d full hits, %d partial",
		cdp.Counters.PrefIssued[cache.SrcContent],
		cdp.Counters.PrefUseful[cache.SrcContent],
		cdp.Counters.FullHits[cache.SrcContent],
		cdp.Counters.PartialHits[cache.SrcContent])
	if cdp.Counters.PrefIssued[cache.SrcContent] == 0 {
		t.Fatal("content prefetcher issued nothing")
	}
	if cdp.Counters.UsefulPrefetches(cache.SrcContent) == 0 {
		t.Fatal("no content prefetch was useful")
	}
	if sp < 1.05 {
		t.Fatalf("content prefetcher speedup %.3f, want >= 1.05 on a pure pointer chase", sp)
	}
}

func TestReinforcementBeatsNoReinforcementAtLowDepth(t *testing.T) {
	ck := buildChase(t, 32_000, 2, 4, true)
	nr := core.DefaultConfig
	nr.Reinforce = false
	nr.DepthThreshold = 3
	reinf := core.DefaultConfig
	reinf.Reinforce = true
	reinf.DepthThreshold = 3
	a := Run(ck, testConfig().WithContent(nr))
	b := Run(ck, testConfig().WithContent(reinf))
	t.Logf("no-reinforcement %d cycles, reinforcement %d cycles (rescans %d)",
		a.MeasuredCycles, b.MeasuredCycles, b.Counters.Rescans)
	if b.Counters.Rescans == 0 {
		t.Fatal("reinforcement never rescanned")
	}
	if b.MeasuredCycles >= a.MeasuredCycles {
		t.Fatalf("reinforcement did not help: %d vs %d cycles", b.MeasuredCycles, a.MeasuredCycles)
	}
}

func TestStrideOwnsRegularWorkload(t *testing.T) {
	ck := buildStrideWalk(t, 40_000, 2)
	base := Run(ck, testConfig())
	if base.Counters.PrefIssued[cache.SrcStride] == 0 {
		t.Fatal("stride prefetcher idle on a sequential walk")
	}
	if base.Counters.UsefulPrefetches(cache.SrcStride) == 0 {
		t.Fatal("stride prefetches never useful")
	}
	nostride := testConfig()
	nostride.Stride = nil
	off := Run(ck, nostride)
	if sp := base.SpeedupOver(off); sp < 1.03 {
		t.Fatalf("stride prefetcher speedup over no-prefetch = %.3f, want >= 1.03", sp)
	}
	// The content prefetcher must not slow a stride workload much.
	cdp := Run(ck, testConfig().WithContent(core.DefaultConfig))
	sp := cdp.SpeedupOver(base)
	t.Logf("stride workload: cdp speedup %.3f, content issued %d",
		sp, cdp.Counters.PrefIssued[cache.SrcContent])
	if sp < 0.97 {
		t.Fatalf("content prefetcher degraded stride workload: %.3f", sp)
	}
}

func TestInjectionPollutes(t *testing.T) {
	ck := buildChase(t, 16_000, 2, 4, true)
	base := Run(ck, testConfig())
	inj := testConfig()
	inj.InjectBadPrefetches = true
	bad := Run(ck, inj)
	t.Logf("baseline %d cycles, injected %d cycles, %d injections",
		base.MeasuredCycles, bad.MeasuredCycles, bad.Counters.InjectedPrefetches)
	if bad.Counters.InjectedPrefetches == 0 {
		t.Fatal("injection inactive")
	}
	if bad.MeasuredCycles <= base.MeasuredCycles {
		t.Fatal("pollution injection did not hurt performance")
	}
}

func TestMPTUSeriesRecords(t *testing.T) {
	ck := buildChase(t, 8000, 1, 2, false)
	res := Run(ck, testConfig())
	if res.MPTU.Len() == 0 {
		t.Fatal("MPTU series empty")
	}
	var total float64
	for _, v := range res.MPTU.Values() {
		total += v
	}
	if total == 0 {
		t.Fatal("MPTU series all zero despite misses")
	}
}

func TestWarmupResetsCounters(t *testing.T) {
	ck := buildChase(t, 16_000, 2, 4, true)
	cfg := testConfig()
	cfg.WarmupOps = 20_000
	res := Run(ck, cfg)
	if res.Counters.WarmCycles == 0 {
		t.Fatal("warm-up boundary not recorded")
	}
	if res.MeasuredCycles >= res.Core.Cycles {
		t.Fatal("measured region not smaller than total")
	}
	if res.MeasuredUops != res.Core.Retired-20_000 {
		t.Fatalf("measured µops = %d", res.MeasuredUops)
	}
}

func TestCDPIssuesSpeculativeWalks(t *testing.T) {
	ck := buildChase(t, 32_000, 1, 4, true)
	res := Run(ck, testConfig().WithContent(core.DefaultConfig))
	if res.Counters.CDPNeedWalk == 0 {
		t.Fatal("no content prefetch ever needed a translation")
	}
	if res.Counters.CDPWalks == 0 {
		t.Fatal("content prefetcher never walked the page table")
	}
	t.Logf("content prefetches needing walk: %d of %d issued",
		res.Counters.CDPNeedWalk, res.Counters.PrefIssued[cache.SrcContent])
}

func TestAdaptiveControllerRunsInSim(t *testing.T) {
	ck := buildChase(t, 16_000, 1, 4, true)
	cfg := core.DefaultConfig
	ac := core.AdaptiveConfig{
		Window: 256, MinCompare: 8, MaxCompare: 12,
		LowAccuracy: 0.9, HighAccuracy: 0.95, // absurdly high: force tightening
	}
	cfg.Adaptive = &ac
	res := Run(ck, testConfig().WithContent(cfg))
	if res.Counters.PrefIssued[cache.SrcContent] == 0 {
		t.Fatal("adaptive prefetcher issued nothing")
	}
	// With a 90% accuracy target the controller must have tightened.
	// (The prefetcher instance is internal; observe via determinism of
	// the run and the fact it still completes and prefetches.)
	fixed := Run(ck, testConfig().WithContent(core.DefaultConfig))
	if res.Counters.PrefIssued[cache.SrcContent] >= fixed.Counters.PrefIssued[cache.SrcContent] {
		t.Fatalf("tightening did not reduce issue volume: adaptive %d vs fixed %d",
			res.Counters.PrefIssued[cache.SrcContent],
			fixed.Counters.PrefIssued[cache.SrcContent])
	}
}

func TestDepthThresholdBoundsChaining(t *testing.T) {
	ck := buildChase(t, 16_000, 1, 4, true)
	cfg := core.DefaultConfig
	cfg.NextLines = 0
	cfg.Reinforce = false
	cfg.DepthThreshold = 1
	shallow := Run(ck, testConfig().WithContent(cfg))
	cfg.DepthThreshold = 9
	deep := Run(ck, testConfig().WithContent(cfg))
	// Without reinforcement, deeper chains must issue more prefetches
	// (the Figure 9 "nr" trend).
	if deep.Counters.PrefIssued[cache.SrcContent] <= shallow.Counters.PrefIssued[cache.SrcContent] {
		t.Fatalf("depth 9 issued %d <= depth 1 issued %d",
			deep.Counters.PrefIssued[cache.SrcContent],
			shallow.Counters.PrefIssued[cache.SrcContent])
	}
	if deep.MeasuredCycles >= shallow.MeasuredCycles {
		t.Fatalf("deeper chaining did not help without reinforcement: %d vs %d",
			deep.MeasuredCycles, shallow.MeasuredCycles)
	}
}
