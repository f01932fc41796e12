package sim

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/markov"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// buildLoop traces a repeating miss sequence over a fixed set of scattered
// lines: ideal Markov training material.
func buildLoop(t *testing.T, lines, passes, work int) *trace.Checkpoint {
	t.Helper()
	as := mem.NewAddressSpace()
	alloc := heap.NewAllocator(as, 0x1000_0000, 0x1100_0000)
	rng := rand.New(rand.NewSource(11))
	addrs := make([]uint32, lines)
	for i := range addrs {
		addrs[i] = alloc.Alloc(64, 64)
	}
	rng.Shuffle(lines, func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
	b := trace.NewBuilder(0)
	for p := 0; p < passes; p++ {
		for i, a := range addrs {
			// Serially dependent loads: the repeating miss sequence is
			// latency-bound, so a correct successor prediction saves a
			// full memory round trip.
			b.Load(0x300, 1, 1, a)
			for w := 0; w < work; w++ {
				b.Int(0x310+uint32(w%8)*4, 2, 1, trace.NoReg)
			}
			b.Branch(0x330, 2, i+1 < lines)
		}
	}
	return &trace.Checkpoint{Name: "loop", Space: as, Trace: b.Trace()}
}

func TestMarkovLearnsRepeatingMissSequence(t *testing.T) {
	// 40K lines (2.5 MB) > 1 MB L2: every pass misses; the sequence
	// repeats, which is exactly what a 1-history Markov table captures.
	ck := buildLoop(t, 40_000, 3, 8)
	base := Run(ck, testConfig())
	mk := testConfig()
	mk.Markov = &markov.Config{}
	mk.Name = "markov"
	mkRes := Run(ck, mk)
	if mkRes.Counters.PrefIssued[cache.SrcMarkov] == 0 {
		t.Fatal("markov issued nothing on a repeating miss sequence")
	}
	if mkRes.Counters.UsefulPrefetches(cache.SrcMarkov) == 0 {
		t.Fatal("no markov prefetch was useful")
	}
	sp := mkRes.SpeedupOver(base)
	t.Logf("markov speedup %.3f (issued %d, useful %d)", sp,
		mkRes.Counters.PrefIssued[cache.SrcMarkov],
		mkRes.Counters.UsefulPrefetches(cache.SrcMarkov))
	if sp < 1.01 {
		t.Fatalf("markov speedup %.3f on its ideal workload", sp)
	}
}

func TestMarkovBoundedTableWorsens(t *testing.T) {
	ck := buildLoop(t, 40_000, 3, 8)
	big := testConfig()
	big.Markov = &markov.Config{}
	tiny := testConfig()
	tiny.Markov = &markov.Config{MaxEntries: 256}
	rBig := Run(ck, big)
	rTiny := Run(ck, tiny)
	if rTiny.Counters.UsefulPrefetches(cache.SrcMarkov) >= rBig.Counters.UsefulPrefetches(cache.SrcMarkov) {
		t.Fatalf("256-entry STAB as useful as unbounded: %d vs %d",
			rTiny.Counters.UsefulPrefetches(cache.SrcMarkov),
			rBig.Counters.UsefulPrefetches(cache.SrcMarkov))
	}
}

func TestPageWalkFillsNotScanned(t *testing.T) {
	// A TLB-thrashing random-page workload forces many walks; the
	// page-table lines are dense with pointers, but the scanner must
	// never see them. With CDP enabled and *no pointer data at all*,
	// any content prefetch would have to come from scanned PT fills.
	as := mem.NewAddressSpace()
	alloc := heap.NewAllocator(as, 0x1000_0000, 0x1100_0000)
	arr := heap.BuildArray(alloc, rand.New(rand.NewSource(3)), 40_000, 64, heap.Fill{})
	// Zero fill: no words in the data anywhere look like pointers.
	b := trace.NewBuilder(0)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 30_000; i++ {
		b.Load(0x400, 1, trace.NoReg, arr.Elem(rng.Intn(arr.Elems)))
		b.Int(0x404, 2, 1, trace.NoReg)
	}
	ck := &trace.Checkpoint{Name: "walks", Space: as, Trace: b.Trace()}
	res := Run(ck, testConfig().WithContent(core.DefaultConfig))
	if res.Counters.Walks == 0 {
		t.Fatal("workload did not exercise the walker")
	}
	if got := res.Counters.PrefIssued[cache.SrcContent]; got != 0 {
		t.Fatalf("%d content prefetches from pointer-free data: PT lines were scanned", got)
	}
}

func TestRescanSlackHalvesRescans(t *testing.T) {
	ck := buildChase(t, 24_000, 2, 4, true)
	slack1 := core.DefaultConfig
	slack1.RescanSlack = 1
	slack2 := core.DefaultConfig
	slack2.RescanSlack = 2 // Figure 4(c)
	r1 := Run(ck, testConfig().WithContent(slack1))
	r2 := Run(ck, testConfig().WithContent(slack2))
	if r2.Counters.Rescans >= r1.Counters.Rescans {
		t.Fatalf("slack 2 rescans %d >= slack 1 rescans %d",
			r2.Counters.Rescans, r1.Counters.Rescans)
	}
	t.Logf("rescans: slack1 %d, slack2 %d", r1.Counters.Rescans, r2.Counters.Rescans)
}

func TestPrevLineConfigRuns(t *testing.T) {
	ck := buildChase(t, 8_000, 1, 4, true)
	cfg := core.DefaultConfig
	cfg.PrevLines = 1
	cfg.NextLines = 1
	res := Run(ck, testConfig().WithContent(cfg))
	if res.Counters.PrefIssued[cache.SrcContent] == 0 {
		t.Fatal("p1.n1 configuration issued nothing")
	}
}

func TestRestoredCheckpointSimulatesIdentically(t *testing.T) {
	ck := buildChase(t, 6_000, 1, 4, true)
	var buf bytes.Buffer
	if _, err := ck.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := trace.ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig().WithContent(core.DefaultConfig)
	a := Run(ck, cfg)
	b := Run(restored, cfg)
	if a.Core.Cycles != b.Core.Cycles {
		t.Fatalf("restored checkpoint diverged: %d vs %d cycles", a.Core.Cycles, b.Core.Cycles)
	}
	if a.Counters.L2Misses != b.Counters.L2Misses {
		t.Fatalf("restored checkpoint miss count diverged: %d vs %d",
			a.Counters.L2Misses, b.Counters.L2Misses)
	}
}

func TestStoreHeavyWorkloadWritesBack(t *testing.T) {
	// Stores dirty lines; evictions must generate write-back traffic
	// without deadlocking the bus pump.
	as := mem.NewAddressSpace()
	alloc := heap.NewAllocator(as, 0x1000_0000, 0x1100_0000)
	arr := heap.BuildArray(alloc, rand.New(rand.NewSource(5)), 40_000, 64, heap.Fill{})
	b := trace.NewBuilder(0)
	for p := 0; p < 2; p++ {
		for i := 0; i < arr.Elems; i++ {
			b.Store(0x500, 1, trace.NoReg, arr.Elem(i))
			b.Int(0x504, 1, 1, trace.NoReg)
		}
	}
	ck := &trace.Checkpoint{Name: "stores", Space: as, Trace: b.Trace()}
	res := Run(ck, testConfig())
	if res.Core.Retired != uint64(ck.Trace.Len()) {
		t.Fatalf("store-heavy run incomplete: %d of %d", res.Core.Retired, ck.Trace.Len())
	}
	if res.Counters.RetiredStores == 0 {
		t.Fatal("no stores retired")
	}
}

func TestDemandSquashAccounting(t *testing.T) {
	// A content-heavy run on a small L2 queue must squash prefetches in
	// favour of demands rather than stall them.
	ck := buildChase(t, 24_000, 1, 4, true)
	cfg := testConfig().WithContent(core.DefaultConfig)
	cfg.L2QueueSize = 8
	cfg.BusQueueSize = 4
	res := Run(ck, cfg)
	if res.Core.Retired != uint64(ck.Trace.Len()) {
		t.Fatal("run incomplete under tiny queues")
	}
	if res.Counters.PrefSquashed == 0 && res.Counters.PrefDroppedQueue == 0 {
		t.Fatal("tiny queues produced no squashes or queue drops")
	}
}

func TestMarkovStridePrecedence(t *testing.T) {
	// With both stride and markov active on a strided workload, stride's
	// precedence must suppress markov issues for stride-covered misses.
	ck := buildStrideWalk(t, 30_000, 2)
	cfg := testConfig()
	cfg.Markov = &markov.Config{}
	res := Run(ck, cfg)
	str := res.Counters.PrefIssued[cache.SrcStride]
	mkv := res.Counters.PrefIssued[cache.SrcMarkov]
	t.Logf("stride issued %d, markov issued %d", str, mkv)
	if str == 0 {
		t.Fatal("stride idle on strided workload")
	}
	if mkv > str {
		t.Fatalf("markov (%d) out-issued stride (%d) despite precedence", mkv, str)
	}
}

// An injected bad prefetch is never entered in the inflight table, so its
// fill must not remove the entry of a real transaction to the same line.
// Under -tags simdebug the invariant layer also rejects the orphaned
// transaction at the next pump.
func TestInjectedFillKeepsRealTransaction(t *testing.T) {
	cfg := testConfig()
	cfg.InjectBadPrefetches = true
	ms := NewMemSystem(&cfg, mem.NewAddressSpace(), &stats.Counters{}, stats.NewMPTUSeries(cfg.MPTUBucketOps))
	// The queues are empty and the bus idle, so the first pump injects,
	// at the line the injection generator yields next.
	line := lineBase(ms.injLCG*1664525 + 1013904223)
	ms.pump(1)
	if ms.st.InjectedPrefetches != 1 {
		t.Fatalf("injected %d prefetches, want 1", ms.st.InjectedPrefetches)
	}
	// A real prefetch to the same line queues behind the injected transfer
	// and arrives after it.
	if !ms.enqueuePrefetch(2, line, line, line, bus.ClassStride, 0, false) {
		t.Fatal("real prefetch to the injected line was dropped")
	}
	req := ms.inflight.get(line)
	if req == nil || req.Injected {
		t.Fatalf("inflight entry for line %#x = %+v, want the real prefetch", line, req)
	}
	ms.Tick(1 + ms.fsb.Latency) // the injected fill arrives
	if got := ms.inflight.get(line); got != req {
		t.Fatalf("after the injected fill, inflight entry for line %#x = %+v, want the real prefetch", line, got)
	}
	ms.Tick(1 + 2*ms.fsb.Latency) // the real fill arrives
	if got := ms.inflight.get(line); got != nil {
		t.Fatalf("after the real fill, inflight entry for line %#x = %+v, want none", line, got)
	}
}
