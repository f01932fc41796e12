// Package sim assembles the full performance model: the out-of-order core
// of internal/cpu in front of an event-driven memory system wiring together
// the DL1, the DTLB with its hardware page walker, the unified L2, the L2
// and bus arbiters, the front-side bus, and an ordered chain of prefetch
// engines (the stride baseline, then whichever of the content-directed
// prefetcher, the Markov comparator and the zoo entrants a configuration
// attaches). The microarchitecture follows Figure 6 of the paper; the
// numbers follow Table 1.
package sim

import (
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/markov"
	"repro/internal/prefetch"
	"repro/internal/prefetch/registry"
	"repro/internal/tlb"
)

// Config describes one simulated machine.
type Config struct {
	// Name labels the configuration in reports; any value (including
	// empty, for throwaway configs in tests) is valid. simlint:novalidate
	Name string

	Core cpu.Config

	L1  cache.Config
	L2  cache.Config
	TLB tlb.Config

	// L1Lat and L2Lat are load-to-use latencies in cycles (Table 1: 3
	// and 16).
	L1Lat int64
	L2Lat int64

	// BusLatency/BusOccupancy model the front-side bus (Table 1: 460
	// cycles round trip, 4.26 GB/s => ~60 cycles per 64-byte line).
	BusLatency   int64
	BusOccupancy int64

	// L2QueueSize and BusQueueSize bound the arbiters (128 and 32).
	L2QueueSize  int
	BusQueueSize int

	// Prefetchers is the engine chain, one prefetch.Config per engine, in
	// precedence order: an L1- or L2-miss engine sees PriorIssued when an
	// engine before it issued for the same reference (the paper's
	// stride-blocks-Markov rule). At most one member may scan fills; that
	// is the content-directed prefetcher. The order is part of the
	// machine, and so of the simcache content key.
	Prefetchers []prefetch.Config

	// InjectBadPrefetches floods every idle bus cycle with a useless
	// prefetch, reproducing the pollution limit study of Section 3.5.
	// Both toggle states are valid machines. simlint:novalidate
	InjectBadPrefetches bool

	// CheckpointEveryOps, when > 0, segments execution at absolute
	// multiples of this many fetched µops: the machine fully drains at
	// each boundary so its state can be snapshotted (RunCheckpointed) and
	// later resumed byte-identically (Resume). Draining perturbs timing,
	// so the interval is part of the configuration — and therefore of the
	// result-cache content hash — rather than a runtime side channel.
	// 0 disables segmentation and reproduces Run exactly.
	CheckpointEveryOps int

	// WarmupOps is the retired-µop count after which measurement
	// counters reset (Section 2.2's warm-up boundary).
	WarmupOps uint64
	// MaxOps bounds the µops executed (0 = whole trace).
	MaxOps int
	// MPTUBucketOps is the Figure 1 bucket width in retired µops.
	MPTUBucketOps uint64
}

// LineSize is the cache line size of the model (Table 1).
const LineSize = 64

// Default returns the Table 1 baseline: 4 GHz core, 32 KiB DL1, 1 MiB UL2,
// 64-entry DTLB, stride prefetcher only. Warm-up and MPTU bucketing default
// to the scaled-down trace lengths this reproduction uses (the paper runs
// 30 M-instruction LITs with a 7.5 M-µop warm-up; we default to a 150 K-µop
// warm-up ahead of ~1 M-µop traces — the same ~1/7 proportion).
func Default() Config {
	return Config{
		Name: "baseline-stride",
		Core: cpu.DefaultConfig(),
		L1:   cache.Config{SizeBytes: 32 * 1024, Ways: 8, LineSize: LineSize},
		L2:   cache.Config{SizeBytes: 1024 * 1024, Ways: 8, LineSize: LineSize},
		TLB:  tlb.Config{Entries: 64, Ways: 4},

		L1Lat:        3,
		L2Lat:        16,
		BusLatency:   460,
		BusOccupancy: 60,
		L2QueueSize:  128,
		BusQueueSize: 32,

		Prefetchers: []prefetch.Config{prefetch.DefaultStrideConfig},

		WarmupOps:     150_000,
		MPTUBucketOps: 25_000,
	}
}

// ForOps returns the Table 1 baseline scaled to an ops-µop trace budget:
// warm-up over the first eighth of the budget (the paper warms on ~1/6 of
// a trace, Section 2.2) and MPTU sampled in 48 buckets, each at least one
// µop wide. The experiments and the daemon both build their machines from
// it, so a budget resolves to one configuration wherever it is requested.
func ForOps(ops int) Config {
	c := Default()
	c.WarmupOps = uint64(ops / 8)
	c.MPTUBucketOps = uint64(max(ops/48, 1))
	return c
}

// with returns c with engine p appended to its chain. The append goes to a
// clipped copy, so configurations derived from one base never share a
// backing array.
func (c Config) with(p prefetch.Config) Config {
	c.Prefetchers = append(slices.Clip(c.Prefetchers), p)
	return c
}

// WithContent returns c with the content prefetcher enabled using the given
// policy.
func (c Config) WithContent(p core.Config) Config {
	p.LineSize = c.L2.LineSize
	c.Name = fmt.Sprintf("%s+cdp(%s,d%d,p%d.n%d,reinf=%v)", c.Name, p.Match,
		p.DepthThreshold, p.PrevLines, p.NextLines, p.Reinforce)
	return c.with(p)
}

// WithMarkov returns c with the Markov prefetcher enabled and the UL2
// resized per Table 3. stabBudget of 0 means an unbounded STAB with the
// original UL2 (markov_big).
func (c Config) WithMarkov(stabBudgetBytes int, l2 cache.Config) Config {
	mc := markov.Config{}
	if stabBudgetBytes > 0 {
		mc.MaxEntries = markov.EntriesForBudget(stabBudgetBytes)
	}
	c.L2 = l2
	c.Name = fmt.Sprintf("%s+markov(%dKB stab,%dKB ul2)", c.Name,
		stabBudgetBytes/1024, l2.SizeBytes/1024)
	return c.with(mc)
}

// WithEngine returns c with the engine a registry spec names appended
// ("pangloss", "bestoffset:degree=2", "cdp", ... — see
// internal/prefetch/registry).
func (c Config) WithEngine(spec string) Config {
	c.Name = fmt.Sprintf("%s+%s", c.Name, spec)
	return c.with(registry.Spec(spec))
}

// Validate checks every configuration field and their cross-field
// consistency. cfgcheck (cmd/simlint) enforces that no exported field is
// ever added without either a check here or an explicit
// `simlint:novalidate` marker.
func (c Config) Validate() error {
	if err := c.Core.Validate(); err != nil {
		return err
	}
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if err := c.TLB.Validate(); err != nil {
		return err
	}
	if c.L1.LineSize != LineSize || c.L2.LineSize != LineSize {
		return fmt.Errorf("sim: line size must be %d", LineSize)
	}
	if c.L1Lat <= 0 || c.L2Lat <= 0 || c.BusLatency <= 0 || c.BusOccupancy <= 0 {
		return fmt.Errorf("sim: non-positive latency")
	}
	if c.L2QueueSize <= 0 || c.BusQueueSize <= 0 {
		return fmt.Errorf("sim: non-positive queue size")
	}
	fills := 0
	for i, p := range c.Prefetchers {
		if p == nil {
			return fmt.Errorf("sim: prefetcher %d is nil", i)
		}
		if err := p.Validate(); err != nil {
			return err
		}
		if p.Stream() == prefetch.StreamFill {
			fills++
		}
	}
	if fills > 1 {
		return fmt.Errorf("sim: %d fill-stream engines attached; the memory system drives at most one", fills)
	}
	if c.MaxOps < 0 {
		return fmt.Errorf("sim: negative µop bound %d", c.MaxOps)
	}
	if c.CheckpointEveryOps < 0 {
		return fmt.Errorf("sim: negative checkpoint interval %d", c.CheckpointEveryOps)
	}
	if c.MaxOps > 0 && c.WarmupOps >= uint64(c.MaxOps) {
		return fmt.Errorf("sim: warm-up of %d µops swallows the whole %d-µop run", c.WarmupOps, c.MaxOps)
	}
	if c.MPTUBucketOps == 0 {
		return fmt.Errorf("sim: zero MPTU bucket width")
	}
	return nil
}
