package experiments

import (
	"fmt"
	"strings"

	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func init() {
	register("table1", "Table 1: performance model configuration", runTable1)
	register("fig1", "Figure 1: non-cumulative MPTU trace, 4 MB UL2", runFig1)
	register("table2", "Table 2: benchmark instructions, µops and L2 MPTU", runTable2)
}

func runTable1(o Options) (*Report, error) {
	cfg := baseConfig(o)
	t := &report.Table{
		Title:   "Table 1: 4-GHz system configuration (as modelled)",
		Headers: []string{"Parameter", "Value"},
	}
	t.AddRow("Width", fmt.Sprintf("fetch %d, issue %d, retire %d",
		cfg.Core.FetchWidth, cfg.Core.IssueWidth, cfg.Core.RetireWidth))
	t.AddRow("Misprediction penalty", fmt.Sprintf("%d cycles", cfg.Core.MispredictPenalty))
	t.AddRow("Buffer sizes", fmt.Sprintf("reorder %d, store %d, load %d",
		cfg.Core.ROBSize, cfg.Core.StoreBuf, cfg.Core.LoadBuf))
	t.AddRow("Functional units", fmt.Sprintf("integer %d, memory %d, floating point %d",
		cfg.Core.IntUnits, cfg.Core.MemUnits, cfg.Core.FPUnits))
	t.AddRow("Load-to-use latencies", fmt.Sprintf("L1: %d cycles, L2: %d cycles", cfg.L1Lat, cfg.L2Lat))
	t.AddRow("Branch predictor", fmt.Sprintf("%dK entry gshare", 1<<(cfg.Core.GshareBits-10)))
	t.AddRow("Data prefetcher", "hardware stride prefetcher (baseline)")
	t.AddRow("L2 throughput", "1 access/cycle")
	t.AddRow("L2 queue size", fmt.Sprintf("%d entries", cfg.L2QueueSize))
	t.AddRow("Bus latency", fmt.Sprintf("%d processor cycles", cfg.BusLatency))
	t.AddRow("Bus occupancy/line", fmt.Sprintf("%d cycles (4.26 GB/s at 4 GHz)", cfg.BusOccupancy))
	t.AddRow("Bus queue size", fmt.Sprintf("%d entries", cfg.BusQueueSize))
	t.AddRow("DTLB", fmt.Sprintf("%d entry, %d-way", cfg.TLB.Entries, cfg.TLB.Ways))
	t.AddRow("DL1 cache", fmt.Sprintf("%d KB, %d-way", cfg.L1.SizeBytes/1024, cfg.L1.Ways))
	t.AddRow("UL2 cache", fmt.Sprintf("%d KB, %d-way", cfg.L2.SizeBytes/1024, cfg.L2.Ways))
	t.AddRow("Line size", fmt.Sprintf("%d bytes", cfg.L2.LineSize))
	t.AddRow("Page size", "4 KB")
	return &Report{ID: "table1", Title: "Table 1", Text: t.Render()}, nil
}

func runFig1(o Options) (*Report, error) {
	specs := workloads.SuiteRepresentatives() // one per suite, as in the paper
	cfg := with4MB(baseConfig(o))
	cfg.WarmupOps = 0 // Figure 1 shows the transient itself
	results, err := runMatrix(o, specs, []sim.Config{cfg})
	if err != nil {
		return nil, err
	}

	maxLen, maxSteady := 0, 0
	for _, row := range results {
		vals := row[0].MPTU.Values()
		if len(vals) > maxLen {
			maxLen = len(vals)
		}
		// Tolerance is relative to each benchmark's own scale: phase-
		// alternating workloads oscillate in steady state too.
		peak := 0.0
		for _, v := range vals {
			if v > peak {
				peak = v
			}
		}
		tol := 0.4 * peak
		if tol < 2 {
			tol = 2
		}
		if s := row[0].MPTU.SteadyStateAfter(tol); s > maxSteady {
			maxSteady = s
		}
	}
	xs := make([]string, maxLen)
	for i := range xs {
		xs[i] = fmt.Sprintf("%dk", uint64(i+1)*cfg.MPTUBucketOps/1000)
	}
	names := make([]string, len(specs))
	series := make([][]float64, len(specs))
	for i, s := range specs {
		names[i] = s.Name
		series[i] = results[i][0].MPTU.Values()
	}
	text := report.Series("Figure 1: non-cumulative MPTU trace (4 MB UL2)",
		"retired µops", xs, names, series)
	text += fmt.Sprintf("\nSteady state after bucket %d (~%d retired µops): use ~%d µops of warm-up.\n",
		maxSteady, uint64(maxSteady)*cfg.MPTUBucketOps, baseConfig(o).WarmupOps)
	return &Report{ID: "fig1", Title: "Figure 1", Text: text}, nil
}

func runTable2(o Options) (*Report, error) {
	specs := workloads.All()
	cfgs := []sim.Config{baseConfig(o), with4MB(baseConfig(o))}
	results, err := runMatrix(o, specs, cfgs)
	if err != nil {
		return nil, err
	}

	t := &report.Table{
		Title:   "Table 2: instructions, µops, and L2 MPTU per benchmark",
		Headers: []string{"Suite", "Benchmark", "Instructions", "µops", "MPTU (1 MB)", "MPTU (4 MB)"},
		Note: "Traces are scaled to ~" + fmt.Sprint(o.ops()) +
			" µops (the paper runs 30M-instruction LITs); MPTU is demand L2 misses per 1000 µops over the measured region.",
	}
	for i, s := range specs {
		ck := workloads.Checkpoint(s, o.ops())
		r1 := results[i][0]
		r4 := results[i][1]
		t.AddRow(s.Suite, s.Name, ck.Instrs, ck.Trace.Len(),
			r1.Counters.MPTUFor(r1.MeasuredUops),
			r4.Counters.MPTUFor(r4.MeasuredUops))
	}
	var sb strings.Builder
	sb.WriteString(t.Render())
	return &Report{ID: "table2", Title: "Table 2", Text: sb.String()}, nil
}
