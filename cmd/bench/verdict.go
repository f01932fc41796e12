package main

import (
	"fmt"
	"strings"

	"repro/internal/benchio"
)

// verdict is the outcome of gating a BENCH report against a baseline.
// Failures are breaches; skipped records every gate that could not be
// applied and why, so a verdict that passed because nothing was comparable
// reads differently from one that passed on the merits.
type verdict struct {
	failures, skipped, infos []string
}

func (v *verdict) failf(format string, args ...any) {
	v.failures = append(v.failures, fmt.Sprintf(format, args...))
}

func (v *verdict) skipf(format string, args ...any) {
	v.skipped = append(v.skipped, fmt.Sprintf(format, args...))
}

func (v *verdict) infof(format string, args ...any) {
	v.infos = append(v.infos, fmt.Sprintf(format, args...))
}

func (v *verdict) pass() bool { return len(v.failures) == 0 }

// render formats the verdict for terminal and CI logs, one line per
// finding, ending with the PASS/FAIL summary line.
func (v *verdict) render() string {
	var b strings.Builder
	for _, f := range v.failures {
		fmt.Fprintf(&b, "FAIL  %s\n", f)
	}
	for _, s := range v.skipped {
		fmt.Fprintf(&b, "skip  %s\n", s)
	}
	for _, i := range v.infos {
		fmt.Fprintf(&b, "ok    %s\n", i)
	}
	if v.pass() {
		fmt.Fprintf(&b, "verdict: PASS (%d checks skipped)\n", len(v.skipped))
	} else {
		fmt.Fprintf(&b, "verdict: FAIL (%d breaches, %d checks skipped)\n", len(v.failures), len(v.skipped))
	}
	return b.String()
}

const (
	// nsPerOpGrowthPct is how far the hot path's ns/op may grow.
	nsPerOpGrowthPct = 25
	// allocCountSlack absorbs testing.Benchmark's counting noise: the
	// mallocs delta spans the whole process during the timed window, so a
	// background allocation (GC worker, timer) amortized over b.N can
	// shift the truncated per-op count by ±1–2 on an identical tree. Real
	// growth, one new allocation on the per-µop path, moves the count by
	// thousands.
	allocCountSlack = 2
	// deterministicMetric is computed from simulated cycles alone, so it
	// reads the same in every run on any machine and gates even when the
	// environments differ.
	deterministicMetric = "cdp_speedup"
)

// compareReports gates current against baseline.
//
//   - Always: a workload whose runs were not all correct or failed an op;
//     cdp_speedup worse than its bound; hot-path allocs/op growth.
//   - Only when the environments match (same toolchain, OS, arch and core
//     count): the other end-to-end metrics at their bounds, and hot-path
//     ns/op. Otherwise a slower number is as likely a slower machine as a
//     slower tree.
//
// The bounds are those the current report carries. A v1 or v2 baseline has
// no workloads, so only the hot path gates against it.
func compareReports(baseline, current *benchio.Report) *verdict {
	v := &verdict{}
	env := benchio.EnvComparable(baseline, current)
	if !env {
		v.skipf("environments differ (%s/%s/%s/%dcpu vs %s/%s/%s/%dcpu): wall-clock gates disabled",
			baseline.GoVersion, baseline.GOOS, baseline.GOARCH, baseline.NumCPU,
			current.GoVersion, current.GOOS, current.GOARCH, current.NumCPU)
	}
	compareHotPath(v, baseline.HotPath, current.HotPath, env)
	compareWorkloads(v, baseline.Workloads, current.Workloads, env)
	return v
}

func compareHotPath(v *verdict, baseline, current *benchio.HotPath, env bool) {
	switch {
	case current == nil:
		v.skipf("hot path: not measured in current report")
		return
	case baseline == nil:
		v.skipf("hot path: baseline carries no measurement")
		return
	}
	b, c := baseline.Metrics, current.Metrics

	if b.AllocsPerOp == 0 {
		v.skipf("hot path allocs/op: baseline value missing")
	} else {
		growth := pctChange(float64(b.AllocsPerOp), float64(c.AllocsPerOp))
		if c.AllocsPerOp > b.AllocsPerOp+allocCountSlack {
			v.failf("hot path allocs/op grew %.2f%% (%d -> %d, tolerance 0%% + %d count noise)",
				growth, b.AllocsPerOp, c.AllocsPerOp, allocCountSlack)
		} else {
			v.infof("hot path allocs/op: %d -> %d (%+.2f%%)", b.AllocsPerOp, c.AllocsPerOp, growth)
		}
	}

	switch {
	case !env:
		v.skipf("hot path ns/op: environments differ")
	case b.NsPerOp == 0:
		v.skipf("hot path ns/op: baseline value missing")
	default:
		growth := pctChange(b.NsPerOp, c.NsPerOp)
		if growth > nsPerOpGrowthPct {
			v.failf("hot path ns/op grew %.1f%% (%.1fms -> %.1fms, tolerance %d%%)",
				growth, b.NsPerOp/1e6, c.NsPerOp/1e6, nsPerOpGrowthPct)
		} else {
			v.infof("hot path ns/op: %.1fms -> %.1fms (%+.1f%%)", b.NsPerOp/1e6, c.NsPerOp/1e6, growth)
		}
	}
}

func compareWorkloads(v *verdict, baseline, current []benchio.Workload, env bool) {
	base := map[string]*benchio.Workload{}
	for i := range baseline {
		base[baseline[i].Name] = &baseline[i]
	}
	for _, w := range current {
		if !w.Correct || w.Failed > 0 {
			v.failf("%s: correct=%v, %d of %d ops failed over %d runs", w.Name, w.Correct, w.Failed, w.Attempted, w.Runs)
		} else {
			v.infof("%s: %d ops over %d runs, all correct", w.Name, w.Attempted, w.Runs)
		}
		b := base[w.Name]
		if b == nil {
			v.skipf("%s: baseline has no perfbench run", w.Name)
			continue
		}
		delete(base, w.Name)
		var envSkipped []string
		for _, m := range w.Metrics {
			bm := findMetric(b.Metrics, m.Name)
			switch {
			case bm == nil || bm.Value == 0:
				v.skipf("%s %s: baseline value missing", w.Name, m.Name)
			case !env && m.Name != deterministicMetric:
				envSkipped = append(envSkipped, m.Name)
			default:
				gateMetric(v, w.Name, bm.Value, m)
			}
		}
		if len(envSkipped) > 0 {
			v.skipf("%s %s: environments differ", w.Name, strings.Join(envSkipped, ", "))
		}
		for _, bm := range b.Metrics {
			if findMetric(w.Metrics, bm.Name) == nil {
				v.skipf("%s %s: not measured in current report", w.Name, bm.Name)
			}
		}
	}
	for _, b := range baseline {
		if base[b.Name] != nil {
			v.skipf("%s: not measured in current report", b.Name)
		}
	}
}

func findMetric(ms []benchio.Metric, name string) *benchio.Metric {
	for i := range ms {
		if ms[i].Name == name {
			return &ms[i]
		}
	}
	return nil
}

// gateMetric fails m when it is worse than base by more than its bound.
func gateMetric(v *verdict, workload string, base float64, m benchio.Metric) {
	change := pctChange(base, m.Value)
	worse := -change
	if m.Better == "lower" {
		worse = change
	}
	if worse > m.Bound*100 {
		v.failf("%s %s worsened %.1f%% (%.6g -> %.6g %s, bound %g%%)",
			workload, m.Name, worse, base, m.Value, m.Unit, m.Bound*100)
	} else {
		v.infof("%s %s: %.6g -> %.6g %s (%+.1f%%)", workload, m.Name, base, m.Value, m.Unit, change)
	}
}

// pctChange is the signed percent change from base to cur (positive =
// grew).
func pctChange(base, cur float64) float64 {
	return (cur - base) / base * 100
}
