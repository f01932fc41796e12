package experiments

import (
	"strings"
	"testing"
)

// quickOpt keeps experiment tests fast: tiny traces, suite representatives.
func quickOpt() Options {
	return Options{Ops: 120_000, Reps: true}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "fig1", "table2", "fig4", "fig7", "fig8", "fig9", "fig10", "tlb", "limit", "table3", "fig11"}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Fatalf("experiment %q not registered", id)
		}
	}
	if _, err := Get("fig9"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestTable1Static(t *testing.T) {
	rep := mustRun(t, "table1")
	for _, want := range []string{"fetch 3, issue 3, retire 3", "reorder 128", "16K entry gshare",
		"1024 KB", "460 processor cycles", "64 entry, 4-way"} {
		if !strings.Contains(rep.Text, want) {
			t.Errorf("table1 missing %q:\n%s", want, rep.Text)
		}
	}
}

func TestTable3Static(t *testing.T) {
	rep := mustRun(t, "table3")
	for _, want := range []string{"markov_1/8", "markov_1/2", "markov_big", "896 KB", "7-way", "512 KB"} {
		if !strings.Contains(rep.Text, want) {
			t.Errorf("table3 missing %q:\n%s", want, rep.Text)
		}
	}
}

func mustRun(t *testing.T, id string) *Report {
	t.Helper()
	r, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Text == "" {
		t.Fatalf("experiment %s produced no text", id)
	}
	return rep
}

func TestFig1Renders(t *testing.T) {
	rep := mustRun(t, "fig1")
	if !strings.Contains(rep.Text, "Steady state") {
		t.Fatalf("fig1 missing steady-state note:\n%s", rep.Text)
	}
}

func TestTable2Renders(t *testing.T) {
	rep := mustRun(t, "table2")
	for _, name := range []string{"b2b", "verilog-gate", "tpcc-4", "specjbb-vsnet"} {
		if !strings.Contains(rep.Text, name) {
			t.Fatalf("table2 missing %s:\n%s", name, rep.Text)
		}
	}
}

func TestLimitRenders(t *testing.T) {
	rep := mustRun(t, "limit")
	if !strings.Contains(rep.Text, "AVERAGE") {
		t.Fatalf("limit missing average:\n%s", rep.Text)
	}
}

func TestFig4Renders(t *testing.T) {
	rep := mustRun(t, "fig4")
	for _, want := range []string{"no reinforcement", "with reinforcement", "rescan slack 2"} {
		if !strings.Contains(rep.Text, want) {
			t.Fatalf("fig4 missing %q:\n%s", want, rep.Text)
		}
	}
}

func TestTLBRenders(t *testing.T) {
	rep := mustRun(t, "tlb")
	for _, want := range []string{"64", "1024", "speedup"} {
		if !strings.Contains(rep.Text, want) {
			t.Fatalf("tlb missing %q:\n%s", want, rep.Text)
		}
	}
}

// TestTinyBudget runs an experiment at a budget below 48 µops, where the
// MPTU bucket width ops/48 rounds to zero. The budget-scaled machine floors
// it at one µop, so the run returns a report instead of panicking inside a
// sweep goroutine (which took the whole daemon down with it).
func TestTinyBudget(t *testing.T) {
	r, err := Get("table2")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(Options{Ops: 40})
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || !strings.Contains(rep.Text, "Table 2") {
		t.Fatalf("tiny-budget table2 rendered no table: %+v", rep)
	}
}
