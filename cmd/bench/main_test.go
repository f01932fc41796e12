package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden verdict files")

// TestVerdictFixtures drives `bench -verdict` over synthetic trajectory
// fixtures and pins both the exit code and the rendered verdict. The
// breach fixtures are how CI proves the gate actually fails: by feeding
// it a known regression, not by regressing the repo.
func TestVerdictFixtures(t *testing.T) {
	cases := []struct {
		name, against string
		wantCode      int
	}{
		{"improved", "BENCH_base", 0},       // everything got faster
		{"drift", "BENCH_base", 0},          // slower, but inside every bound
		{"uops_breach", "BENCH_base", 1},    // pointer-sweep uops_per_s -30% > 25% bound
		{"speedup_breach", "BENCH_base", 1}, // cdp_speedup -2% > 1% bound, gated across environments
		{"failed_ops", "BENCH_base", 1},     // one failed cdpd-mix op
		{"alloc_breach", "BENCH_base", 1},   // hot-path allocs/op +3 > zero-growth budget, gated across environments
		{"missing_field", "BENCH_base", 0},  // gates without data on both sides skip, loudly
		{"v2_baseline", "BENCH_v2", 0},      // pre-perfbench baseline: only the hot path gates
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			current := tc.name
			if tc.name == "v2_baseline" {
				current = "improved"
			}
			var buf bytes.Buffer
			code := runVerdict(&buf,
				filepath.Join("testdata", current+".json"),
				filepath.Join("testdata", tc.against+".json"))
			if code != tc.wantCode {
				t.Errorf("exit code = %d, want %d\n%s", code, tc.wantCode, buf.String())
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("verdict output drifted from %s:\n--- got ---\n%s--- want ---\n%s",
					golden, buf.String(), want)
			}
		})
	}
}

func TestVerdictOperationalErrors(t *testing.T) {
	var buf bytes.Buffer
	if code := runVerdict(&buf, "testdata/improved.json", "testdata/nope.json"); code != 2 {
		t.Fatalf("missing baseline: code %d, want 2", code)
	}
	if code := runVerdict(&buf, "testdata/nope.json", "testdata/BENCH_base.json"); code != 2 {
		t.Fatalf("missing current: code %d, want 2", code)
	}
}

// TestVerdictDefaultBaseline checks that -verdict without -against picks
// the numeric predecessor in the same directory.
func TestVerdictDefaultBaseline(t *testing.T) {
	dir := t.TempDir()
	base, err := os.ReadFile("testdata/BENCH_base.json")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := os.ReadFile("testdata/improved.json")
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"BENCH_1.json": base,
		"BENCH_2.json": base,
		"BENCH_3.json": cur,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if code := runVerdict(&buf, filepath.Join(dir, "BENCH_3.json"), ""); code != 0 {
		t.Fatalf("code %d\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "against BENCH_2.json") {
		t.Fatalf("did not pick predecessor:\n%s", buf.String())
	}

	var errBuf bytes.Buffer
	if code := runVerdict(&errBuf, filepath.Join(dir, "BENCH_1.json"), ""); code != 2 {
		t.Fatalf("first report should have no predecessor, code %d", code)
	}
}
