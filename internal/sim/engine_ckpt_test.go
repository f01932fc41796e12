package sim

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/markov"
	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// engineCkptConfig attaches one zoo entrant to the checkpointing machine so
// snapshots carry the engine's opaque state blob.
func engineCkptConfig(spec string) Config {
	cfg := testConfig().WithEngine(spec)
	cfg.WarmupOps = 12_000
	cfg.CheckpointEveryOps = 5_000
	return cfg
}

// TestResumeByteIdenticalEngines extends the resume tentpole to the
// interface-native entrants: a run with pangloss or bestoffset attached
// resumes from every boundary snapshot — engine table included — to the
// uninterrupted result, byte for byte.
func TestResumeByteIdenticalEngines(t *testing.T) {
	for _, spec := range []string{"pangloss", "bestoffset"} {
		t.Run(spec, func(t *testing.T) {
			cfg := engineCkptConfig(spec)
			var blobs [][]byte
			want, err := RunCheckpointed(buildChase(t, 2000, 2, 2, true), cfg, func(s *Snapshot) error {
				blob, err := EncodeSnapshot(s)
				if err != nil {
					return err
				}
				blobs = append(blobs, blob)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(blobs) < 3 {
				t.Fatalf("only %d boundaries hit; trace too short for the test to mean anything", len(blobs))
			}
			for i, blob := range blobs {
				snap, err := DecodeSnapshot(blob)
				if err != nil {
					t.Fatalf("snapshot %d: %v", i, err)
				}
				got, err := Resume(buildChase(t, 2000, 2, 2, true), cfg, snap, nil)
				if err != nil {
					t.Fatalf("resume from boundary %d: %v", snap.OpsFetched, err)
				}
				sameResult(t, want, got)
			}
		})
	}
}

// firstSnapshot runs cfg checkpointed over ck and returns its first
// boundary snapshot.
func firstSnapshot(t *testing.T, ck *trace.Checkpoint, cfg Config) *Snapshot {
	t.Helper()
	var snap *Snapshot
	if _, err := RunCheckpointed(ck, cfg, func(s *Snapshot) error {
		if snap == nil {
			snap = s
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no snapshot captured")
	}
	return snap
}

// TestResumeRejectsEngineMismatch pins the snapshot guard for the engine
// chain: a snapshot taken with one chain must not restore into a machine
// running another engine, none, the same engines reordered, or the same
// engine at a different geometry, and the error names the engines.
func TestResumeRejectsEngineMismatch(t *testing.T) {
	cfg := engineCkptConfig("pangloss")
	ck := buildChase(t, 1500, 1, 2, true)
	snap := firstSnapshot(t, ck, cfg)

	reordered := cfg
	reordered.Prefetchers = []prefetch.Config{cfg.Prefetchers[1], cfg.Prefetchers[0]}
	bare := cfg
	bare.Prefetchers = cfg.Prefetchers[:1]
	for name, tc := range map[string]struct {
		cfg  Config
		want string
	}{
		"other engine":  {engineCkptConfig("bestoffset"), "bestoffset{"},
		"engine absent": {bare, "pangloss{"},
		"reordered":     {reordered, "pangloss{"},
		"geometry":      {engineCkptConfig("pangloss:rows=128"), "pangloss{128x"},
	} {
		t.Run(name, func(t *testing.T) {
			other := tc.cfg
			other.Name = cfg.Name // bypass the name guard to hit the engine guard
			_, err := Resume(ck, other, snap, nil)
			if err == nil {
				t.Fatal("mismatched engine chain accepted")
			}
			if !strings.Contains(err.Error(), "engine") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("mismatch error does not name the engine %q: %v", tc.want, err)
			}
		})
	}
}

// TestReadSnapshotRejectsOldFormat: a stream from before the engine chain
// (per-engine MemState fields) carries the cdpsnap1 header and must be
// refused up front rather than decoded into an empty chain.
func TestReadSnapshotRejectsOldFormat(t *testing.T) {
	blob, err := EncodeSnapshot(&Snapshot{ConfigName: "x"})
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte("cdpsnap1"), blob[len(snapshotMagic):]...)
	if _, err := DecodeSnapshot(old); err == nil || !strings.Contains(err.Error(), "cdpsnap2") {
		t.Fatalf("cdpsnap1 stream not rejected: %v", err)
	}
}

// TestValidateRejectsUnknownEngine is the regression the cdpsim exit-2
// convention depends on: a bad engine spec fails Validate with the
// registry's full valid-name listing, so every surface (flag, API, config
// file) reports the same actionable message.
func TestValidateRejectsUnknownEngine(t *testing.T) {
	cfg := Default().WithEngine("quake3")
	err := cfg.Validate()
	if err == nil {
		t.Fatal("unknown engine passed Validate")
	}
	if !strings.Contains(err.Error(), "valid: bestoffset, cdp, markov, pangloss, stride") {
		t.Fatalf("error does not list valid engines: %v", err)
	}
}

// TestEngineSpecCDPMatchesContent: the CDP is an ordinary chain member, so
// attaching it by registry spec simulates exactly what WithContent does.
// Only the config line, which carries the name, may differ.
func TestEngineSpecCDPMatchesContent(t *testing.T) {
	spec, err := workloads.ByName("tpcc-1")
	if err != nil {
		t.Fatal(err)
	}
	ck := workloads.Checkpoint(spec, goldenOps)
	bySpec := renderEngineGolden(spec.Name, Run(ck, goldenBase().WithEngine("cdp")))
	byContent := renderEngineGolden(spec.Name, Run(ck, goldenBase().WithContent(core.DefaultConfig)))
	a, b := strings.Split(bySpec, "\n"), strings.Split(byContent, "\n")
	if len(a) != len(b) {
		t.Fatalf("counter blocks differ in length: %d vs %d lines", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] && !strings.HasPrefix(a[i], "config ") {
			t.Errorf("line %d differs:\n  spec:    %s\n  content: %s", i+1, a[i], b[i])
		}
	}
	if a[1] == b[1] {
		t.Errorf("config lines should differ by name, both are %q", a[1])
	}
}

// TestValidateRejectsTwoFillEngines: the memory system drives one
// fill-stream engine, however the two were attached.
func TestValidateRejectsTwoFillEngines(t *testing.T) {
	for name, cfg := range map[string]Config{
		"content+spec": Default().WithContent(core.DefaultConfig).WithEngine("cdp"),
		"spec+spec":    Default().WithEngine("cdp").WithEngine("cdp:depth=2"),
	} {
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "fill-stream") {
			t.Errorf("%s: two fill-stream engines not rejected: %v", name, err)
		}
	}
}

// TestDerivedConfigsDoNotShareEngines: With* appends to a clipped copy, so
// two configurations derived from one base never see each other's engine,
// even when the base list has spare capacity.
func TestDerivedConfigsDoNotShareEngines(t *testing.T) {
	base := Default()
	base.Prefetchers = append(make([]prefetch.Config, 0, 4), base.Prefetchers...)
	withCDP := base.WithContent(core.DefaultConfig)
	withMarkov := base.WithMarkov(128*1024, base.L2)
	if len(base.Prefetchers) != 1 {
		t.Fatalf("deriving changed the base chain: %v", base.Prefetchers)
	}
	if _, ok := withCDP.Prefetchers[1].(core.Config); !ok {
		t.Errorf("WithContent's engine was overwritten: %T", withCDP.Prefetchers[1])
	}
	if _, ok := withMarkov.Prefetchers[1].(markov.Config); !ok {
		t.Errorf("WithMarkov's engine was overwritten: %T", withMarkov.Prefetchers[1])
	}
}
