package registry_test

import (
	"strings"
	"testing"

	"repro/internal/prefetch"
	"repro/internal/prefetch/conformance"
	"repro/internal/prefetch/registry"
)

// TestRegistryConformance runs the full conformance contract over every
// registered engine: registering in the zoo *is* opting into the contract.
func TestRegistryConformance(t *testing.T) {
	names := registry.Names()
	if len(names) < 5 {
		t.Fatalf("registry has %d engines, want at least 5: %v", len(names), names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			conformance.Suite(t, func() prefetch.Prefetcher {
				return registry.Spec(name).New()
			})
		})
	}
}

// TestRegistryNamesMatchEngines pins Name() to the registry key so specs,
// leaderboards, and checkpoint guards all agree on spelling, and pins each
// config's Stream to the stream its engine declares (the simulator checks
// a machine's chain from the configs alone).
func TestRegistryNamesMatchEngines(t *testing.T) {
	for _, name := range registry.Names() {
		cfg, err := registry.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		eng := cfg.New()
		if got := eng.Name(); got != name {
			t.Errorf("engine registered as %q reports Name() %q", name, got)
		}
		if cfg.Stream() != eng.Stream() {
			t.Errorf("%s: config declares stream %v, engine %v", name, cfg.Stream(), eng.Stream())
		}
	}
}

func TestBuildSpecs(t *testing.T) {
	cases := []struct {
		spec    string
		wantErr string // substring; empty = must succeed
	}{
		{spec: "stride"},
		{spec: "stride:degree=4,distance=10"},
		{spec: "markov:entries=1024"},
		{spec: "pangloss:rows=128,slots=2,degree=2"},
		{spec: "bestoffset:rr=32,round=64"},
		{spec: "cdp:depth=2,reinforce=false"},
		{spec: "quake3", wantErr: `unknown engine "quake3" (valid: bestoffset, cdp, markov, pangloss, stride)`},
		{spec: "", wantErr: "empty engine spec"},
		{spec: "stride:bogus=1", wantErr: `engine "stride" has no parameter "bogus"`},
		{spec: "stride:degree=x", wantErr: "not an integer"},
		{spec: "stride:degree=1,degree=2", wantErr: "duplicate parameter"},
		{spec: "stride:degree", wantErr: "malformed parameter"},
		{spec: "stride:degree=0", wantErr: "bad stride config"},
		{spec: "pangloss:rows=100", wantErr: "power of two"},
	}
	for _, tc := range cases {
		cfg, err := registry.Resolve(tc.spec)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("Resolve(%q): %v", tc.spec, err)
			}
			continue
		}
		if cfg != nil || err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("Resolve(%q) = %v, %v; want error containing %q", tc.spec, cfg, err, tc.wantErr)
		}
	}
}

// TestSpecParametersApply proves parameters actually reach the engine
// configs rather than being parsed and dropped.
func TestSpecParametersApply(t *testing.T) {
	eng := registry.Spec("stride:entries=16,degree=3,distance=5").New()
	s, ok := eng.(*prefetch.Stride)
	if !ok {
		t.Fatalf("stride spec built a %T", eng)
	}
	cfg := s.Config()
	if cfg.TableEntries != 16 || cfg.Degree != 3 || cfg.Distance != 5 {
		t.Errorf("spec parameters not applied: %+v", cfg)
	}
}
