package lint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// This file is the library behind cmd/allocheck: it matches the compiler's
// escape-analysis diagnostics (`go build -gcflags=-m`) against the
// functions the hotalloc analyzer marked `simlint:hotpath`, and ratchets
// the result against a checked-in baseline. The hot paths are allowed their
// known slow-path allocations (a page-walk continuation that only exists on
// a TLB miss), but any NEW escape — a refactor that quietly promotes a
// per-µop value to the heap — fails before a benchmark ever runs, which is
// how the 16,497 allocs/run invariant of BENCH_1/BENCH_2 is enforced in CI
// without running a benchmark.

// Escape is one compiler escape decision attributed to a hotpath function.
type Escape struct {
	Func    string `json:"func"`    // e.g. "(*MemSystem).Load"
	Message string `json:"message"` // e.g. "func literal escapes to heap"
	Count   int    `json:"count"`
}

// AllocBaseline is the checked-in set of accepted hotpath escapes.
type AllocBaseline struct {
	Version int      `json:"version"`
	Escapes []Escape `json:"escapes"`
}

// escapeMarkers are the -m diagnostics that denote a heap allocation.
// "does not escape", "leaking param", and inlining chatter are ignored.
var escapeMarkers = []string{"escapes to heap", "moved to heap"}

// ParseEscapes extracts the hotpath-attributed escape decisions from
// `go build -gcflags=-m` output. dir anchors the compiler's relative file
// paths; funcs are the hotalloc-collected ranges (absolute File paths).
func ParseEscapes(dir string, output []byte, funcs []HotFunc) []Escape {
	counts := map[Escape]int{}
	for _, line := range strings.Split(string(output), "\n") {
		file, lineNo, msg, ok := parseDiagLine(line)
		if !ok || !isEscapeMsg(msg) {
			continue
		}
		abs := file
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(dir, file)
		}
		for _, f := range funcs {
			if f.File == abs && f.StartLine <= lineNo && lineNo <= f.EndLine {
				counts[Escape{Func: f.Name, Message: msg, Count: 1}]++
				break
			}
		}
	}
	out := make([]Escape, 0, len(counts))
	for k, n := range counts {
		k.Count = n
		out = append(out, k)
	}
	sortEscapes(out)
	return out
}

// parseDiagLine splits a `file.go:line:col: message` compiler diagnostic.
func parseDiagLine(line string) (file string, lineNo int, msg string, ok bool) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return "", 0, "", false
	}
	parts := strings.SplitN(line, ":", 4)
	if len(parts) != 4 || !strings.HasSuffix(parts[0], ".go") {
		return "", 0, "", false
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil {
		return "", 0, "", false
	}
	if _, err := strconv.Atoi(parts[2]); err != nil {
		return "", 0, "", false
	}
	return parts[0], n, strings.TrimSpace(parts[3]), true
}

func isEscapeMsg(msg string) bool {
	for _, m := range escapeMarkers {
		if strings.Contains(msg, m) {
			return true
		}
	}
	return false
}

func sortEscapes(es []Escape) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Func != es[j].Func {
			return es[i].Func < es[j].Func
		}
		return es[i].Message < es[j].Message
	})
}

// DiffEscapes ratchets got against the baseline. Gained escapes are
// regressions; lost ones mean the baseline overstates the debt and must be
// regenerated (so the ratchet can only ever tighten).
func DiffEscapes(baseline, got []Escape) (gained, lost []Escape) {
	type key struct{ fn, msg string }
	want := map[key]int{}
	for _, e := range baseline {
		want[key{e.Func, e.Message}] += e.Count
	}
	have := map[key]int{}
	for _, e := range got {
		have[key{e.Func, e.Message}] += e.Count
	}
	for k, n := range have {
		if d := n - want[k]; d > 0 {
			gained = append(gained, Escape{Func: k.fn, Message: k.msg, Count: d})
		}
	}
	for k, n := range want {
		if d := n - have[k]; d > 0 {
			lost = append(lost, Escape{Func: k.fn, Message: k.msg, Count: d})
		}
	}
	sortEscapes(gained)
	sortEscapes(lost)
	return gained, lost
}

// ReadAllocBaseline loads the checked-in escape baseline.
func ReadAllocBaseline(path string) (*AllocBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b AllocBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("alloc baseline %s: %v", path, err)
	}
	if b.Version != baselineVersion {
		return nil, fmt.Errorf("alloc baseline %s: unsupported version %d (want %d)", path, b.Version, baselineVersion)
	}
	return &b, nil
}

// WriteAllocBaseline persists the current escapes as the new baseline.
func WriteAllocBaseline(path string, escapes []Escape) error {
	es := append([]Escape{}, escapes...) // an empty baseline is [], not null
	sortEscapes(es)
	data, err := json.MarshalIndent(&AllocBaseline{Version: baselineVersion, Escapes: es}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
