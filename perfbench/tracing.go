package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's side of the call.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`     // the op the call belongs to
	Parent  int    `json:"parent"` // index of the enclosing span, -1 at top level
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil and pay one branch per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, StartNs: now})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// named returns the durations in ms of every span called name.
func (t *tracer) named(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// selfMs returns, per span name, the summed self time: each span's
// duration minus the part its child spans cover.
func (t *tracer) selfMs() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.Name] += float64(s.EndNs-s.StartNs-child[i]) / 1e6
	}
	return out
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// cpuLayers maps per-layer CPU metrics to the repository packages whose
// functions they sum, by flat (self) samples.
var cpuLayers = []struct{ metric, pkg string }{
	{"sim.cpu_pct", "repro/internal/sim"},
	{"bus.cpu_pct", "repro/internal/bus"},
	{"tlb.cpu_pct", "repro/internal/tlb"},
	{"core.cpu_pct", "repro/internal/core"},
	{"cache.cpu_pct", "repro/internal/cache"},
	{"cpu.cpu_pct", "repro/internal/cpu"},
	{"prefetch.cpu_pct", "repro/internal/prefetch"},
}

// gcRoots are the runtime functions whose cumulative samples are garbage
// collection: background marking and sweeping, and the mark assists
// allocating goroutines are charged.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcAssistAlloc"}

// profile is one CPU profile being captured to a file.
type profile struct {
	path string
	f    *os.File
}

func startProfile(path string) (*profile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profile{path: path, f: f}, nil
}

func (p *profile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// layerCPU rolls the profile up by package with the toolchain's own
// reader (go tool pprof -top) and returns each cpuLayers metric and
// runtime.gc_pct as a percentage of all samples.
func (p *profile) layerCPU() (map[string]float64, error) {
	cmd := exec.Command(goTool(), "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-unit=ms", p.path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	flat, cum, err := parsePprofTop(string(out))
	if err != nil {
		return nil, err
	}
	var total float64
	for _, v := range flat {
		total += v
	}
	if total == 0 {
		return nil, fmt.Errorf("cpu profile %s holds no samples", p.path)
	}
	res := map[string]float64{}
	for _, l := range cpuLayers {
		res[l.metric] = 0
	}
	for fn, v := range flat {
		pkg := funcPackage(fn)
		for _, l := range cpuLayers {
			if pkg == l.pkg || strings.HasPrefix(pkg, l.pkg+"/") {
				res[l.metric] += 100 * v / total
			}
		}
	}
	var gc float64
	for _, fn := range gcRoots {
		gc += cum[fn]
	}
	res["runtime.gc_pct"] = 100 * gc / total
	return res, nil
}

// goTool is the go command that built this binary's toolchain.
func goTool() string {
	if p, err := exec.LookPath("go"); err == nil {
		return p
	}
	return runtime.GOROOT() + "/bin/go"
}

// parsePprofTop reads `go tool pprof -top -unit=ms` output into flat and
// cumulative milliseconds by function.
func parsePprofTop(text string) (flat, cum map[string]float64, err error) {
	flat, cum = map[string]float64{}, map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	header := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !header {
			header = len(fields) == 5 && fields[0] == "flat" && fields[4] == "cum%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		f, err1 := parseMs(fields[0])
		c, err2 := parseMs(fields[3])
		if err1 != nil || err2 != nil {
			return nil, nil, fmt.Errorf("pprof -top line %q: unreadable times", sc.Text())
		}
		fn := strings.Join(fields[5:], " ")
		fn = strings.TrimSuffix(fn, " (inline)")
		flat[fn] += f
		cum[fn] = max(cum[fn], c)
	}
	if !header {
		return nil, nil, fmt.Errorf("pprof -top output has no table header")
	}
	return flat, cum, sc.Err()
}

func parseMs(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
}

// funcPackage returns the import path of a symbolized Go function name,
// e.g. "repro/internal/sim" for "repro/internal/sim.(*MemSystem).walk.func1".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
