package workloads

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// updateGen rewrites the generation golden instead of comparing against it:
//
//	go test ./internal/workloads -run TestGenerationGolden -update-gen
//
// Regenerate only when a generator is *supposed* to produce different
// content; a perf-only change must leave the golden byte-identical.
var updateGen = flag.Bool("update-gen", false, "rewrite testdata/gen_digests.golden")

const genGoldenPath = "testdata/gen_digests.golden"

// genDigest hashes everything a generated checkpoint holds: the ops, the
// instruction count, every backed page in ascending page order with its
// bytes, and every mapping in ascending VPage order. It sorts for itself,
// so it does not depend on the order Image or AddressSpace enumerate in.
func genDigest(ck *trace.Checkpoint) string {
	h := sha256.New()
	var b [16]byte
	for _, op := range ck.Trace.Ops {
		binary.LittleEndian.PutUint32(b[0:], op.PC)
		binary.LittleEndian.PutUint32(b[4:], op.Addr)
		b[8], b[9], b[10], b[11] = uint8(op.Kind), op.Src1, op.Src2, op.Dst
		b[12] = 0
		if op.Taken {
			b[12] = 1
		}
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:8], uint64(ck.Instrs))
	h.Write(b[:8])

	img := ck.Space.Img
	pns := img.PageNumbers()
	slices.Sort(pns)
	page := make([]byte, mem.PageSize)
	for _, pn := range pns {
		binary.LittleEndian.PutUint32(b[:4], pn)
		h.Write(b[:4])
		img.ReadBytes(pn<<mem.PageShift, page)
		h.Write(page)
	}
	maps := ck.Space.Mappings()
	slices.SortFunc(maps, func(x, y mem.Mapping) int { return cmp.Compare(x.VPage, y.VPage) })
	for _, m := range maps {
		binary.LittleEndian.PutUint32(b[0:], m.VPage)
		binary.LittleEndian.PutUint32(b[4:], m.Frame)
		h.Write(b[:8])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerationGolden pins the exact content every generator produces
// under the seed Checkpoint uses, so a change to how traces, images or heap
// structures are built cannot silently change a workload. Every benchmark
// is pinned at a small budget; proE (the largest trace overshoot) and
// verilog-gate (the largest heap) are also pinned at DefaultOps.
func TestGenerationGolden(t *testing.T) {
	var got strings.Builder
	pin := func(s Spec, ops int) {
		ck := s.Generate(GenConfig{Ops: ops, Seed: checkpointSeed(s)})
		fmt.Fprintf(&got, "%s %d %s\n", s.Name, ops, genDigest(ck))
	}
	for _, s := range All() {
		pin(s, 60_000)
	}
	for _, name := range []string{"proE", "verilog-gate"} {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pin(s, DefaultOps)
	}
	if *updateGen {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(genGoldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(genGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update-gen to create it)", err)
	}
	if got.String() != string(want) {
		t.Fatalf("generation digests drifted from %s:\ngot:\n%swant:\n%s", genGoldenPath, got.String(), want)
	}
}
