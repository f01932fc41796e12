package trace

import (
	"bytes"
	"testing"

	"repro/internal/mem"
)

// fuzzSeedCheckpoint builds a tiny but fully populated checkpoint so the
// fuzzer starts from a structurally valid input.
func fuzzSeedCheckpoint() *Checkpoint {
	space := mem.NewAddressSpace()
	space.EnsureMapped(0x1000_0000, 2*mem.PageSize)
	space.Img.Write32(0x1000_0000, 0x1000_0040)
	b := NewBuilder(0)
	b.Load(0x400, 1, 2, 0x1000_0000)
	b.Int(0x404, 3, 1, NoReg)
	b.Store(0x408, 3, 2, 0x1000_0004)
	b.Branch(0x40c, 3, true)
	return &Checkpoint{Name: "fuzz-seed", Space: space, Trace: b.Trace(), Instrs: 2}
}

// FuzzReadCheckpoint throws arbitrary bytes at the checkpoint decoder. The
// decoder must never panic or over-allocate on corrupt input, and anything
// it accepts must survive a write/read round trip unchanged in its header
// fields and op stream.
func FuzzReadCheckpoint(f *testing.F) {
	var seed bytes.Buffer
	if _, err := fuzzSeedCheckpoint().WriteTo(&seed); err != nil {
		f.Fatalf("serialising seed: %v", err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte("CDPT"))
	f.Add([]byte("CDPT\x01\x00\x00\x00\x00\x00\x00\x00"))
	// A well-formed empty-name header claiming ~2^40 ops with no payload:
	// the decoder must fail cleanly, not allocate for the claimed count.
	// Layout: magic(4) version(4) nameLen(4) instrs(8) opCount(8).
	huge := append([]byte("CDPT\x01\x00\x00\x00\x00\x00\x00\x00"), make([]byte, 16)...)
	huge[20] = 0xff // opCount low byte
	huge[25] = 0x01 // opCount bit 40
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := ck.WriteTo(&out); err != nil {
			t.Fatalf("re-serialising accepted checkpoint: %v", err)
		}
		ck2, err := ReadCheckpoint(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("round trip of accepted checkpoint failed: %v", err)
		}
		if ck2.Name != ck.Name || ck2.Instrs != ck.Instrs {
			t.Fatalf("round trip changed header: %q/%d vs %q/%d", ck.Name, ck.Instrs, ck2.Name, ck2.Instrs)
		}
		if len(ck2.Trace.Ops) != len(ck.Trace.Ops) {
			t.Fatalf("round trip changed op count: %d vs %d", len(ck.Trace.Ops), len(ck2.Trace.Ops))
		}
		for i := range ck.Trace.Ops {
			if ck.Trace.Ops[i] != ck2.Trace.Ops[i] {
				t.Fatalf("round trip changed op %d: %+v vs %+v", i, ck.Trace.Ops[i], ck2.Trace.Ops[i])
			}
		}
	})
}
