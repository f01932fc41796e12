package workloads

import (
	"bytes"
	"testing"

	"repro/internal/trace"
)

// TestTraceReservation checks that newGen's reservation holds every
// benchmark's whole trace at the budgets the benchmarks and experiments run
// (150k per cdpd request, DefaultOps for the reproduction): the trace is
// allocated once and never regrown.
func TestTraceReservation(t *testing.T) {
	for _, ops := range []int{150_000, DefaultOps} {
		for _, s := range All() {
			ck := s.Generate(GenConfig{Ops: ops, Seed: checkpointSeed(s)})
			n, c := ck.Trace.Len(), cap(ck.Trace.Ops)
			t.Logf("%s@%d: %d µops, +%d over budget", s.Name, ops, n, n-ops)
			if c != traceReserve(ops) {
				t.Errorf("%s@%d: cap %d, reserved %d (trace of %d µops regrew)", s.Name, ops, c, traceReserve(ops), n)
			}
		}
	}
}

// TestTraceReservationTinyBudgets covers budgets so small that a
// benchmark's warm-up passes alone run past the reservation. The trace does
// regrow there; what must hold is that it regrows only when the trace
// really outgrew the reservation, never because the reservation was lost.
func TestTraceReservationTinyBudgets(t *testing.T) {
	for _, ops := range []int{2_000, 20_000} {
		for _, s := range All() {
			ck := s.Generate(GenConfig{Ops: ops, Seed: checkpointSeed(s)})
			n, c := ck.Trace.Len(), cap(ck.Trace.Ops)
			if c == traceReserve(ops) {
				continue
			}
			if n <= traceReserve(ops) {
				t.Errorf("%s@%d: cap %d, reserved %d, yet the %d-µop trace fits", s.Name, ops, c, traceReserve(ops), n)
			}
			t.Logf("%s@%d: %d µops outgrew the %d reserved (regrown to cap %d)", s.Name, ops, n, traceReserve(ops), c)
		}
	}
}

// checkpointBytes serialises ck.
func checkpointBytes(t *testing.T, ck *trace.Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ck.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A checkpoint file is a function of the spec and seed alone: generating
// twice and writing each gives the same bytes, page and mapping order
// included.
func TestCheckpointFileDeterministic(t *testing.T) {
	s, _ := ByName("b2c")
	a := checkpointBytes(t, s.Generate(GenConfig{Ops: 60_000, Seed: 5}))
	b := checkpointBytes(t, s.Generate(GenConfig{Ops: 60_000, Seed: 5}))
	if !bytes.Equal(a, b) {
		t.Fatalf("two generations of b2c wrote different files (%d vs %d bytes)", len(a), len(b))
	}
}

// Writing a checkpoint read back from a file reproduces that file exactly.
func TestCheckpointFileRoundTrip(t *testing.T) {
	s, _ := ByName("tpcc-1")
	first := checkpointBytes(t, s.Generate(GenConfig{Ops: 60_000, Seed: 5}))
	ck, err := trace.ReadCheckpoint(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if second := checkpointBytes(t, ck); !bytes.Equal(first, second) {
		t.Fatalf("WriteTo after ReadCheckpoint differs (%d vs %d bytes)", len(first), len(second))
	}
}

var sinkCheckpoint *trace.Checkpoint

// BenchmarkGenerate measures synthesis of one benchmark per iteration,
// cycling through all fifteen at the default budget.
func BenchmarkGenerate(b *testing.B) {
	all := All()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := all[i%len(all)]
		sinkCheckpoint = s.Generate(GenConfig{Ops: DefaultOps, Seed: int64(i)})
	}
}
