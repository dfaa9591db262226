package sim

import "testing"

// Micro-benchmarks of the engine's event form — a static function plus a
// pooled argument (AtCall/AfterCall/UseCall) — which amortizes to zero
// allocations per event; the simulator's hot paths (message hops, SLC
// accesses, processor steps) rely on that, so a regression shows up as
// allocs/op. These are single-process micro-benchmarks; a speed claim for
// the simulator as a whole comes from bench/abtest.sh's interleaved runs.

type benchArg struct{ n int }

func benchStep(a any) { a.(*benchArg).n++ }

// BenchmarkEngineCallEvents schedules and drains events through the
// static-function form with a reused argument: the pooled pattern.
func BenchmarkEngineCallEvents(b *testing.B) {
	eng := NewEngine()
	arg := &benchArg{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.AfterCall(Time(i%7), benchStep, arg)
		if eng.Pending() >= 1024 {
			eng.Run()
		}
	}
	eng.Run()
	if arg.n != b.N {
		b.Fatalf("ran %d of %d events", arg.n, b.N)
	}
}

// BenchmarkEngineSameTimeFanout schedules whole batches of events at a
// single instant — the shape cohort dispatch wins big on: one clock update
// and one bucket lookup serve all 1024 events of each cohort.
func BenchmarkEngineSameTimeFanout(b *testing.B) {
	eng := NewEngine()
	arg := &benchArg{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.AfterCall(64, benchStep, arg)
		if eng.Pending() >= 1024 {
			eng.Run()
		}
	}
	eng.Run()
	if arg.n != b.N {
		b.Fatalf("ran %d of %d events", arg.n, b.N)
	}
}

// BenchmarkEngineSparseHorizon spreads events far beyond the wheel window —
// the adversarial shape for a calendar queue: every event takes the
// overflow heap, a window jump, and a migration before it dispatches.
func BenchmarkEngineSparseHorizon(b *testing.B) {
	eng := NewEngine()
	arg := &benchArg{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.AfterCall(Time(100_000+(i%13)*7919), benchStep, arg)
		if eng.Pending() >= 256 {
			eng.Run()
		}
	}
	eng.Run()
	if arg.n != b.N {
		b.Fatalf("ran %d of %d events", arg.n, b.N)
	}
}

// TestEngineDispatchShapesNoAllocs pins both new dispatch shapes to zero
// steady-state allocations: the arena free list and the overflow heap's
// retained capacity must absorb any schedule once warm.
func TestEngineDispatchShapesNoAllocs(t *testing.T) {
	eng := NewEngine()
	arg := &benchArg{}
	if n := testing.AllocsPerRun(50, func() {
		for i := 0; i < 512; i++ {
			eng.AfterCall(64, benchStep, arg)
		}
		eng.Run()
	}); n != 0 {
		t.Fatalf("same-time fan-out allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		for i := 0; i < 256; i++ {
			eng.AfterCall(Time(100_000+(i%13)*7919), benchStep, arg)
		}
		eng.Run()
	}); n != 0 {
		t.Fatalf("sparse long-horizon schedule allocates %v times per run, want 0", n)
	}
}

// BenchmarkResourceUseCall drives a contended resource through UseCall with
// a reused argument.
func BenchmarkResourceUseCall(b *testing.B) {
	eng := NewEngine()
	r := NewResource(eng, "bench")
	arg := &benchArg{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.UseCall(3, benchStep, arg)
		if eng.Pending() >= 1024 {
			eng.Run()
		}
	}
	eng.Run()
	if arg.n != b.N {
		b.Fatalf("ran %d of %d completions", arg.n, b.N)
	}
}

// BenchmarkResourceUsePipelinedCall exercises the pipelined variant the SLC
// model uses on every access.
func BenchmarkResourceUsePipelinedCall(b *testing.B) {
	eng := NewEngine()
	r := NewResource(eng, "bench")
	arg := &benchArg{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.UsePipelinedCall(2, 6, benchStep, arg)
		if eng.Pending() >= 1024 {
			eng.Run()
		}
	}
	eng.Run()
	if arg.n != b.N {
		b.Fatalf("ran %d of %d completions", arg.n, b.N)
	}
}
