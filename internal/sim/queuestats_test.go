package sim

import "testing"

// TestQueueStatsCounting drives both scheduling paths and checks the
// counter invariants: every dispatched event entered the wheel either
// directly (WheelScheduled) or by migration from the overflow heap
// (Migrations), and the cohort histogram accounts for every batch.
func TestQueueStatsCounting(t *testing.T) {
	eng := NewEngine()
	ran := 0
	for i := 0; i < 3; i++ {
		eng.AfterCall(Time(i*5), func(any) { ran++ }, nil)
	}
	// Far beyond the wheel window: overflow heap, then migration.
	eng.AfterCall(100_000, func(any) { ran++ }, nil)
	eng.AfterCall(100_001, func(any) { ran++ }, nil)
	eng.Run()

	q := eng.QueueStats()
	if ran != 5 || q.Dispatched != 5 {
		t.Fatalf("dispatched = %d (ran %d), want 5", q.Dispatched, ran)
	}
	if q.WheelScheduled != 3 {
		t.Errorf("WheelScheduled = %d, want 3", q.WheelScheduled)
	}
	if q.OverflowScheduled != 2 {
		t.Errorf("OverflowScheduled = %d, want 2", q.OverflowScheduled)
	}
	if q.Migrations != 2 {
		t.Errorf("Migrations = %d, want 2 (both overflow events must migrate)", q.Migrations)
	}
	if q.WheelScheduled+q.Migrations != q.Dispatched {
		t.Errorf("WheelScheduled %d + Migrations %d != Dispatched %d",
			q.WheelScheduled, q.Migrations, q.Dispatched)
	}
	if q.Cohorts == 0 || q.Cohorts > q.Dispatched {
		t.Errorf("Cohorts = %d, want in [1, %d]", q.Cohorts, q.Dispatched)
	}
	var histTotal uint64
	for _, n := range q.CohortSizeLog2 {
		histTotal += n
	}
	if histTotal != q.Cohorts {
		t.Errorf("cohort histogram sums to %d, want Cohorts %d", histTotal, q.Cohorts)
	}
	if q.MaxCohort == 0 || q.MaxCohort > q.Dispatched {
		t.Errorf("MaxCohort = %d, want in [1, %d]", q.MaxCohort, q.Dispatched)
	}
	if q.WheelHighWater < 3 {
		t.Errorf("WheelHighWater = %d, want >= 3 (three events were wheel-resident)", q.WheelHighWater)
	}
	if q.OverflowHighWater != 2 {
		t.Errorf("OverflowHighWater = %d, want 2", q.OverflowHighWater)
	}
	if q.CappedBatches != 0 {
		t.Errorf("CappedBatches = %d, want 0 (Run never caps)", q.CappedBatches)
	}
}

// TestQueueStatsCappedBatches pins the watchdog-batching signal: a Step()
// against a multi-event cohort stops at its one-event budget with the
// cohort non-empty, and must count as a capped batch.
func TestQueueStatsCappedBatches(t *testing.T) {
	eng := NewEngine()
	n := 0
	for i := 0; i < 3; i++ {
		eng.AfterCall(10, func(any) { n++ }, nil)
	}
	if !eng.Step() {
		t.Fatal("Step ran nothing")
	}
	q := eng.QueueStats()
	if q.CappedBatches != 1 {
		t.Fatalf("CappedBatches after split cohort = %d, want 1", q.CappedBatches)
	}
	eng.Run()
	q = eng.QueueStats()
	if q.Dispatched != 3 || n != 3 {
		t.Fatalf("Dispatched = %d (ran %d), want 3", q.Dispatched, n)
	}
	if q.MaxCohort != 2 {
		t.Fatalf("MaxCohort = %d, want 2 (remainder of the split cohort)", q.MaxCohort)
	}
}

// TestQueueStatsMerge checks the sweep-aggregation semantics: counters and
// histogram buckets add, high-water marks take the max.
func TestQueueStatsMerge(t *testing.T) {
	a := QueueStats{Dispatched: 10, WheelScheduled: 8, OverflowScheduled: 2,
		Migrations: 2, Cohorts: 4, CappedBatches: 1, MaxCohort: 5,
		WheelHighWater: 7, OverflowHighWater: 2}
	a.CohortSizeLog2[0] = 3
	a.CohortSizeLog2[2] = 1
	b := QueueStats{Dispatched: 6, WheelScheduled: 6, Cohorts: 2,
		MaxCohort: 3, WheelHighWater: 9, OverflowHighWater: 1}
	b.CohortSizeLog2[0] = 1
	b.CohortSizeLog2[1] = 1

	a.Merge(b)
	if a.Dispatched != 16 || a.WheelScheduled != 14 || a.OverflowScheduled != 2 ||
		a.Migrations != 2 || a.Cohorts != 6 || a.CappedBatches != 1 {
		t.Fatalf("counter merge wrong: %+v", a)
	}
	if a.MaxCohort != 5 || a.WheelHighWater != 9 || a.OverflowHighWater != 2 {
		t.Fatalf("high-water merge wrong: %+v", a)
	}
	if a.CohortSizeLog2[0] != 4 || a.CohortSizeLog2[1] != 1 || a.CohortSizeLog2[2] != 1 {
		t.Fatalf("histogram merge wrong: %v", a.CohortSizeLog2)
	}
}

// TestCohortBucketMax pins the upper bound of each CohortSizeLog2 bucket.
func TestCohortBucketMax(t *testing.T) {
	for i, want := range []uint64{1, 3, 7, 15, 31} {
		if got := CohortBucketMax(i); got != want {
			t.Errorf("CohortBucketMax(%d) = %d, want %d", i, got, want)
		}
	}
}

// TestQueueStatsZeroAllocs pins the tentpole's cost contract: the always-on
// queue counters (and taking a QueueStats snapshot) add zero allocations
// per event on a warm engine, across both the wheel and overflow paths.
func TestQueueStatsZeroAllocs(t *testing.T) {
	eng := NewEngine()
	arg := &benchArg{}
	var snap QueueStats
	if n := testing.AllocsPerRun(50, func() {
		for i := 0; i < 512; i++ {
			eng.AfterCall(Time(i%7), benchStep, arg)
		}
		for i := 0; i < 64; i++ {
			eng.AfterCall(Time(100_000+i*997), benchStep, arg)
		}
		eng.Run()
		snap = eng.QueueStats()
	}); n != 0 {
		t.Fatalf("queue-stats instrumentation allocates %v times per run, want 0", n)
	}
	if snap.Dispatched == 0 {
		t.Fatal("snapshot empty after runs")
	}
}

// TestBenchGuardEngineCallEvents is the in-suite regression guard for the
// hot dispatch path: BenchmarkEngineCallEvents must stay allocation-free
// and near the 23.7 ns/op the calendar queue measured when it landed, now
// that the queue-stats counters ride it. The ceiling is deliberately loose
// (shared CI machines) — it catches an accidental O(1)→O(log n) or
// allocation regression, not a nanosecond drift; bench/abtest.sh's
// interleaved A/B runs judge those. Skipped under -short and under the
// race detector, whose per-access instrumentation swamps the budget.
func TestBenchGuardEngineCallEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("benchmark guard skipped under the race detector")
	}
	res := testing.Benchmark(BenchmarkEngineCallEvents)
	if res.AllocsPerOp() != 0 {
		t.Fatalf("engine call-event dispatch allocates %d allocs/op, want 0", res.AllocsPerOp())
	}
	const ceilingNs = 120
	if ns := res.NsPerOp(); ns > ceilingNs {
		t.Fatalf("engine call-event dispatch = %d ns/op, want <= %d (23.7 when the calendar queue landed)", ns, ceilingNs)
	}
}
