package sim

// cohortLogBuckets sizes the cohort-size log2 histogram: bucket i counts
// cohorts of [2^i, 2^(i+1)) events, with the last bucket absorbing
// everything larger (a 64Ki-event cohort would need every processor's
// traffic stacked on one pclock — anything that big is pathological and
// only its existence matters, not its exact magnitude).
const cohortLogBuckets = 17

// QueueStats is a snapshot of the calendar queue's internal behavior over
// a run: how events were routed (direct wheel insert vs overflow heap),
// how much migration the window slide forced, how large the same-timestamp
// dispatch cohorts ran, and how deep the structures got. All fields are
// plain counters bumped on the engine's single-threaded hot path — no
// atomics, no allocation — so keeping them always-on costs a handful of
// integer ops per event.
type QueueStats struct {
	// Dispatched is the total number of events executed.
	Dispatched uint64
	// WheelScheduled counts events that landed directly in a wheel bucket
	// (at - now < wheelSize at scheduling time).
	WheelScheduled uint64
	// OverflowScheduled counts events routed to the overflow heap because
	// they were scheduled beyond the wheel window.
	OverflowScheduled uint64
	// Migrations counts overflow events later moved into the wheel as the
	// window reached them. It never exceeds OverflowScheduled.
	Migrations uint64
	// Cohorts is the number of runCohort dispatch batches that executed at
	// least one event; Dispatched/Cohorts is the mean cohort size.
	Cohorts uint64
	// CappedBatches counts dispatch batches that stopped at the caller's
	// event budget with the cohort still non-empty — i.e. how often the
	// watchdog's batching actually split a cohort.
	CappedBatches uint64
	// MaxCohort is the largest number of events any single batch executed.
	MaxCohort uint64
	// WheelHighWater is the peak number of events resident in wheel
	// buckets at once; OverflowHighWater is the peak overflow-heap depth.
	WheelHighWater    int
	OverflowHighWater int
	// CohortSizeLog2 is a log2 histogram of batch sizes: bucket i counts
	// batches of [2^i, 2^(i+1)) events (the last bucket is open-ended).
	CohortSizeLog2 [cohortLogBuckets]uint64
}

// Merge folds o into q: counters and histogram buckets add, high-water
// marks take the max. It is how a sweep aggregates per-run snapshots into
// fleet-wide totals.
func (q *QueueStats) Merge(o QueueStats) {
	q.Dispatched += o.Dispatched
	q.WheelScheduled += o.WheelScheduled
	q.OverflowScheduled += o.OverflowScheduled
	q.Migrations += o.Migrations
	q.Cohorts += o.Cohorts
	q.CappedBatches += o.CappedBatches
	if o.MaxCohort > q.MaxCohort {
		q.MaxCohort = o.MaxCohort
	}
	if o.WheelHighWater > q.WheelHighWater {
		q.WheelHighWater = o.WheelHighWater
	}
	if o.OverflowHighWater > q.OverflowHighWater {
		q.OverflowHighWater = o.OverflowHighWater
	}
	for i := range q.CohortSizeLog2 {
		q.CohortSizeLog2[i] += o.CohortSizeLog2[i]
	}
}

// QueueStats returns a snapshot of the queue counters. The returned value
// is a copy; taking it allocates nothing and the engine keeps counting.
func (e *Engine) QueueStats() QueueStats { return e.qstats }
