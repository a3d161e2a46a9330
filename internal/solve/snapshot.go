package solve

import "time"

// Engine-introspection snapshots. Every exact engine periodically fills
// an ExactProgress (exact.go) with the live shape of its search —
// expansion rate, open-queue size and per-f histogram, state-table
// occupancy, frontier f/g, per-worker heap/mailbox/floor data, IDA*
// threshold schedule — on a time-based cadence controlled by
// Limits.ProgressEvery. The machinery here is shared: the sampler
// that turns wall-clock windows into rates, the queue/table accessors
// the builders read, and the f-value normalization (the engines use
// costUnreached internally; snapshots report -1 for "no frontier" so
// the values survive JSON encoding unscathed).

// defaultProgressEvery is the snapshot cadence when a Progress listener
// is attached but no explicit ProgressEvery is configured.
const defaultProgressEvery = 100 * time.Millisecond

// maxSnapshotBuckets caps the per-f histogram length in one snapshot
// (the live bucket range is tiny for every sane model, but pathological
// compcost scales could spread the frontier over thousands of levels).
const maxSnapshotBuckets = 32

// QueueBucket is one f-level of the open queue in a snapshot.
type QueueBucket struct {
	// F is the bucket's f value (priority level).
	F int64 `json:"f"`
	// Count is the number of open entries at that level.
	Count int `json:"count"`
}

// WorkerProgress is one parallel worker's slot in a snapshot.
type WorkerProgress struct {
	// ID is the shard/worker index.
	ID int `json:"id"`
	// Expanded and Pushed are the worker's cumulative counters.
	Expanded int `json:"expanded"`
	Pushed   int `json:"pushed"`
	// OpenSize is the worker's open-list length.
	OpenSize int `json:"open_size"`
	// HeapMinF is the worker's published heap minimum f (-1: empty).
	HeapMinF int64 `json:"heap_min_f"`
	// Floor is the worker's certified in-flight floor (-1: none) —
	// async engine only.
	Floor int64 `json:"floor"`
	// MailboxDepth is the number of proposals pending in mailboxes
	// addressed to this worker — async engine only.
	MailboxDepth int `json:"mailbox_depth"`
	// TableCount/TableBytes are the worker's shard table occupancy.
	TableCount int   `json:"table_count"`
	TableBytes int64 `json:"table_bytes"`
	// Passive reports the worker idle in the termination protocol —
	// async engine only.
	Passive bool `json:"passive,omitempty"`
}

// progressSampler owns the time-based snapshot cadence of one engine
// run: due() is the cheap gate the hot loop polls (one monotonic clock
// read), tick() advances the rate window when a snapshot is actually
// built. Engines create one only when a Progress listener is attached,
// so a nil-listener run pays a single nil check per gate visit.
type progressSampler struct {
	every time.Duration
	start time.Time
	last  time.Time
	lastN int
}

func newProgressSampler(every time.Duration) *progressSampler {
	if every <= 0 {
		every = defaultProgressEvery
	}
	now := time.Now()
	return &progressSampler{every: every, start: now, last: now}
}

// due reports whether the cadence interval has elapsed since the last
// snapshot.
func (s *progressSampler) due() bool {
	return time.Since(s.last) >= s.every
}

// tick advances the rate window: it returns the elapsed time since the
// search started and the expansion rate (states/s) over the window
// since the previous tick, given the cumulative expansion count n.
func (s *progressSampler) tick(n int) (elapsed time.Duration, rate float64) {
	now := time.Now()
	elapsed = now.Sub(s.start)
	if dt := now.Sub(s.last).Seconds(); dt > 0 {
		rate = float64(n-s.lastN) / dt
	}
	s.last, s.lastN = now, n
	return elapsed, rate
}

// normF maps the internal "no value" sentinel to -1 for snapshots.
func normF(v int64) int64 {
	if v == costUnreached {
		return -1
	}
	return v
}

// load returns the probe-array load factor (distinct states per slot).
func (t *stateTable) load() float64 {
	if len(t.slots) == 0 {
		return 0
	}
	return float64(t.count()) / float64(len(t.slots))
}

// histogram appends one QueueBucket per nonempty f level (ascending f,
// at most maxSnapshotBuckets; the overflow heap — f >= bqMaxF — is
// summarized as a single bucket at its minimum f). Owner-thread only,
// like every other bucketQueue method.
func (q *bucketQueue) histogram(dst []QueueBucket) []QueueBucket {
	for f := q.cur; f < len(q.bks) && len(dst) < maxSnapshotBuckets; f++ {
		if n := len(q.bks[f].a); n > 0 {
			dst = append(dst, QueueBucket{F: int64(f), Count: n})
		}
	}
	if len(q.over) > 0 && len(dst) < maxSnapshotBuckets {
		dst = append(dst, QueueBucket{F: q.over[0].f, Count: len(q.over)})
	}
	return dst
}

// singleProgress builds the snapshot of a single-table, single-queue
// engine (the serial A* loop). Called on the solver goroutine with the
// structures quiescent.
func singleProgress(s *progressSampler, expanded, pushed int, lower int64, table *stateTable, open *bucketQueue) ExactProgress {
	elapsed, rate := s.tick(expanded)
	pr := ExactProgress{
		Engine:     "astar",
		Expanded:   expanded,
		LowerBound: lower,
		Elapsed:    elapsed,
		Rate:       rate,
		Pushed:     pushed,
		Distinct:   table.count(),
		OpenSize:   open.len(),
		FrontierF:  -1,
		FrontierG:  -1,
		TableBytes: table.bytes(),
		TableLoad:  table.load(),
	}
	if open.len() > 0 {
		pr.FrontierF, pr.FrontierG = open.top()
		pr.OpenBuckets = open.histogram(nil)
	}
	return pr
}
