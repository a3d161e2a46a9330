package solve

import (
	"errors"
	"fmt"
	"time"
)

// Limits is the search control shared by every exact engine (serial
// A*, async HDA* and IDA*): cancellation, the table-memory budget, the
// caller's certified floor and the progress stream. ExactOptions and
// ExactDFSOptions both embed it.
type Limits struct {
	// Cancel, when non-nil, makes the search stop cooperatively once the
	// channel is closed: the engine returns ErrCanceled with its Stats
	// filled, including the certified lower bound harvested at shutdown.
	// The anytime orchestrator uses this to turn a deadline into a
	// [lower, upper] certificate instead of a wasted solve.
	Cancel <-chan struct{}
	// MaxTableBytes caps the visited-state tables' backing-store
	// footprint (probe slots plus arena capacity, summed over parallel
	// shards; the memo plus the transposition cache in IDA*; 0 =
	// unlimited). Growth past the budget aborts the search with
	// ErrMemoryBudget, with Stats filled — including the certified lower
	// bound — so callers harvest a partial certificate instead of letting
	// the search OOM the process. Enforcement is periodic (at the
	// engines' check stride), so the real peak can overshoot the budget
	// by one stride's growth.
	MaxTableBytes int64
	// InitialLowerBound, if > 0, is a lower bound on the optimal scaled
	// cost that the CALLER has already certified (e.g. a cached interval
	// from an earlier deadline-limited solve of the same instance). Every
	// engine seeds its running certificate with it, so a canceled search
	// never reports a lower bound below what was already proven, and
	// IDA* starts its threshold schedule there, skipping the passes a
	// previous request completed. Passing an uncertified value breaks the
	// lower-bound contract; for IDA* it can even make a non-optimal trace
	// come back as "optimal".
	InitialLowerBound int64
	// Progress, when non-nil, receives search snapshots from the engine:
	// on a time-based cadence (ProgressEvery) at the engine's check
	// stride, plus one at every certified improvement — each time the
	// async engine's certified global f-min rises and each time an IDA*
	// threshold pass completes — so the streamed lower bound stays
	// prompt. The async bound is certified without any stop-and-drain:
	// every worker publishes an in-flight-aware floor and every mailbox
	// tracks the minimum parent f of its pending batches (see async.go).
	// The callback runs on a solver goroutine and must be fast. With
	// Progress nil the engines build no snapshots and pay only a nil
	// check at the stride.
	Progress func(ExactProgress)
	// ProgressEvery is the snapshot cadence (default ~100ms). Ignored
	// without a Progress listener.
	ProgressEvery time.Duration
}

// searchCtl is the control plane of one exact search, built from its
// Limits: the cancel poll, the table-budget check and the progress
// sampler, plus the certified running lower bound every abort
// harvests. Each engine consults it at its own check stride; the async
// coordinator consults it on every poll.
type searchCtl struct {
	Limits
	unit    string           // what the engine's work counter counts ("states", "visits")
	sampler *progressSampler // nil without a Progress listener
	lower   int64            // certified running lower bound on the optimum
	tripped int64            // table bytes when the budget tripped
}

func newSearchCtl(l Limits, unit string) searchCtl {
	c := searchCtl{Limits: l, unit: unit, lower: l.InitialLowerBound}
	if l.Progress != nil {
		c.sampler = newProgressSampler(l.ProgressEvery)
	}
	return c
}

// raise lifts the certified lower bound to v and reports whether it
// improved.
func (c *searchCtl) raise(v int64) bool {
	if v > c.lower {
		c.lower = v
		return true
	}
	return false
}

// gate is the stride check. It raises the certified lower bound to
// lower BEFORE anything else, so an abort decided here always harvests
// the freshest certificate the engine holds. It then compares
// tableBytes with the budget and polls Cancel, returning the bare
// ErrMemoryBudget or ErrCanceled sentinel (see stopped), or nil. snap
// reports that a progress snapshot is due: a listener is attached and
// either the bound just improved or the cadence interval has elapsed.
// It is set alongside ErrCanceled too, because the async coordinator
// keeps streaming while its workers drain after a cancel.
func (c *searchCtl) gate(lower, tableBytes int64) (snap bool, err error) {
	improved := c.raise(lower)
	snap = c.sampler != nil && (improved || c.sampler.due())
	if c.MaxTableBytes > 0 && tableBytes > c.MaxTableBytes {
		c.tripped = tableBytes
		return snap, ErrMemoryBudget
	}
	select {
	case <-c.Cancel:
		return snap, ErrCanceled
	default:
		return snap, nil
	}
}

// stopped decorates a gate sentinel with where the search stopped and
// the lower bound it harvested.
func (c *searchCtl) stopped(err error, work int64) error {
	if errors.Is(err, ErrMemoryBudget) {
		return fmt.Errorf("%w: %d table bytes over budget %d after %d %s (lower bound %d)",
			err, c.tripped, c.MaxTableBytes, work, c.unit, c.lower)
	}
	return fmt.Errorf("%w after %d %s (lower bound %d)", err, work, c.unit, c.lower)
}
