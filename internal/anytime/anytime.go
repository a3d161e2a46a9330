// Package anytime orchestrates the library's solvers under a deadline:
// it races the cheap upper-bound heuristics (topological+Belady, the
// greedy rules) against the exact refinement engines (best-first A* and
// iterative-deepening A*), tracking the best incumbent trace and the
// best certified lower bound the whole time. When the budget runs out
// it returns the certified [lower, upper] interval and the incumbent's
// verified trace instead of an error — the contract a serving system
// needs on instances where the paper's hardness results make unbounded
// exact solves impossible.
//
// The certificate chain:
//
//   - the root S-partition heuristic gives an instant admissible lower
//     bound before any search runs (solve.RootLowerBound);
//   - the A* engine raises it continuously (the min f on its open
//     frontier never exceeds the optimum) and harvests a final frontier
//     bound when canceled;
//   - each completed IDA* pass raises it further (a pass at threshold T
//     that finds nothing cheaper proves no completion below the
//     smallest f it pruned);
//   - every upper bound is a replay-verified trace.
//
// The upper and lower streams meet exactly when either engine proves
// optimality; a Result with Gap() == 0 carries a proven optimum.
package anytime

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rbpebble/internal/obs"
	"rbpebble/internal/pebble"
	"rbpebble/internal/solve"
)

// Options configures one anytime solve.
type Options struct {
	// Budget is the wall-clock budget. Zero means no budget: the solve
	// runs until an exact engine proves optimality (or ctx fires).
	Budget time.Duration
	// Workers > 1 expands the best-first engine with that many
	// hash-sharded async HDA* workers. The parallel engine streams a
	// certified lower bound mid-flight just like the serial one: its
	// coordinator merges the per-worker frontier floors with the
	// in-flight mailbox watermarks into a certified global f-min and
	// reports every improvement, so OnProgress sees monotone certified
	// progress under any worker count.
	Workers int
	// MaxStates caps the best-first engine's expansions (0 = 1<<40,
	// effectively unbounded: the deadline is the real budget).
	MaxStates int
	// MaxVisits caps the depth-first engine's expansions (0 = 1<<40).
	MaxVisits int
	// MaxTableBytes caps EACH refinement engine's table footprint
	// (solve.Limits.MaxTableBytes in both engines' options; 0 =
	// unlimited). An engine tripping the budget aborts with
	// solve.ErrMemoryBudget, its certified bounds are harvested into the
	// interval like any other early stop, and Result.MemoryLimited is
	// set — the node-wide memory governor rests on this.
	MaxTableBytes int64
	// DisableDFS turns off the IDA* refinement engine (it only runs for
	// the oneshot and nodel models regardless).
	DisableDFS bool
	// OnProgress, when non-nil, receives a snapshot every time the
	// certified interval tightens (new incumbent or higher lower
	// bound). Emissions are serialized, deduplicated and monotone: each
	// snapshot strictly improves at least one end of the previously
	// delivered interval and never regresses either end, even when
	// several engines report the same bound concurrently. Called from
	// solver goroutines; must be fast.
	OnProgress func(Snapshot)
	// OnSearch, when non-nil, receives the exact engines' live search
	// snapshots (expansion rate, frontier shape, table occupancy,
	// per-worker mailbox/heap data — see obs.SearchSnapshot) on a
	// time-based cadence during phase 2. Emissions are serialized with
	// strictly increasing Seq across both racing engines. Called from
	// solver goroutines; must be fast.
	OnSearch func(obs.SearchSnapshot)
	// SnapshotEvery is the engines' search-snapshot cadence (zero =
	// the engines' ~100ms default).
	SnapshotEvery time.Duration
	// Warm, when non-nil, resumes refinement from a previously certified
	// interval of the SAME instance (e.g. a cached deadline-limited
	// result): the cached incumbent is replay-verified and installed
	// before any heuristic runs, its cost seeds the depth-first engine's
	// ExactDFSOptions.InitialBound and the best-first engine's
	// PruneBound, and the cached lower bound seeds both engines'
	// InitialLowerBound — so a repeated hard instance picks up exactly
	// where the previous request's budget died instead of starting over.
	Warm *WarmStart
}

// WarmStart carries a previously certified interval into a new solve.
// The caller vouches for LowerScaled (it must come from a certificate
// chain on the same instance); Moves is re-verified here, so a corrupt
// trace degrades to a cold start rather than an invalid answer.
type WarmStart struct {
	// Moves is the cached incumbent trace in this instance's node IDs
	// (translate with instcache.FromCanonical when it crossed the
	// canonical cache). Empty means no incumbent, only a lower bound.
	Moves []pebble.Move
	// LowerScaled is the certified scaled lower bound (0 = none).
	LowerScaled int64
	// Source names where the warm data came from, for provenance
	// ("cache:astar" etc.); empty defaults to "warm-start".
	Source string
}

// Snapshot is one point of the anytime convergence curve.
type Snapshot struct {
	// Elapsed is the time since Solve started.
	Elapsed time.Duration
	// UpperScaled and LowerScaled are the certified interval ends in
	// scaled cost units (see pebble.Cost.Scaled). UpperScaled is
	// math.MaxInt64 until a first incumbent exists.
	UpperScaled, LowerScaled int64
	// Source names what produced this tightening ("root-bound",
	// "topo-belady", "greedy/most-red-inputs", "astar", "ida*", ...).
	Source string
}

// Result is a certified anytime answer.
type Result struct {
	// Solution is the best incumbent: a replay-verified trace.
	Solution solve.Solution
	// UpperScaled is the incumbent's scaled cost; LowerScaled the best
	// certified scaled lower bound on the optimum.
	UpperScaled, LowerScaled int64
	// Upper and Lower are the same interval in model cost units.
	Upper, Lower float64
	// Optimal reports that the interval closed: the incumbent is a
	// proven optimum.
	Optimal bool
	// Source names the strategy that produced the incumbent.
	Source string
	// Elapsed is the wall-clock time the solve used.
	Elapsed time.Duration
	// Expanded and Visits report the refinement engines' search effort
	// (best-first expansions, depth-first visits).
	Expanded, Visits int
	// TableBytes is the engines' combined peak table footprint (the
	// best-first visited tables plus the depth-first memo/heuristic
	// tables) — the memory half of the per-solve telemetry record.
	TableBytes int64
	// PeakFrontier and PeakRate are the largest open-frontier size and
	// expansion rate (states/s) observed across the solve's search
	// snapshots (zero when phase 2 never ran or finished between
	// samples) — the SolveRecord fields the portfolio scheduler wants.
	PeakFrontier int64
	PeakRate     float64
	// MemoryLimited reports that at least one refinement engine aborted
	// on Options.MaxTableBytes (solve.ErrMemoryBudget): the interval is
	// still certified, but it stopped where the memory governor cut the
	// search rather than where the deadline did.
	MemoryLimited bool
}

// Gap returns the relative optimality gap (upper-lower)/upper of a
// scaled certified interval: 0 for a proven optimum (and for the
// degenerate zero-cost optimum).
func Gap(upperScaled, lowerScaled int64) float64 {
	if upperScaled <= 0 || upperScaled <= lowerScaled {
		return 0
	}
	return float64(upperScaled-lowerScaled) / float64(upperScaled)
}

// Gap returns the result's relative optimality gap (see Gap).
func (r Result) Gap() float64 { return Gap(r.UpperScaled, r.LowerScaled) }

func (r Result) String() string {
	state := "certified"
	if r.Optimal {
		state = "optimal"
	}
	return fmt.Sprintf("anytime: [%d, %d] gap=%.1f%% %s via %s in %s",
		r.LowerScaled, r.UpperScaled, 100*r.Gap(), state, r.Source, r.Elapsed.Round(time.Millisecond))
}

// unbounded is the effective search budget when only the deadline
// should stop an engine.
const unbounded = 1 << 40

// refinementOptions assembles the phase-2 engine options from the
// orchestrator options and the certified interval at phase-2 start:
// the incumbent (warm-started or heuristic) seeds the depth-first
// engine's InitialBound and the best-first engine's PruneBound
// (both incumbent+1, so equal-cost optima are still found and proven),
// and the certified floor seeds both engines' InitialLowerBound. It is
// a separate function so tests can assert the warm-start values really
// reach the exact engines.
func refinementOptions(opts Options, incumbentScaled, lowerScaled int64) (solve.ExactOptions, solve.ExactDFSOptions) {
	maxStates := opts.MaxStates
	if maxStates == 0 {
		maxStates = unbounded
	}
	maxVisits := opts.MaxVisits
	if maxVisits == 0 {
		maxVisits = unbounded
	}
	limits := solve.Limits{
		MaxTableBytes:     opts.MaxTableBytes,
		InitialLowerBound: lowerScaled,
		ProgressEvery:     opts.SnapshotEvery,
	}
	exact := solve.ExactOptions{Limits: limits, MaxStates: maxStates, Parallel: opts.Workers}
	dfs := solve.ExactDFSOptions{Limits: limits, MaxVisits: maxVisits}
	if incumbentScaled < math.MaxInt64 {
		// Exclusive bounds: keep equal-cost completions so the engines
		// can still PROVE the incumbent optimal, prune anything worse.
		exact.PruneBound = incumbentScaled + 1
		dfs.InitialBound = incumbentScaled + 1
	}
	return exact, dfs
}

// searchRelay funnels both racing engines' search snapshots into one
// ordered stream: it converts the solve-layer snapshot to the wire
// form, assigns a strictly increasing Seq, tracks the peak frontier
// size and expansion rate for the Result, mirrors each sample as a
// search-snapshot span event, and fans out to the caller's OnSearch.
// One mutex serializes everything so the observer never sees Seq go
// backward even when the A* and IDA* engines sample concurrently.
type searchRelay struct {
	mu           sync.Mutex
	seq          int
	peakFrontier int64
	peakRate     float64
	on           func(obs.SearchSnapshot)
}

func (r *searchRelay) relay(sp *obs.Span, pr solve.ExactProgress) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	snap := searchSnapshotFrom(pr)
	snap.Seq = r.seq
	if snap.FrontierSize > r.peakFrontier {
		r.peakFrontier = snap.FrontierSize
	}
	if snap.Rate > r.peakRate {
		r.peakRate = snap.Rate
	}
	sp.Event("search-snapshot", snap.Expanded)
	if r.on != nil {
		r.on(snap)
	}
}

// peaks returns the peak frontier size and expansion rate seen so far.
func (r *searchRelay) peaks() (frontier int64, rate float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.peakFrontier, r.peakRate
}

// searchSnapshotFrom converts the solve layer's engine snapshot into
// the wire form shared by the service, proxy, CLI and JSONL sinks.
func searchSnapshotFrom(pr solve.ExactProgress) obs.SearchSnapshot {
	s := obs.SearchSnapshot{
		Engine:       pr.Engine,
		ElapsedMS:    pr.Elapsed.Milliseconds(),
		Expanded:     int64(pr.Expanded),
		Rate:         pr.Rate,
		Pushed:       int64(pr.Pushed),
		Distinct:     int64(pr.Distinct),
		LowerBound:   pr.LowerBound,
		FrontierSize: int64(pr.OpenSize),
		FrontierF:    pr.FrontierF,
		FrontierG:    pr.FrontierG,
		TableStates:  int64(pr.Distinct),
		TableBytes:   pr.TableBytes,
		TableLoad:    pr.TableLoad,
		SafraSent:    pr.SafraSent,
		SafraRecv:    pr.SafraRecv,
		Threshold:    pr.Threshold,
		Pass:         pr.Pass,
	}
	if len(pr.OpenBuckets) > 0 {
		s.OpenBuckets = make([]obs.SearchBucket, len(pr.OpenBuckets))
		for i, b := range pr.OpenBuckets {
			s.OpenBuckets[i] = obs.SearchBucket{F: b.F, Count: b.Count}
		}
	}
	if len(pr.Workers) > 0 {
		s.Workers = make([]obs.SearchWorker, len(pr.Workers))
		for i, w := range pr.Workers {
			s.Workers[i] = obs.SearchWorker{
				ID:           w.ID,
				Expanded:     int64(w.Expanded),
				Pushed:       int64(w.Pushed),
				HeapSize:     int64(w.OpenSize),
				HeapMinF:     w.HeapMinF,
				Floor:        w.Floor,
				MailboxDepth: int64(w.MailboxDepth),
				TableStates:  int64(w.TableCount),
				TableBytes:   w.TableBytes,
				Passive:      w.Passive,
			}
		}
	}
	return s
}

// collector accumulates the certified interval across phases and
// engines, emitting a snapshot whenever it tightens.
type collector struct {
	p     solve.Problem
	start time.Time
	onP   func(Snapshot)

	mu     sync.Mutex
	upper  int64
	lower  int64
	best   solve.Solution
	source string
	found  bool

	// The emission gate serializes OnProgress deliveries and remembers
	// the last pair handed to the caller, so concurrent engines
	// reporting the same bound (or snapshots built under c.mu but
	// racing to the callback) can never produce duplicate or regressing
	// (upper, lower) pairs: the caller only ever observes strict
	// improvement.
	emitMu sync.Mutex
	sentU  int64
	sentL  int64
}

// snapshotLocked captures the current interval; the caller emits it
// after releasing the state lock (the callback may be arbitrarily
// slow, and emitting outside c.mu keeps solver goroutines from
// serializing on it; the separate emission gate below restores a
// total, monotone order on what the user sees).
func (c *collector) snapshotLocked(source string) (Snapshot, bool) {
	if c.onP == nil {
		return Snapshot{}, false
	}
	return Snapshot{
		Elapsed:     time.Since(c.start),
		UpperScaled: c.upper,
		LowerScaled: c.lower,
		Source:      source,
	}, true
}

// emit delivers a snapshot through the emission gate: duplicates and
// stale reorderings are dropped, and each end is clamped to the best
// value already delivered so the OnProgress stream is strictly
// improving and never regresses.
func (c *collector) emit(s Snapshot) {
	c.emitMu.Lock()
	defer c.emitMu.Unlock()
	if s.UpperScaled >= c.sentU && s.LowerScaled <= c.sentL {
		return // no strict improvement over what was already delivered
	}
	if s.UpperScaled > c.sentU {
		s.UpperScaled = c.sentU
	}
	if s.LowerScaled < c.sentL {
		s.LowerScaled = c.sentL
	}
	c.sentU, c.sentL = s.UpperScaled, s.LowerScaled
	c.onP(s)
}

// improveUpper installs sol as the incumbent if it beats the current
// one. sol must already be replay-verified (every solve.Solution is).
func (c *collector) improveUpper(sol solve.Solution, source string) {
	scaled := sol.Result.Cost.Scaled(c.p.Model)
	c.mu.Lock()
	if scaled >= c.upper {
		c.mu.Unlock()
		return
	}
	c.upper, c.best, c.source, c.found = scaled, sol, source, true
	s, emit := c.snapshotLocked(source)
	c.mu.Unlock()
	if emit {
		c.emit(s)
	}
}

// improveUpperMoves verifies a raw move sequence (from the DFS
// incumbent callback) and installs it.
func (c *collector) improveUpperMoves(moves []pebble.Move, source string) {
	tr := &pebble.Trace{Model: c.p.Model, R: c.p.R, Convention: c.p.Convention, Moves: moves}
	res, err := tr.Run(c.p.G)
	if err != nil {
		// An unreplayable incumbent would be a solver bug; drop it
		// rather than serve an invalid trace.
		return
	}
	c.improveUpper(solve.Solution{Trace: tr, Result: res}, source)
}

// raiseLower ratchets the certified lower bound.
func (c *collector) raiseLower(v int64, source string) {
	c.mu.Lock()
	if v <= c.lower {
		c.mu.Unlock()
		return
	}
	c.lower = v
	s, emit := c.snapshotLocked(source)
	c.mu.Unlock()
	if emit {
		c.emit(s)
	}
}

// closed reports whether the interval has met.
func (c *collector) closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.found && c.upper <= c.lower
}

// Solve runs the orchestration: instant root bound, fast upper-bound
// heuristics, then concurrent exact refinement until optimality, the
// budget, or ctx. It returns an error only when the instance is
// invalid, infeasible, or no heuristic produced any pebbling within the
// budget; a deadline alone yields a certified non-optimal Result.
func Solve(ctx context.Context, p solve.Problem, opts Options) (Result, error) {
	start := time.Now()
	if opts.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Budget)
		defer cancel()
	}
	// The refinement engines race under their own cancelable context so
	// that the first proof of optimality stops the other engine.
	rctx, rcancel := context.WithCancel(ctx)
	defer rcancel()

	// upper starts at MaxInt64 (the documented "no incumbent yet"
	// sentinel for snapshots) so pre-incumbent snapshots never show an
	// inverted [lower, 0] interval.
	c := &collector{p: p, start: start, onP: opts.OnProgress, upper: math.MaxInt64, sentU: math.MaxInt64}

	// Phase 0: instant certificate. Also validates the instance.
	lb0, err := solve.RootLowerBound(p, solve.HeuristicAuto)
	if err != nil {
		return Result{}, err
	}
	c.lower = lb0
	if s, emit := c.snapshotLocked("root-bound"); emit {
		c.emit(s)
	}

	// Phase 0.5: warm start. Install the cached certificate before any
	// heuristic runs, so even a zero-budget repeat of a hard instance
	// returns an interval no wider than the cached one. The incumbent is
	// replay-verified inside improveUpperMoves — a corrupt cache entry
	// costs the warm upper bound, never correctness.
	if opts.Warm != nil {
		_, wsp := obs.StartSpan(ctx, "warm-start")
		src := opts.Warm.Source
		if src == "" {
			src = "warm-start"
		}
		c.raiseLower(opts.Warm.LowerScaled, src)
		if len(opts.Warm.Moves) > 0 {
			c.improveUpperMoves(opts.Warm.Moves, src)
		}
		wsp.SetAttr("source", src)
		wsp.End()
	}

	// Phase 1: cheap upper bounds, best-first order (TopoBelady is the
	// strongest order-oblivious heuristic; the greedy rules can beat it
	// on structured DAGs; random-order sampling adds diversity, with
	// each sampled order budget-pruned against the incumbent inside
	// sched.Execute). Each runs to completion — they are polynomial and
	// fast — but later ones are skipped once the budget fires.
	_, hsp := obs.StartSpan(ctx, "heuristics")
	if sol, err := solve.TopoBelady(p); err == nil {
		c.improveUpper(sol, "topo-belady")
	}
	for _, rule := range solve.AllGreedyRules() {
		if ctx.Err() != nil {
			break
		}
		if sol, err := solve.Greedy(p, rule); err == nil {
			c.improveUpper(sol, "greedy/"+rule.String())
		}
	}
	if !c.found {
		hsp.SetAttr("err", "no heuristic produced a pebbling")
		hsp.End()
		return Result{}, errors.New("anytime: no heuristic produced a pebbling (infeasible instance?)")
	}
	if ctx.Err() == nil && !c.closed() {
		c.mu.Lock()
		incumbent := c.upper
		c.mu.Unlock()
		if sol, err := solve.RandomOrders(p, solve.RandomOrdersOptions{
			Samples: 8, Seed: 1, InitialBound: incumbent,
		}); err == nil {
			c.improveUpper(sol, "random-orders")
		}
	}
	c.mu.Lock()
	hsp.SetAttr("source", c.source)
	c.mu.Unlock()
	hsp.End()

	// Phase 2: exact refinement, unless the interval already met (or
	// the budget died during phase 1).
	var exactStats solve.ExactStats
	var dfsStats solve.ExactDFSStats
	var memLimited atomic.Bool
	relay := &searchRelay{on: opts.OnSearch}
	if !c.closed() && ctx.Err() == nil {
		var wg sync.WaitGroup

		c.mu.Lock()
		incumbent, floor := c.upper, c.lower
		c.mu.Unlock()
		exactOpts, dfsOpts := refinementOptions(opts, incumbent, floor)
		// Both engines stream the same way: every snapshot raises the
		// shared certificate, lands on the engine's span as a
		// lower-bound event, and joins the ordered search stream.
		progress := func(sp *obs.Span, engine string) func(solve.ExactProgress) {
			return func(pr solve.ExactProgress) {
				sp.Event("lower-bound", pr.LowerBound)
				c.raiseLower(pr.LowerBound, engine)
				relay.relay(sp, pr)
			}
		}

		wg.Add(1)
		go func() {
			defer wg.Done()
			// The engine-attempt span lives on the request's trace (via
			// rctx); certified lower-bound improvements streamed by the
			// engine become span events, so /debug/trace shows the
			// convergence curve inline.
			_, asp := obs.StartSpan(rctx, "engine:astar")
			defer asp.End()
			exactOpts.Cancel = rctx.Done()
			exactOpts.Stats = &exactStats
			exactOpts.Progress = progress(asp, "astar")
			sol, err := solve.Exact(p, exactOpts)
			defer func() {
				asp.SetAttr("expanded", strconv.Itoa(exactStats.Expanded))
				// The search ran over orbits of this group: a symmetric
				// DAG's expansion count drops by up to this factor.
				asp.SetAttr("aut_order", strconv.FormatFloat(exactStats.AutOrder, 'g', -1, 64))
			}()
			if err == nil {
				asp.SetAttr("outcome", "optimal")
				c.improveUpper(sol, "astar")
				c.raiseLower(sol.Result.Cost.Scaled(p.Model), "astar")
				rcancel() // optimum proven: stop the DFS
				return
			}
			// Canceled, out of budget, or bound-exhausted (every branch
			// at or above the incumbent cut: the incumbent is optimal) —
			// harvest the certified bound either way.
			asp.SetAttr("outcome", err.Error())
			c.raiseLower(exactStats.LowerBound, "astar")
			if errors.Is(err, solve.ErrMemoryBudget) {
				memLimited.Store(true)
			}
			if errors.Is(err, solve.ErrBoundExhausted) {
				rcancel()
			}
		}()

		runDFS := !opts.DisableDFS &&
			(p.Model.Kind == pebble.Oneshot || p.Model.Kind == pebble.NoDel)
		if runDFS {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, dsp := obs.StartSpan(rctx, "engine:ida*")
				defer dsp.End()
				dfsOpts.Cancel = rctx.Done()
				dfsOpts.Stats = &dfsStats
				dfsOpts.OnIncumbent = func(scaled int64, moves []pebble.Move) {
					c.improveUpperMoves(moves, "ida*")
				}
				dfsOpts.Progress = progress(dsp, "ida*")
				sol, err := solve.ExactDFS(p, dfsOpts)
				defer func() {
					dsp.SetAttr("visits", strconv.Itoa(dfsStats.Visits))
					dsp.SetAttr("aut_order", strconv.FormatFloat(dfsStats.AutOrder, 'g', -1, 64))
				}()
				if err == nil {
					dsp.SetAttr("outcome", "optimal")
					if sol.Trace != nil {
						c.improveUpper(sol, "ida*")
					}
					c.raiseLower(dfsStats.LowerBound, "ida*")
					rcancel() // optimum proven: stop the A* engine
					return
				}
				dsp.SetAttr("outcome", err.Error())
				c.raiseLower(dfsStats.LowerBound, "ida*")
				if errors.Is(err, solve.ErrMemoryBudget) {
					memLimited.Store(true)
				}
			}()
		}
		wg.Wait()
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	res := Result{
		Solution:      c.best,
		UpperScaled:   c.upper,
		LowerScaled:   min(c.lower, c.upper), // an achievable cost caps any certificate
		Optimal:       c.upper <= c.lower,
		Source:        c.source,
		Elapsed:       time.Since(start),
		Expanded:      exactStats.Expanded,
		Visits:        dfsStats.Visits,
		TableBytes:    exactStats.TableBytes + dfsStats.TableBytes,
		MemoryLimited: memLimited.Load(),
	}
	res.PeakFrontier, res.PeakRate = relay.peaks()
	res.Upper = float64(res.UpperScaled) / CostScale(p.Model)
	res.Lower = float64(res.LowerScaled) / CostScale(p.Model)
	return res, nil
}

// CostScale returns the divisor converting scaled cost units
// (pebble.Cost.Scaled) back to model cost values — shared with the
// serving layer so cost-unit semantics live in one place.
func CostScale(m pebble.Model) float64 {
	if m.Kind == pebble.CompCost {
		return float64(m.EpsDenom)
	}
	return 1
}
