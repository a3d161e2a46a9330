// Package solve provides pebbling solvers: an exact best-first search
// over game states (A* with an admissible model-aware lower bound,
// packed-state deduplication, optional hash-sharded parallel expansion;
// small instances, all models), a depth-first IDA* second
// implementation, an exhaustive order-enumeration optimum for the
// oneshot model, the three greedy strategies analyzed in §8 of the
// paper, and the naive topological baseline realizing the (2Δ+1)·n
// universal upper bound.
//
// The exact engines key their visited tables by what the model can tell
// apart. Outside oneshot no rule reads which nodes were computed — only
// the oneshot recompute ban does — so the key drops the computed plane
// (searchCtx.tableKey): states that differ only in their compute
// history have the same successors, move costs, goal status and lower
// bound, hence the same optimal remaining cost, and are stored once.
// On top of that the engines search orbits of the DAG's automorphism
// group rather than single states: every visited-table key is the
// packed state's minimal image under Aut(G) (orbits.go). An automorphism
// preserves sources, sinks, legality, costs, the goal and the dominance
// prunes, so symmetric states have the same optimal remaining cost and
// the quotient search proves the same optimum; the returned trace is
// unfolded back to real node IDs and replay-verified. Both reductions
// need pruning and the heuristic on, which leaves HeuristicOff and
// DisablePruning as the unreduced reference searches over full states;
// the orbit reduction also needs a DAG of at most 64 nodes, the history
// projection runs at any size. On the symmetric families the orbit
// reduction is large: fft(3) has 16,384 automorphisms, and its R=3
// search drops from 1.27M to 28,744 expanded states. The projection
// cuts base pyramid(4) R=4 from 274,393 to 39,655.
package solve

import (
	"rbpebble/internal/dag"
	"rbpebble/internal/pebble"
)

// Solution is a solver's output: the pebbling it found and the verified
// replay result.
type Solution struct {
	Trace  *pebble.Trace
	Result pebble.Result
}

// Cost returns the solution's exact cost.
func (s Solution) Cost() pebble.Cost { return s.Result.Cost }

// Value returns the solution's cost value under its own model.
func (s Solution) Value() float64 { return s.Result.Cost.Value(s.Trace.Model) }

// Problem bundles a pebbling instance.
type Problem struct {
	G          *dag.DAG
	Model      pebble.Model
	R          int
	Convention pebble.Convention
}

// verify replays tr against the problem and panics on failure: solvers use
// it as an internal self-check so an illegal trace can never escape.
func verify(p Problem, tr *pebble.Trace) Solution {
	res, err := tr.Run(p.G)
	if err != nil {
		panic("solve: internal error: solver produced invalid trace: " + err.Error())
	}
	return Solution{Trace: tr, Result: res}
}
