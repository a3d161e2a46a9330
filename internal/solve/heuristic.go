package solve

import (
	"sort"

	"rbpebble/internal/bitset"
	"rbpebble/internal/dag"
	"rbpebble/internal/pebble"
)

// Heuristic selects the A* lower bound used by Exact.
type Heuristic int

const (
	// HeuristicAuto (the zero value) enables the strongest admissible
	// model-aware lower bound; it behaves exactly like
	// HeuristicSPartition.
	HeuristicAuto Heuristic = iota
	// HeuristicOff disables the lower bound entirely: Exact degenerates
	// to plain uniform-cost search (Dijkstra) over single states, the
	// original behavior — no dead-pebble quotient, no symmetry
	// reduction. Useful for ablations and as the reference in
	// admissibility and symmetry-reduction tests.
	HeuristicOff
	// HeuristicLowerBound is the single-certificate lower bound
	// (mustCompute closure + forced transfers + the best one capacity
	// certificate). Kept as the ablation reference for the S-partition
	// packing bound.
	HeuristicLowerBound
	// HeuristicSPartition strengthens HeuristicLowerBound with a
	// Hong-Kung-style S-partition term: instead of the single best
	// capacity certificate it packs certificates with disjoint live
	// shells and sums their forced transfers (see spartition.go).
	HeuristicSPartition
)

// String names the heuristic mode.
func (h Heuristic) String() string {
	switch h {
	case HeuristicAuto:
		return "auto"
	case HeuristicOff:
		return "off"
	case HeuristicLowerBound:
		return "lower-bound"
	case HeuristicSPartition:
		return "s-partition"
	default:
		return "Heuristic(?)"
	}
}

// lowerBound computes an admissible, model-aware lower bound on the
// remaining cost of a pebbling position. It never overestimates in any
// of the four models, which makes A* return exactly the Dijkstra
// optimum while expanding far fewer states.
//
// The bound counts, per remaining completion:
//
//   - mustCompute: pebble-free nodes reachable backward from an
//     unsatisfied sink through pebble-free nodes. Each must receive at
//     least one Compute (a pebble can only appear on a bare node via
//     Compute, and its bare predecessors must in turn be computed to be
//     red at that moment). Charged ε each under compcost, 0 elsewhere.
//   - forced loads: blue predecessors of mustCompute nodes that can
//     never be recomputed — every blue node in oneshot (already
//     computed, or an initial source that is not computable), and blue
//     sources under SourcesStartBlue in every model. Each needs one
//     Load (cost 1). Distinct nodes, so the counts add.
//   - forced stores: under SinksMustBeBlue, every sink not currently
//     blue needs at least one Store (cost 1). Blue pebbles only arise
//     from Store, and these are on distinct, non-blue nodes, disjoint
//     from the forced-load set.
//
// estimate also detects dead positions — a mustCompute node that was
// already computed in oneshot, or a bare needed source under
// SourcesStartBlue — from which no completion exists at any cost.
type lowerBound struct {
	p        Problem
	enabled  bool
	spart    bool // S-partition packing over disjoint certificates (vs. single best)
	oneshot  bool
	scale    int64 // scaled cost of one transfer (EpsDenom under compcost, else 1)
	compCost int64 // scaled cost of one compute (1 under compcost, else 0)
	sinks    []dag.NodeID

	mustCompute *bitset.Set
	counted     *bitset.Set // blue nodes already counted as forced loads
	stack       []int32
	cands       []capCandidate
	pairs       []pairConstraint

	// S-partition scratch (see spartition.go): the charged-value set of
	// the packing pass.
	charged *bitset.Set

	// Arrival-term tables (see spartition.go): fullMaxIn[v] >= 0 marks v
	// as a full event (indeg = R-1) and holds the largest static
	// neighborhood overlap |N[v] ∩ N[u]| over all other full events u;
	// arrUnion is the event-neighborhood scratch set.
	fullMaxIn []int32
	arrUnion  *bitset.Set
}

// capMaxN bounds the graph size for which the capacity-term candidates
// are precomputed (the precomputation builds per-node ancestor and
// descendant masks, quadratic in n/64 words).
const capMaxN = 512

// capUse is one potentially-live value u evaluated against a capacity
// candidate w: anc records whether u is a strict ancestor of w, and
// useMask holds u's successors inside desc(w) (statically restricted to
// the initially-needed set).
type capUse struct {
	u       int32
	anc     bool
	useMask *bitset.Set
}

// capCandidate is one precomputed compute event w for the capacity term:
// slots = R - indeg(w) - 1 is the number of red slots not taken by
// preds(w) and w at the moment w is computed, and shell lists the values
// that can compete for them.
type capCandidate struct {
	w     dag.NodeID
	slots int
	shell []capUse
}

func newLowerBound(p Problem, mode Heuristic, start *pebble.State) *lowerBound {
	lb := &lowerBound{
		p:       p,
		enabled: mode != HeuristicOff,
		spart:   mode == HeuristicAuto || mode == HeuristicSPartition,
		oneshot: p.Model.Kind == pebble.Oneshot,
		scale:   1,
		sinks:   p.G.Sinks(),
	}
	if p.Model.Kind == pebble.CompCost {
		lb.scale = int64(p.Model.EpsDenom)
		lb.compCost = 1
	}
	if lb.enabled {
		lb.mustCompute = bitset.New(p.G.N())
		lb.counted = bitset.New(p.G.N())
		lb.buildCapCandidates(start)
		if lb.spart {
			lb.charged = bitset.New(p.G.N())
		}
	}
	return lb
}

// cloneScratch returns a lowerBound sharing the immutable tables
// (capacity candidates, sink list, parameters) with private scratch
// sets, so parallel workers skip the quadratic candidate precompute.
func (lb *lowerBound) cloneScratch() *lowerBound {
	c := *lb
	if lb.enabled {
		c.mustCompute = bitset.New(lb.p.G.N())
		c.counted = bitset.New(lb.p.G.N())
		c.stack = nil
		if lb.spart {
			c.charged = bitset.New(lb.p.G.N())
		}
		if lb.arrUnion != nil {
			c.arrUnion = bitset.New(lb.p.G.N())
		}
	}
	return &c
}

// estimate returns an admissible lower bound (in scaled cost units) on
// the remaining cost from st, plus a dead flag reporting that st cannot
// be completed at all. With the heuristic off it returns (0, false),
// keeping the search byte-for-byte Dijkstra.
func (lb *lowerBound) estimate(st *pebble.State) (int64, bool) {
	if !lb.enabled {
		return 0, false
	}
	g := lb.p.G
	conv := lb.p.Convention
	var ht, hc int64 // transfer and compute components
	lb.mustCompute.Reset()
	lb.counted.Reset()
	lb.stack = lb.stack[:0]
	for _, s := range lb.sinks {
		if conv.SinksMustBeBlue {
			if st.IsBlue(s) {
				continue
			}
			ht += lb.scale // one Store onto s is still needed
		} else if st.HasPebble(s) {
			continue
		}
		if !st.HasPebble(s) && !lb.mustCompute.Get(int(s)) {
			lb.mustCompute.Set(int(s))
			lb.stack = append(lb.stack, int32(s))
		}
	}
	for len(lb.stack) > 0 {
		v := dag.NodeID(lb.stack[len(lb.stack)-1])
		lb.stack = lb.stack[:len(lb.stack)-1]
		// v is bare (no pebble) and must be computed at least once more.
		if lb.oneshot && st.WasComputed(v) {
			return 0, true // recompute forbidden: unwinnable
		}
		if conv.SourcesStartBlue && g.IsSource(v) {
			return 0, true // sources are not computable: unwinnable
		}
		hc += lb.compCost
		for _, u := range g.Preds(v) {
			ui := int(u)
			if st.IsRed(u) {
				continue
			}
			if st.IsBlue(u) {
				if lb.loadForced(u) && !lb.counted.Get(ui) {
					lb.counted.Set(ui)
					ht += lb.scale
				}
				continue
			}
			if !lb.mustCompute.Get(ui) {
				lb.mustCompute.Set(ui)
				lb.stack = append(lb.stack, int32(u))
			}
		}
	}
	if lb.spart {
		ht += lb.spartitionTerm(st)
		// The arrival term counts transfers globally, overlapping the
		// per-node terms above, so the two combine by max, not sum.
		if ta := lb.arrivalTerm(st); ta > ht {
			ht = ta
		}
	} else {
		ht += lb.capacityTerm(st)
	}
	return hc + ht, false
}

// capacityTerm adds the oneshot capacity bound: pick the still-pending
// compute event w whose forced-live values overflow the spare red slots
// the most. At the moment w is computed, preds(w) and w occupy
// indeg(w)+1 of the R red slots. Every value that must exist before that
// moment (already computed or held, or an uncomputed ancestor of w) and
// must be consumed after it (it has a successor that must be computed
// and lies strictly below^W above w in the DAG, hence after w) is either
// in one of the slots = R-indeg(w)-1 spare red slots or blue at that
// moment. In oneshot a value cannot be recreated, so each overflow value
// that is not blue already needs one future Store (to get blue by then)
// and one future Load (to get red again for its later consumer): 2
// transfers, on nodes disjoint from every other term of the bound.
func (lb *lowerBound) capacityTerm(st *pebble.State) int64 {
	if len(lb.cands) == 0 {
		return 0
	}
	best := 0
	for ci := range lb.cands {
		cd := &lb.cands[ci]
		if !lb.mustCompute.Get(int(cd.w)) {
			continue // w already computed (or not needed): event is gone
		}
		fl, curBlue := 0, 0
		for i := range cd.shell {
			cu := &cd.shell[i]
			if !lb.liveUse(st, cu) {
				continue
			}
			fl++
			if st.IsBlue(dag.NodeID(cu.u)) {
				curBlue++ // may sit blue through the event for free
			}
		}
		if b := fl - cd.slots - curBlue; b > best {
			best = b
		}
	}
	return 2 * lb.scale * int64(best)
}

// liveUse reports whether shell value cu is live for its candidate event
// in state st: the value must exist before the event's compute — it
// holds a pebble now, was computed already, or is an uncomputed ancestor
// of the event that must be computed before it — and must be consumed
// after the event (it has an uncomputed successor inside the event's
// descendant cone).
func (lb *lowerBound) liveUse(st *pebble.State, cu *capUse) bool {
	u := dag.NodeID(cu.u)
	if !(st.HasPebble(u) || st.WasComputed(u) ||
		(cu.anc && lb.mustCompute.Get(int(cu.u)))) {
		return false
	}
	return cu.useMask.Intersects(lb.mustCompute)
}

// buildCapCandidates precomputes the capacity-term candidates for the
// oneshot model on small graphs: per-node ancestor/descendant masks,
// then for each needed node w the shell of values adjacent to its
// descendant cone, keeping the candidates with the highest overflow
// potential.
func (lb *lowerBound) buildCapCandidates(start *pebble.State) {
	g := lb.p.G
	n := g.N()
	if !lb.oneshot || n == 0 || n > capMaxN {
		return
	}
	if lb.spart {
		lb.buildArrivalTables()
	}
	// needed0: nodes bare at the start that must be computed (the
	// initial mustCompute). Future mustCompute sets only shrink toward
	// subsets of it in oneshot, so restricting use masks to needed0
	// never overcounts.
	if _, dead := lb.estimate(start); dead {
		return
	}
	needed0 := lb.mustCompute.Clone()

	reach := pebble.NewReach(g)
	if reach == nil {
		return
	}

	isPred := make([]bool, n)
	type scored struct {
		cand  capCandidate
		score int
	}
	var all []scored
	// The per-shell use masks persist in the candidates for the whole
	// search; carving them from an arena costs one allocation per slab
	// chunk instead of two per mask.
	arena := bitset.NewArena(n)
	seen := bitset.New(n)
	for wi := 0; wi < n; wi++ {
		if !needed0.Get(wi) {
			continue
		}
		w := dag.NodeID(wi)
		slots := lb.p.R - g.InDegree(w) - 1
		for _, u := range g.Preds(w) {
			isPred[u] = true
		}
		var shell []capUse
		seen.Reset()
		desc := reach.Desc(w)
		desc.ForEach(func(x int) bool {
			if !needed0.Get(x) {
				return true
			}
			for _, u := range g.Preds(dag.NodeID(x)) {
				ui := int(u)
				if ui == wi || isPred[ui] || seen.Get(ui) {
					continue
				}
				seen.Set(ui)
				use := arena.New()
				for _, s := range g.Succs(u) {
					if needed0.Get(int(s)) && desc.Get(int(s)) {
						use.Set(int(s))
					}
				}
				shell = append(shell, capUse{u: int32(ui), anc: reach.Anc(w).Get(ui), useMask: use})
			}
			return true
		})
		for _, u := range g.Preds(w) {
			isPred[u] = false
		}
		if score := len(shell) - slots; score > 0 {
			all = append(all, scored{capCandidate{w: w, slots: slots, shell: shell}, score})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].cand.w < all[j].cand.w
	})
	// Both tiers keep the same candidate budget: the packing pass walks
	// every certificate per estimate, so a wider pool buys little bound
	// and costs the hot path (the S-partition tier's strength on the
	// R = Δ+1 instances comes from the pair and arrival certificates).
	const maxCands = 16
	for i := 0; i < len(all) && i < maxCands; i++ {
		lb.cands = append(lb.cands, all[i].cand)
	}
	if lb.spart {
		lb.buildPairConstraints(needed0)
	}
}

// loadForced reports whether blue node u can only return to red via a
// Load. In oneshot every blue node qualifies: it either was computed
// already (recompute banned) or is an initial blue source under
// SourcesStartBlue (sources not computable). In the other models only
// the latter case forces a Load — a blue node could otherwise be
// recomputed for free.
func (lb *lowerBound) loadForced(u dag.NodeID) bool {
	if lb.oneshot {
		return true
	}
	return lb.p.Convention.SourcesStartBlue && lb.p.G.IsSource(u)
}
