package solve

import (
	"math/bits"

	"rbpebble/internal/dag"
	"rbpebble/internal/pebble"
)

// Symmetry reduction of the exact searches. An automorphism of the DAG
// preserves sources, sinks, move legality, move costs, the goal and the
// oneshot dominance prunes, so two states related by one have the same
// optimal remaining cost: the search may store and expand one state per
// orbit of Aut(G). This file owns that single decision — a visited-table
// key is the packed state's minimal image under Aut(G) — through a
// stabilizer chain built once per engine run and a canon kernel that
// maps a packed state to its minimal image without allocating.
//
// The chain uses base 0, 1, ..., n-1: level i holds the orbit of i
// under the pointwise stabilizer G_i of 0..i-1, plus one transversal
// automorphism per orbit point, so every automorphism is a product
// t_0 ∘ t_1 ∘ ... of one transversal element per level. The transversals
// come from individualization-refinement search under a fixed work
// budget; every permutation is checked against the edge lists before
// use. A budget-cut chain is still sound — each image is taken under a
// genuine automorphism, so only merging is lost.

const (
	// orbitMaxN bounds the graphs that get a chain: one word per colour
	// class keeps every key at 3 words and every permutation step a few
	// bit operations.
	orbitMaxN = 64
	// orbitBudget caps the refinement work (splitter passes) of one chain
	// build, so a pathological graph costs a bounded setup.
	orbitBudget = 1 << 15
	// orbitMaxCands caps the deduplicated candidate set of one canon
	// call. Dropping candidates past the cap keeps every image genuine
	// (sound, deterministic), at worst splitting an orbit over two keys.
	orbitMaxCands = 64
)

// orbitChain is a stabilizer chain of Aut(G) (see the file comment).
// Only the levels with an orbit larger than one point are stored.
type orbitChain struct {
	n      int
	levels []orbitLevel
	elems  []orbitElem
	order  float64 // product of the orbit sizes: |Aut(G)| when complete
	// complete reports that the build finished inside its budget.
	complete bool
}

// orbitLevel is one non-trivial chain level.
type orbitLevel struct {
	base  int    // base point i
	orbit uint64 // orbit of i under G_i
	supp  uint64 // union of the transversal elements' supports
	first int    // elems index of the transversal element of the lowest orbit point
}

// orbitElem is one transversal automorphism t, stored for the canon
// step c ∘ t: its support and its inverse permutation.
type orbitElem struct {
	supp uint64
	inv  [orbitMaxN]uint8
}

// orbitCand is one canon candidate: a colouring as (red, blue, computed)
// words.
type orbitCand [3]uint64

// orbitScratch is the per-goroutine scratch of canon.
type orbitScratch struct {
	a, b [orbitMaxCands]orbitCand
	code [orbitMaxCands]uint8
	arg  [orbitMaxCands]uint64
	// Perm tracking (canonPerm only; nil otherwise): pa/pb[k] is
	// candidate k's product P of transversal elements (candidate =
	// source ∘ P).
	pa, pb [][orbitMaxN]uint8
}

// buildOrbitChain returns the stabilizer chain of Aut(g), or nil when g
// has more than orbitMaxN nodes or no non-trivial automorphism was
// found.
func buildOrbitChain(g *dag.DAG) *orbitChain { return buildOrbitChainWithin(g, orbitBudget) }

// buildOrbitChainWithin is buildOrbitChain under a given work budget.
func buildOrbitChainWithin(g *dag.DAG, budget int) *orbitChain {
	n := g.N()
	if n < 2 || n > orbitMaxN {
		return nil
	}
	b := &orbitBuilder{n: n, budget: budget}
	for v := 0; v < n; v++ {
		for _, w := range g.Succs(dag.NodeID(v)) {
			b.succ[v] |= 1 << uint(w)
			b.pred[w] |= 1 << uint(v)
		}
	}
	return b.build()
}

// orbitPart is an ordered partition of the nodes: cells[0..k) as masks,
// plus a hash of the refinement history, an isomorphism invariant that
// lets the search reject a mismatched branch early.
type orbitPart struct {
	k     int
	trace uint64
	cells [orbitMaxN]uint64
}

// cellOf returns the index of the cell holding v.
func (p *orbitPart) cellOf(v int) int {
	for ci := 0; ci < p.k; ci++ {
		if p.cells[ci]&(1<<uint(v)) != 0 {
			return ci
		}
	}
	return -1
}

// orbitBuilder is the scratch of one chain build.
type orbitBuilder struct {
	n          int
	budget     int
	succ, pred [orbitMaxN]uint64
	left       []orbitPart // left[i] = refine(individualize 0..i-1)
	stack      []orbitPart // right-hand search path, by depth
	depth      int         // first i with left[i] discrete
	queue      []uint64
	kv         [orbitMaxN]uint32
	gens       [][orbitMaxN]uint8 // automorphisms found so far (forward perms)
	perm       [orbitMaxN]uint8   // leaf permutation scratch
	tr         [orbitMaxN][orbitMaxN]uint8
	orb        [orbitMaxN]uint8
}

func (b *orbitBuilder) build() *orbitChain {
	n := b.n
	parts := make([]orbitPart, 2*(n+1))
	b.left, b.stack = parts[:1:n+1], parts[n+1:]
	b.queue = make([]uint64, 0, 4*n)
	all := ^uint64(0) >> uint(orbitMaxN-n)
	b.left[0].k, b.left[0].cells[0] = 1, all
	b.refine(&b.left[0], all)
	for b.depth = 0; b.left[b.depth].k < n; b.depth++ {
		next := b.left[b.depth]
		b.individualize(&next, b.depth)
		b.left = append(b.left, next)
	}

	oc := &orbitChain{n: n, order: 1}
	// Bottom-up, so the closure at level i already has every generator
	// found for the deeper stabilizers G_{i+1} ⊆ G_i.
	for i := b.depth - 1; i >= 0; i-- {
		cell := b.left[i].cells[b.left[i].cellOf(i)]
		if cell&(cell-1) == 0 {
			continue
		}
		orbit := b.closure(i)
		for rest := cell &^ orbit; rest != 0 && b.budget > 0; rest &^= orbit {
			j := bits.TrailingZeros64(rest)
			rest &^= 1 << uint(j)
			if b.search(i, j) {
				b.gens = append(b.gens, b.perm)
				orbit = b.closure(i)
			}
		}
		b.addLevel(oc, i, orbit)
	}
	if len(oc.levels) == 0 {
		return nil
	}
	oc.complete = b.budget > 0
	// Levels were found deepest first; canon walks them by ascending base.
	for l, r := 0, len(oc.levels)-1; l < r; l, r = l+1, r-1 {
		oc.levels[l], oc.levels[r] = oc.levels[r], oc.levels[l]
	}
	return oc
}

// addLevel records level i's orbit and transversal (b.tr from the last
// closure), checking every element against the edge lists. A level
// whose check fails is dropped whole: the chain stays sound.
func (b *orbitBuilder) addLevel(oc *orbitChain, i int, orbit uint64) {
	if orbit&(orbit-1) == 0 {
		return
	}
	first := len(oc.elems)
	var supp uint64
	for w := orbit; w != 0; w &= w - 1 {
		j := bits.TrailingZeros64(w)
		t := &b.tr[j]
		if t[i] != uint8(j) || !b.isAut(t) {
			oc.elems = oc.elems[:first]
			return
		}
		var e orbitElem
		for v := 0; v < b.n; v++ {
			e.inv[t[v]] = uint8(v)
			if int(t[v]) != v {
				e.supp |= 1 << uint(v)
			}
		}
		oc.elems = append(oc.elems, e)
		supp |= e.supp
	}
	oc.levels = append(oc.levels, orbitLevel{base: i, orbit: orbit, supp: supp, first: first})
	oc.order *= float64(bits.OnesCount64(orbit))
}

// closure returns the orbit of i under the generators found so far
// (all of which fix 0..i-1) and leaves in b.tr[j] a product of
// generators mapping i to j, for every orbit point j.
func (b *orbitBuilder) closure(i int) uint64 {
	for v := 0; v < b.n; v++ {
		b.tr[i][v] = uint8(v)
	}
	orbit := uint64(1) << uint(i)
	b.orb[0] = uint8(i)
	for head, tail := 0, 1; head < tail; head++ {
		k := b.orb[head]
		for gi := range b.gens {
			s := &b.gens[gi]
			j := s[k]
			if orbit&(1<<j) != 0 {
				continue
			}
			orbit |= 1 << j
			b.orb[tail] = j
			tail++
			for v := 0; v < b.n; v++ {
				b.tr[j][v] = s[b.tr[k][v]]
			}
		}
	}
	return orbit
}

// isAut reports whether the permutation t maps the edge set onto itself.
func (b *orbitBuilder) isAut(t *[orbitMaxN]uint8) bool {
	for v := 0; v < b.n; v++ {
		var img uint64
		for w := b.succ[v]; w != 0; w &= w - 1 {
			img |= 1 << t[bits.TrailingZeros64(w)]
		}
		if img != b.succ[t[v]] {
			return false
		}
	}
	return true
}

// search looks for an automorphism fixing 0..i-1 and mapping i to j: it
// individualizes j where the left path individualized i, then follows
// the left path's individualizations, backtracking over the matching
// cell on the right. A hit is left in b.perm.
func (b *orbitBuilder) search(i, j int) bool {
	r := &b.stack[0]
	*r = b.left[i]
	b.individualize(r, j)
	if !b.matches(r, &b.left[i+1]) {
		return false
	}
	return b.descend(i, j, i+1, 0)
}

// descend extends a right-hand path whose partition b.stack[d] matches
// b.left[t].
func (b *orbitBuilder) descend(i, j, t, d int) bool {
	for t < b.depth && b.left[t].k == b.left[t+1].k {
		t++ // t was already a singleton: the left path did not branch
	}
	cur := &b.stack[d]
	if t == b.depth {
		leaf := &b.left[b.depth]
		for ci := 0; ci < b.n; ci++ {
			b.perm[bits.TrailingZeros64(leaf.cells[ci])] = uint8(bits.TrailingZeros64(cur.cells[ci]))
		}
		for v := 0; v < i; v++ {
			if b.perm[v] != uint8(v) {
				return false
			}
		}
		return b.perm[i] == uint8(j) && b.isAut(&b.perm)
	}
	cell := cur.cells[b.left[t].cellOf(t)]
	for ; cell != 0 && b.budget > 0; cell &= cell - 1 {
		next := &b.stack[d+1]
		*next = *cur
		b.individualize(next, bits.TrailingZeros64(cell))
		if b.matches(next, &b.left[t+1]) && b.descend(i, j, t+1, d+1) {
			return true
		}
	}
	return false
}

// matches reports whether two refined partitions have the same shape:
// cell sizes in order and refinement history.
func (b *orbitBuilder) matches(p, q *orbitPart) bool {
	if p.k != q.k || p.trace != q.trace {
		return false
	}
	for ci := 0; ci < p.k; ci++ {
		if bits.OnesCount64(p.cells[ci]) != bits.OnesCount64(q.cells[ci]) {
			return false
		}
	}
	return true
}

// individualize splits v off its cell (as the cell's first part) and
// refines.
func (b *orbitBuilder) individualize(p *orbitPart, v int) {
	ci := p.cellOf(v)
	y := p.cells[ci]
	if y&(y-1) == 0 {
		return
	}
	copy(p.cells[ci+2:p.k+1], p.cells[ci+1:p.k])
	p.cells[ci], p.cells[ci+1] = 1<<uint(v), y&^(1<<uint(v))
	p.k++
	p.trace = orbitMix(p.trace ^ uint64(ci)<<40 ^ 1)
	b.refine(p, 1<<uint(v))
}

// refine refines p to the coarsest equitable partition finer than it,
// starting from splitter seed: every cell is split by the number of
// successors and of predecessors each node has in a splitter, and the
// parts replace it in place, ordered by that count. Positions and counts
// are isomorphism invariants, so isomorphic inputs refine in lockstep.
func (b *orbitBuilder) refine(p *orbitPart, seed uint64) {
	b.queue = append(b.queue[:0], seed)
	for qi := 0; qi < len(b.queue) && p.k < b.n; qi++ {
		b.budget--
		x := b.queue[qi]
		for ci := 0; ci < p.k; ci++ {
			y := p.cells[ci]
			if y&(y-1) == 0 {
				continue
			}
			cnt, split := 0, false
			for w := y; w != 0; w &= w - 1 {
				v := bits.TrailingZeros64(w)
				key := uint32(bits.OnesCount64(b.succ[v]&x))<<7 | uint32(bits.OnesCount64(b.pred[v]&x))
				b.kv[cnt] = key<<6 | uint32(v)
				if cnt > 0 && key != b.kv[0]>>6 {
					split = true
				}
				cnt++
			}
			if !split {
				continue
			}
			kv := b.kv[:cnt]
			for a := 1; a < cnt; a++ { // insertion sort: cells are small
				for c := a; c > 0 && kv[c] < kv[c-1]; c-- {
					kv[c], kv[c-1] = kv[c-1], kv[c]
				}
			}
			parts := 1
			for a := 1; a < cnt; a++ {
				if kv[a]>>6 != kv[a-1]>>6 {
					parts++
				}
			}
			copy(p.cells[ci+parts:p.k+parts-1], p.cells[ci+1:p.k])
			p.k += parts - 1
			at := ci
			p.cells[at] = 0
			for a := 0; a < cnt; a++ {
				if a > 0 && kv[a]>>6 != kv[a-1]>>6 {
					p.trace = orbitMix(p.trace ^ uint64(at)<<40 ^ uint64(kv[a-1]>>6)<<8 ^ uint64(bits.OnesCount64(p.cells[at])))
					b.queue = append(b.queue, p.cells[at])
					at++
					p.cells[at] = 0
				}
				p.cells[at] |= 1 << (kv[a] & 63)
			}
			p.trace = orbitMix(p.trace ^ uint64(at)<<40 ^ uint64(kv[cnt-1]>>6)<<8 ^ uint64(bits.OnesCount64(p.cells[at])))
			b.queue = append(b.queue, p.cells[at])
			ci = at
		}
	}
}

// orbitMix is a splitmix64 finalizer.
func orbitMix(h uint64) uint64 {
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// canon appends the minimal image of the 3-word packed state src to
// dst: the lexicographically smallest per-node colour sequence
// (red, blue, computed) over every product of transversal elements. It
// walks the chain level by level, keeping the deduplicated candidates
// that tie on the prefix so far, and allocates nothing.
func (oc *orbitChain) canon(s *orbitScratch, dst, src []uint64) []uint64 {
	c, _ := oc.image(s, src)
	return append(dst, c[0], c[1], c[2])
}

// image runs the chain walk and returns the minimal image, plus its
// product of transversal elements when s tracks permutations.
func (oc *orbitChain) image(s *orbitScratch, src []uint64) (orbitCand, *[orbitMaxN]uint8) {
	cur, next := s.a[:], s.b[:]
	pcur, pnext := s.pa, s.pb
	nc := 1
	cur[0] = orbitCand{src[0], src[1], src[2]}
	if pcur != nil {
		for v := range pcur[0] {
			pcur[0][v] = uint8(v)
		}
	}
	lo := 0 // every candidate agrees on positions below lo
	for li := range oc.levels {
		lv := &oc.levels[li]
		if nc == 1 && (cur[0][0]|cur[0][1]|cur[0][2])&lv.supp == 0 {
			continue // the level only moves uncoloured nodes: c is its own image
		}
		if nc > 1 {
			nc = keepMin(cur[:nc], pcur, orbitRange(lo, lv.base))
		}
		// Position lv.base takes the smallest colour any candidate shows
		// on the orbit; arg[k] is where candidate k shows it.
		best := uint8(8)
		for k := 0; k < nc; k++ {
			s.arg[k], s.code[k] = orbitArgMin(&cur[k], lv.orbit)
			best = min(best, s.code[k])
		}
		nn := 0
		for k := 0; k < nc; k++ {
			if s.code[k] != best {
				continue
			}
			for w := s.arg[k]; w != 0 && nn < orbitMaxCands; w &= w - 1 {
				j := bits.TrailingZeros64(w)
				var img orbitCand
				if j == lv.base {
					img = cur[k]
				} else {
					e := &oc.elems[lv.first+bits.OnesCount64(lv.orbit&(1<<uint(j)-1))]
					if (cur[k][0]|cur[k][1]|cur[k][2])&e.supp == 0 {
						// t only moves uncoloured nodes: the image is cur[k],
						// already added for j = base (the lowest orbit point).
						continue
					}
					img = orbitCand{e.apply(cur[k][0]), e.apply(cur[k][1]), e.apply(cur[k][2])}
				}
				dup := false
				for q := 0; q < nn; q++ {
					if next[q] == img {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				next[nn] = img
				if pnext != nil {
					oc.composeInto(&pnext[nn], &pcur[k], lv, j)
				}
				nn++
			}
		}
		cur, next, nc = next, cur, nn
		pcur, pnext = pnext, pcur
		lo = lv.base + 1
	}
	k := 0
	if nc > 1 {
		k = minIndex(cur[:nc], orbitRange(lo, oc.n))
	}
	if pcur == nil {
		return cur[k], nil
	}
	return cur[k], &pcur[k]
}

// apply returns word w recoloured by the step c ∘ t: bit v of the
// result is bit t(v) of w.
func (e *orbitElem) apply(w uint64) uint64 {
	out := w &^ e.supp
	for m := w & e.supp; m != 0; m &= m - 1 {
		out |= 1 << e.inv[bits.TrailingZeros64(m)]
	}
	return out
}

// orbitRange is the mask of positions lo..hi-1.
func orbitRange(lo, hi int) uint64 {
	if hi <= lo {
		return 0
	}
	return (^uint64(0) >> uint(64-(hi-lo))) << uint(lo)
}

// orbitArgMin returns the positions of orbit mask m where c shows its
// smallest colour code (red<<2 | blue<<1 | computed), and that code.
func orbitArgMin(c *orbitCand, m uint64) (uint64, uint8) {
	var code uint8
	for bit := 0; bit < 3; bit++ {
		code <<= 1
		if s := m &^ c[bit]; s != 0 {
			m = s
		} else {
			code |= 1
		}
	}
	return m, code
}

// orbitLess reports whether a's colour sequence is smaller than b's on
// the positions in mask r.
func orbitLess(a, b *orbitCand, r uint64) bool {
	d := ((a[0] ^ b[0]) | (a[1] ^ b[1]) | (a[2] ^ b[2])) & r
	if d == 0 {
		return false
	}
	p := d & -d
	for bit := 0; bit < 3; bit++ {
		if (a[bit]^b[bit])&p != 0 {
			return a[bit]&p == 0
		}
	}
	return false
}

// minIndex returns the index of the smallest candidate on mask r.
func minIndex(cs []orbitCand, r uint64) int {
	m := 0
	for k := 1; k < len(cs); k++ {
		if orbitLess(&cs[k], &cs[m], r) {
			m = k
		}
	}
	return m
}

// keepMin compacts cs (and the tracked perms ps, when non-nil) to the
// candidates that are smallest on mask r, returning how many remain.
func keepMin(cs []orbitCand, ps [][orbitMaxN]uint8, r uint64) int {
	m := minIndex(cs, r)
	mc := cs[m]
	nn := 0
	for k := range cs {
		if orbitLess(&mc, &cs[k], r) {
			continue
		}
		cs[nn] = cs[k]
		if ps != nil {
			ps[nn] = ps[k]
		}
		nn++
	}
	return nn
}

// composeInto sets dst = p ∘ t for level lv's transversal element t
// mapping lv.base to j (perm tracking only).
func (oc *orbitChain) composeInto(dst, p *[orbitMaxN]uint8, lv *orbitLevel, j int) {
	if j == lv.base {
		*dst = *p
		return
	}
	e := &oc.elems[lv.first+bits.OnesCount64(lv.orbit&(1<<uint(j)-1))]
	var t [orbitMaxN]uint8
	for v := 0; v < oc.n; v++ {
		t[e.inv[v]] = uint8(v)
	}
	for v := 0; v < oc.n; v++ {
		dst[v] = p[t[v]]
	}
}

// newTrackScratch returns canon scratch that also tracks each
// candidate's permutation, for canonPerm.
func newTrackScratch() *orbitScratch {
	return &orbitScratch{pa: make([][orbitMaxN]uint8, orbitMaxCands), pb: make([][orbitMaxN]uint8, orbitMaxCands)}
}

// canonPerm returns the minimal image of src and writes to g the
// automorphism carrying src onto it (node v of src sits at g[v] in the
// image). s must come from newTrackScratch; unfold and the tests use
// it, the searches never do.
func (oc *orbitChain) canonPerm(s *orbitScratch, src []uint64, g []int) orbitCand {
	c, p := oc.image(s, src)
	// The image is src ∘ P, so g = P^{-1}.
	for v := 0; v < oc.n; v++ {
		g[p[v]] = v
	}
	return c
}

// unfold maps a move chain found over orbit representatives back to
// real node IDs. moves[i] was generated on the representative reached
// after moves[:i], so replaying the chain recomputes each step's
// automorphism: tau carries the real state onto the current
// representative, and each move is pulled back through it. keys[i] is
// the stored key the i-th step must reproduce; a mismatch is an
// internal error. Without a chain the moves are real already.
func (oc *orbitChain) unfold(p Problem, moves []pebble.Move, keys []pebble.PackedKey) []pebble.Move {
	if oc == nil {
		return moves
	}
	rep, err := pebble.NewState(p.G, p.Model, p.R, p.Convention)
	if err != nil {
		panic("solve: unfold: " + err.Error())
	}
	s := newTrackScratch()
	tau, pi, inv := make([]int, oc.n), make([]int, oc.n), make([]int, oc.n)
	key := rep.AppendPacked(nil)
	r := oc.canonPerm(s, key, tau)
	out := make([]pebble.Move, len(moves))
	for i, m := range moves {
		for v, w := range tau {
			inv[w] = v
		}
		out[i] = pebble.Move{Kind: m.Kind, Node: dag.NodeID(inv[m.Node])}
		rep.RestorePacked(r[:])
		if err := rep.Apply(m); err != nil {
			panic("solve: unfold: stored move is illegal on its representative: " + err.Error())
		}
		key = rep.AppendPacked(key[:0])
		if r = oc.canonPerm(s, key, pi); !orbitKeyEqual(r[:], keys[i]) {
			panic("solve: unfold: replayed step does not reproduce its stored key")
		}
		for v := range tau {
			tau[v] = pi[tau[v]]
		}
	}
	return out
}

func orbitKeyEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
