// Package instcache gives pebbling instances canonical identities and
// caches their solutions behind a bounded LRU with singleflight
// deduplication, so a serving front end never solves the same instance
// twice — not even when two concurrent requests describe it with
// different node numberings.
//
// The canonical key is computed by color refinement (1-WL) over the
// DAG followed by bounded individualize-and-refine tie-breaking: within
// the search budget the resulting labeling is isomorphism-invariant, so
// relabeled copies of an instance share a cache line. Graphs above
// canonMaxN nodes skip the search and key on their exact
// representation instead (bounding key cost on the serving request
// path). Correctness never depends on either budget: the key always
// hashes the exact adjacency structure under the chosen labeling, so
// two instances with equal keys are genuinely isomorphic (up to
// SHA-256 collisions) — a budget exhaustion can only cost cache hits,
// never poison the cache.
//
// The key sits on every request's path, so the kernel avoids
// per-round allocation: refinement signatures are int32 runs in one
// reused arena, ordered lexicographically with a proper prefix first
// and the pred/succ separator above every color (the byte order of the
// big-endian string signatures earlier releases hashed, so digests and
// permutations are unchanged). The search skips branches through
// twins — nodes with identical predecessor and successor sets: such a
// branch is an automorphic image of one already explored, so within
// budget pruning it leaves digest and permutation unchanged.
//
// A cluster picks a key's node by the cheaper Route invariant, which
// leads every key, so a request behind a proxy is canonicalized once,
// at the node that owns its route.
package instcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"rbpebble/internal/dag"
	"rbpebble/internal/pebble"
)

// canonMaxN bounds the graph size that gets full canonical labeling.
// Beyond it Canonical degrades to the representation-exact key (the
// identity labeling): isomorphic relabelings of huge graphs stop
// sharing cache lines, but identical representations — the common
// retry/duplicate case — still do, and the key stays O(n + m) instead
// of the superlinear refinement search a request-path attacker could
// lean on. Within the bound, refinement runs to full stabilization
// (at most n rounds), so path-like graphs become discrete without any
// individualization.
const canonMaxN = 512

// canonBudget caps the number of individualization branches explored
// while breaking refinement ties. Within budget the labeling is
// isomorphism-invariant; beyond it the first cell member is taken,
// which is deterministic for a given input but labeling-dependent.
// Branches pruned as twins do not count against it.
const canonBudget = 128

// sigSep separates the predecessor and successor colors of a
// refinement signature; it exceeds every color (colors are <= n).
const sigSep = math.MaxInt32

// Canonical computes a canonical form of g: a digest identifying the
// graph up to isomorphism (within the size and search budgets; see the
// package comment) and the permutation perm with perm[orig] =
// canonical ID. Labels are ignored: they do not affect pebbling cost.
func Canonical(g *dag.DAG) ([sha256.Size]byte, []dag.NodeID) {
	n := g.N()
	if n == 0 {
		return sha256.Sum256(nil), nil
	}
	c := &canonizer{g: g, n: n}
	var labels []int32
	if n > canonMaxN {
		labels = iota32(n)
		c.best = c.serialize(labels, nil)
	} else {
		c.init()
		c.budget = canonBudget
		colors := make([]int32, n)
		c.search(colors, c.refine(colors, 1, iota32(n)), 0)
		labels = c.bestPerm
	}
	perm := make([]dag.NodeID, n)
	for v, l := range labels {
		perm[v] = dag.NodeID(l)
	}
	return sha256.Sum256(c.best), perm
}

// canonizer is the scratch state of one Canonical call. It is never
// shared: concurrent calls each build their own.
type canonizer struct {
	g *dag.DAG
	n int

	// adj lays out one signature template per node: adj[off[v]] = v,
	// then v's sorted predecessors, -1 (the separator slot), then its
	// sorted successors. sig is filled from it each refinement round.
	off, adj, sig []int32
	order         []int32   // node indices, sorted by color, then signature
	twin          []int32   // twin class of each node
	mark          []int32   // per twin class: the last cell scan that kept it
	touched       []int32   // per color: the last refinement round to sort it
	dirty         []int32   // refine scratch: members of classes that split
	stamp         int32     // cell scan / refinement round counter
	count         []int32   // per color counts for sortByColor and targetCell
	levels        [][]int32 // per search depth: branch colors
	cells         [][]int32 // per search depth: branch members

	budget    int
	best, ser []byte  // best serialization so far; leaf scratch
	bestPerm  []int32 // labeling that produced best
	inv, nb   []int32 // serialize scratch
}

// init builds the signature templates, the twin classes and the
// per-call buffers.
func (c *canonizer) init() {
	n := c.n
	c.off = make([]int32, n+1)
	for v := 0; v < n; v++ {
		c.off[v+1] = c.off[v] + int32(2+c.g.InDegree(dag.NodeID(v))+c.g.OutDegree(dag.NodeID(v)))
	}
	c.adj = make([]int32, 0, c.off[n])
	for v := 0; v < n; v++ {
		c.adj = append(c.adj, int32(v))
		c.adj = appendSortedIDs(c.adj, c.g.Preds(dag.NodeID(v)))
		c.adj = append(c.adj, -1)
		c.adj = appendSortedIDs(c.adj, c.g.Succs(dag.NodeID(v)))
	}
	c.sig = make([]int32, len(c.adj))
	c.order = make([]int32, n)
	c.count = make([]int32, n+2)
	c.touched = make([]int32, n+1)

	// Twins share the neighborhood part of their template (everything
	// after the node's own slot); rank the nodes by it.
	nbhd := func(v int32) []int32 { return c.adj[c.off[v]+1 : c.off[v+1]] }
	byNbhd := iota32(n)
	slices.SortFunc(byNbhd, func(a, b int32) int { return slices.Compare(nbhd(a), nbhd(b)) })
	c.twin = make([]int32, n)
	c.mark = make([]int32, n)
	class := int32(0)
	for i, v := range byNbhd {
		if i > 0 && !slices.Equal(nbhd(v), nbhd(byNbhd[i-1])) {
			class++
		}
		c.twin[v] = class
	}
}

// iota32 returns 0, 1, ..., n-1.
func iota32(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

func appendSortedIDs(buf []int32, nodes []dag.NodeID) []int32 {
	start := len(buf)
	for _, u := range nodes {
		buf = append(buf, int32(u))
	}
	slices.Sort(buf[start:])
	return buf
}

// refine runs color refinement to a stable partition, in place, given
// the number of distinct colors on entry and the nodes whose color the
// caller changed since the coloring was last stable (every node, if it
// never was); it returns the number of colors on exit. Each round
// recolors every node by its signature — own color, sorted pred
// colors, sigSep, sorted succ colors, as an int32 run in the sig arena
// — with new colors the dense ranks of the signatures in lexicographic
// order (a proper prefix first), so the result is independent of node
// numbering. Colors stay <= n < sigSep, so this order is the byte
// order of the same signatures written as big-endian uint32 colors
// with a 0xff separator byte — the encoding of earlier releases, whose
// keys (and exported caches) therefore stay valid; TestCanonicalGolden
// pins them. The class count grows strictly until stable, so at most n
// rounds run (and Canonical caps n at canonMaxN).
//
// Only signatures that can tell nodes apart are built. Signatures
// start with the node's own color, so order is kept sorted by color
// and a node alone in its color ranks by that color. And the members
// of a color class had equal signatures when it formed, so they can
// only differ now if a neighbor's class split since: each round sorts
// just the classes adjacent to the members of classes that split in
// the round before.
func (c *canonizer) refine(colors []int32, classes int, changed []int32) int {
	n := c.n
	sigOf := func(v int32) []int32 { return c.sig[c.off[v]:c.off[v+1]] }
	c.sortByColor(colors)
	dirty := append(c.dirty[:0], changed...)
	for iter := 0; iter < n; iter++ {
		c.stamp++
		for _, d := range dirty {
			for _, u := range c.adj[c.off[d]+1 : c.off[d+1]] {
				if u >= 0 {
					c.touched[colors[u]] = c.stamp
				}
			}
		}
		for i := 0; i < n; {
			j := i + 1
			for j < n && colors[c.order[j]] == colors[c.order[i]] {
				j++
			}
			if j-i >= 2 && c.touched[colors[c.order[i]]] == c.stamp {
				for _, v := range c.order[i:j] {
					c.fillSig(v, colors)
				}
				slices.SortFunc(c.order[i:j], func(a, b int32) int { return slices.Compare(sigOf(a), sigOf(b)) })
			}
			i = j
		}
		dirty = dirty[:0]
		rank, prev, start := int32(-1), int32(-1), 0
		for i, v := range c.order {
			col := colors[v]
			if col != prev {
				if i > 0 && rank != colors[c.order[start]] {
					dirty = append(dirty, c.order[start:i]...) // split
				}
				rank++
				prev, start = col, i
			} else if c.touched[col] == c.stamp && !slices.Equal(sigOf(v), sigOf(c.order[i-1])) {
				rank++
			}
			colors[v] = rank
		}
		if rank != colors[c.order[start]] {
			dirty = append(dirty, c.order[start:]...)
		}
		stable := int(rank)+1 == classes
		classes = int(rank) + 1
		if stable || classes == n {
			break
		}
	}
	c.dirty = dirty
	return classes
}

// sortByColor counting-sorts order by colors (all <= n).
func (c *canonizer) sortByColor(colors []int32) {
	start := c.count[:c.n+2]
	clear(start)
	for _, col := range colors {
		start[col+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	for v, col := range colors {
		c.order[start[col]] = int32(v)
		start[col]++
	}
}

// fillSig writes v's signature under colors into the sig arena.
func (c *canonizer) fillSig(v int32, colors []int32) {
	lo, hi := c.off[v], c.off[v+1]
	for i := lo; i < hi; i++ {
		if u := c.adj[i]; u < 0 {
			c.sig[i] = sigSep
		} else {
			c.sig[i] = colors[u]
		}
	}
	sep := lo + 1 + int32(c.g.InDegree(dag.NodeID(v)))
	slices.Sort(c.sig[lo+1 : sep])
	slices.Sort(c.sig[sep+1 : hi])
}

// search resolves refinement ties by individualize-and-refine: pick
// the smallest-color cell with >= 2 members, individualize each member
// in turn (budget permitting), refine, recurse, and keep the
// lexicographically smallest serialization over all leaves (the first
// one found on ties). Trying every member of an invariantly-chosen cell
// is what makes the result independent of the input labeling.
//
// Twins — nodes with identical predecessor and successor sets — always
// share a signature, so refinement never separates them and they meet
// in a target cell unless one was individualized. A member whose twin
// is an earlier member of the same cell is skipped, at no budget cost
// (the twins case of automorphism pruning; McKay & Piperno, "Practical
// Graph Isomorphism II"). Swapping two twins is an automorphism of the
// graph that fixes the current coloring, so it maps the skipped
// branch's search tree onto the explored one's: a pruned branch is an
// automorphic image with the same serializations, none strictly
// smaller than what the explored twin already offered. Within budget
// the key and permutation are therefore unchanged; the saved budget
// goes to branches that can differ.
//
// Branch colors live in a per-depth buffer: a node's colors stay
// intact while its children reuse the next depth's buffer in turn.
func (c *canonizer) search(colors []int32, classes, depth int) {
	for len(c.levels) <= depth+1 {
		c.levels = append(c.levels, make([]int32, c.n))
		c.cells = append(c.cells, nil)
	}
	cell := c.targetCell(colors, classes, c.cells[depth][:0])
	c.cells[depth] = cell
	if len(cell) == 0 {
		c.leaf(colors)
		return
	}
	branch := c.levels[depth+1]
	for i, v := range cell {
		if i > 0 && c.budget <= 0 {
			break // budget gone: keep only the first branch
		}
		c.budget--
		copy(branch, colors)
		branch[v] = int32(c.n) // fresh marker color, re-densified by refine
		c.search(branch, c.refine(branch, classes+1, []int32{v}), depth+1)
	}
}

// targetCell appends to buf the members, in node order and less twins
// of earlier members, of the smallest color value that still holds
// >= 2 nodes; none when the coloring is discrete. Cells are identified
// by color value, which is labeling-invariant.
func (c *canonizer) targetCell(colors []int32, classes int, buf []int32) []int32 {
	if classes == c.n {
		return buf
	}
	count := c.count[:classes]
	clear(count)
	for _, col := range colors {
		count[col]++
	}
	target := int32(slices.IndexFunc(count, func(k int32) bool { return k >= 2 }))
	c.stamp++
	for v, col := range colors {
		if col == target && c.mark[c.twin[v]] != c.stamp {
			c.mark[c.twin[v]] = c.stamp
			buf = append(buf, int32(v))
		}
	}
	return buf
}

// leaf keeps a discrete coloring's serialization if it beats the best.
func (c *canonizer) leaf(colors []int32) {
	c.ser = c.serialize(colors, c.ser[:0])
	if c.best == nil || bytes.Compare(c.ser, c.best) < 0 {
		c.best, c.ser = c.ser, c.best
		c.bestPerm = append(c.bestPerm[:0], colors...)
	}
}

// serialize appends to buf the adjacency structure under a discrete
// labeling: node count, then for each canonical node its sorted
// canonical predecessor list. The output determines the graph up to
// isomorphism.
func (c *canonizer) serialize(perm []int32, buf []byte) []byte {
	if c.inv == nil {
		c.inv = make([]int32, c.n)
	}
	for v, l := range perm {
		c.inv[l] = int32(v)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(c.n))
	for _, v := range c.inv {
		preds := c.nb[:0]
		for _, u := range c.g.Preds(dag.NodeID(v)) {
			preds = append(preds, perm[u])
		}
		slices.Sort(preds)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(preds)))
		for _, u := range preds {
			buf = binary.BigEndian.AppendUint32(buf, uint32(u))
		}
		c.nb = preds
	}
	return buf
}

// Instance is one cacheable pebbling problem.
type Instance struct {
	G          *dag.DAG
	Model      pebble.Model
	R          int
	Convention pebble.Convention
}

// Key returns the canonical cache key of the instance — its route
// token (Route, the field RouteOf reads back), then the canonical graph
// digest combined with every cost-relevant parameter — and the
// canonical permutation (perm[orig] = canonical ID) needed to translate
// traces in and out of canonical node numbering.
func (in Instance) Key() (string, []dag.NodeID) {
	digest, perm := Canonical(in.G)
	key := fmt.Sprintf("%s|%x|%s|eps%d|r%d|sb%t|bb%t",
		in.Route(), digest, in.Model.Kind, in.Model.EpsDenom, in.R,
		in.Convention.SourcesStartBlue, in.Convention.SinksMustBeBlue)
	return key, perm
}

// ToCanonical maps a move sequence from original node IDs to canonical
// ones (perm[orig] = canonical).
func ToCanonical(moves []pebble.Move, perm []dag.NodeID) []pebble.Move {
	out := make([]pebble.Move, len(moves))
	for i, m := range moves {
		out[i] = pebble.Move{Kind: m.Kind, Node: perm[m.Node]}
	}
	return out
}

// FromCanonical maps a canonical-ID move sequence back to the node IDs
// of an instance whose canonical permutation is perm.
func FromCanonical(moves []pebble.Move, perm []dag.NodeID) []pebble.Move {
	inv := make([]dag.NodeID, len(perm))
	for v, c := range perm {
		inv[c] = dag.NodeID(v)
	}
	out := make([]pebble.Move, len(moves))
	for i, m := range moves {
		out[i] = pebble.Move{Kind: m.Kind, Node: inv[m.Node]}
	}
	return out
}
