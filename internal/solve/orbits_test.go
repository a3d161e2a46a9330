package solve

import (
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"rbpebble/internal/dag"
	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
)

// relabeledDAG returns g with node v renamed perm[v].
func relabeledDAG(g *dag.DAG, perm []int) *dag.DAG {
	h := dag.New(g.N())
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Succs(dag.NodeID(v)) {
			h.AddEdge(dag.NodeID(perm[v]), dag.NodeID(perm[w]))
		}
	}
	return h
}

// disjointUnion returns a followed by a copy of b.
func disjointUnion(a, b *dag.DAG) *dag.DAG {
	g := dag.New(a.N() + b.N())
	for v := 0; v < a.N(); v++ {
		for _, w := range a.Succs(dag.NodeID(v)) {
			g.AddEdge(dag.NodeID(v), w)
		}
	}
	for v := 0; v < b.N(); v++ {
		for _, w := range b.Succs(dag.NodeID(v)) {
			g.AddEdge(dag.NodeID(a.N()+v), dag.NodeID(a.N())+w)
		}
	}
	return g
}

// bruteAutCount counts the automorphisms of g by plain backtracking:
// nodes are mapped in index order, and a partial map survives only while
// it preserves degrees and every edge among the mapped nodes. It shares
// nothing with the chain builder.
func bruteAutCount(g *dag.DAG) int {
	n := g.N()
	img := make([]int, n)
	used := make([]bool, n)
	var rec func(v int) int
	rec = func(v int) int {
		if v == n {
			return 1
		}
		total := 0
		for w := 0; w < n; w++ {
			if used[w] || g.InDegree(dag.NodeID(w)) != g.InDegree(dag.NodeID(v)) ||
				g.OutDegree(dag.NodeID(w)) != g.OutDegree(dag.NodeID(v)) {
				continue
			}
			ok := true
			for u := 0; u < v && ok; u++ {
				ok = g.HasEdge(dag.NodeID(u), dag.NodeID(v)) == g.HasEdge(dag.NodeID(img[u]), dag.NodeID(w)) &&
					g.HasEdge(dag.NodeID(v), dag.NodeID(u)) == g.HasEdge(dag.NodeID(w), dag.NodeID(img[u]))
			}
			if !ok {
				continue
			}
			img[v], used[w] = w, true
			total += rec(v + 1)
			used[w] = false
		}
		return total
	}
	return rec(0)
}

type orbitGraph struct {
	name string
	g    *dag.DAG
	aut  int // |Aut(G)|
}

// orbitGraphs are the DAGs of the repo benchmark's exact-cold corpus
// (perfbench, with its warm-up pyramid(8)) plus a disconnected one, with
// their automorphism group orders.
func orbitGraphs() []orbitGraph {
	return []orbitGraph{
		{"fft3", daggen.FFT(3), 16384},
		{"fft2", daggen.FFT(2), 64},
		{"matmul2", daggen.MatMul(2), 16},
		{"pyramid4", daggen.Pyramid(4), 2},
		{"pyramid5", daggen.Pyramid(5), 2},
		{"pyramid6", daggen.Pyramid(6), 2},
		{"pyramid8", daggen.Pyramid(8), 2},
		{"grid44", daggen.Grid(4, 4), 2},
		{"grid55", daggen.Grid(5, 5), 2},
		{"stencil6x4", daggen.Stencil1D(6, 4), 2},
		{"2xpyramid3", disjointUnion(daggen.Pyramid(3), daggen.Pyramid(3)), 8},
	}
}

// TestOrbitChainOrder: the chain's order equals the brute-force
// automorphism count, on the original numbering and under relabelings,
// and the build finishes inside its work budget.
func TestOrbitChainOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range orbitGraphs() {
		if got := bruteAutCount(tc.g); got != tc.aut {
			t.Fatalf("%s: brute-force |Aut| = %d, want %d", tc.name, got, tc.aut)
		}
		for rep := 0; rep < 4; rep++ {
			g := tc.g
			if rep > 0 {
				g = relabeledDAG(tc.g, rng.Perm(tc.g.N()))
			}
			oc := buildOrbitChain(g)
			if oc == nil {
				t.Fatalf("%s relabeling %d: no chain", tc.name, rep)
			}
			if !oc.complete || oc.order != float64(tc.aut) {
				t.Errorf("%s relabeling %d: chain order %v (complete %t), want %d", tc.name, rep, oc.order, oc.complete, tc.aut)
			}
		}
	}
}

// TestOrbitChainGate: asymmetric and oversized graphs get no chain.
func TestOrbitChainGate(t *testing.T) {
	if oc := buildOrbitChain(daggen.Chain(10)); oc != nil {
		t.Errorf("chain(10) has a trivial group, got order %v", oc.order)
	}
	if oc := buildOrbitChain(daggen.Pyramid(10)); oc != nil {
		t.Errorf("pyramid(10) has %d > %d nodes, got a chain", daggen.Pyramid(10).N(), orbitMaxN)
	}
}

// TestOrbitBuildBounded: a relabeled binary tree(6) — 63 nodes, a group
// of order 2^31 — is the builder's stress case; the build must stay
// inside its work budget and return a sound (possibly partial) chain.
func TestOrbitBuildBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := relabeledDAG(daggen.BinaryTree(6), rng.Perm(63))
	start := time.Now()
	oc := buildOrbitChain(g)
	t.Logf("tree(6): build %v, order %v, complete %t", time.Since(start), oc.order, oc.complete)
	if oc == nil || oc.order < 2 {
		t.Fatal("tree(6): no symmetry found")
	}
	checkChainElems(t, g, oc)
}

// TestOrbitBudgetCut: a chain cut short by its work budget keeps only
// genuine automorphisms, so its images stay sound even where they stop
// being canonical.
func TestOrbitBudgetCut(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, g := range []*dag.DAG{daggen.BinaryTree(6), daggen.FFT(3)} {
		g = relabeledDAG(g, rng.Perm(g.N()))
		for _, budget := range []int{1, 4, 16, 64, 256} {
			oc := buildOrbitChainWithin(g, budget)
			if oc == nil {
				continue
			}
			if oc.complete && budget < 16 {
				t.Errorf("budget %d: chain of order %v claims to be complete", budget, oc.order)
			}
			checkChainElems(t, g, oc)
			for trial := 0; trial < 10; trial++ {
				x := randomState(g, rng, rng.Intn(3*g.N()))
				perm := make([]int, oc.n)
				img := oc.canonPerm(newTrackScratch(), x, perm)
				if !isAutomorphism(g, perm) || !orbitKeyEqual(permuteKey(x, perm), img[:]) {
					t.Fatalf("budget %d: image not reached by an automorphism", budget)
				}
			}
		}
	}
}

// checkChainElems asserts every stored transversal element is an
// automorphism mapping its level's base point into the orbit.
func checkChainElems(t *testing.T, g *dag.DAG, oc *orbitChain) {
	t.Helper()
	for _, lv := range oc.levels {
		for w, rank := lv.orbit, 0; w != 0; w, rank = w&(w-1), rank+1 {
			j := bits.TrailingZeros64(w)
			fwd := elemPerm(oc, &oc.elems[lv.first+rank])
			if fwd[lv.base] != j || !isAutomorphism(g, fwd) {
				t.Fatalf("level %d point %d: element is not an automorphism mapping %d to %d", lv.base, j, lv.base, j)
			}
		}
	}
}

// elemPerm returns an element's forward permutation.
func elemPerm(oc *orbitChain, e *orbitElem) []int {
	p := make([]int, oc.n)
	for v := 0; v < oc.n; v++ {
		p[e.inv[v]] = v
	}
	return p
}

func isAutomorphism(g *dag.DAG, p []int) bool {
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Succs(dag.NodeID(v)) {
			if !g.HasEdge(dag.NodeID(p[v]), dag.NodeID(p[w])) {
				return false
			}
		}
	}
	return true
}

// randomChainProduct returns a random product of one transversal
// element per level: a random element of the chain's group.
func randomChainProduct(oc *orbitChain, rng *rand.Rand) []int {
	p := make([]int, oc.n)
	for v := range p {
		p[v] = v
	}
	for _, lv := range oc.levels {
		rank := rng.Intn(bits.OnesCount64(lv.orbit))
		t := elemPerm(oc, &oc.elems[lv.first+rank])
		for v := range p {
			p[v] = t[p[v]]
		}
	}
	return p
}

// permuteKey moves every node's colours from v to p[v].
func permuteKey(key []uint64, p []int) []uint64 {
	out := make([]uint64, 3)
	for c := 0; c < 3; c++ {
		for w := key[c]; w != 0; w &= w - 1 {
			v := bits.TrailingZeros64(w)
			out[c] |= 1 << uint(p[v])
		}
	}
	return out
}

// randomState returns the packed key of a state reached by a random walk
// of legal base-model moves.
func randomState(g *dag.DAG, rng *rand.Rand, steps int) []uint64 {
	st, err := pebble.NewState(g, pebble.NewModel(pebble.Base), g.MaxInDegree()+2, pebble.Convention{})
	if err != nil {
		panic(err)
	}
	kinds := []pebble.MoveKind{pebble.Compute, pebble.Load, pebble.Store, pebble.Delete}
	var legal []pebble.Move
	for s := 0; s < steps; s++ {
		legal = legal[:0]
		for v := 0; v < g.N(); v++ {
			for _, k := range kinds {
				if m := (pebble.Move{Kind: k, Node: dag.NodeID(v)}); st.CanApply(m) {
					legal = append(legal, m)
				}
			}
		}
		if len(legal) == 0 {
			break
		}
		st.MustApply(legal[rng.Intn(len(legal))])
	}
	return st.AppendPacked(nil)
}

// checkCanon runs the canon properties on one state: the image is
// invariant under a random group element, and canonPerm's permutation
// is an automorphism carrying the state onto the image.
func checkCanon(t *testing.T, g *dag.DAG, oc *orbitChain, x []uint64, rng *rand.Rand) {
	t.Helper()
	s := new(orbitScratch)
	cx := oc.canon(s, nil, x)
	sigma := randomChainProduct(oc, rng)
	if cy := oc.canon(s, nil, permuteKey(x, sigma)); !orbitKeyEqual(cx, cy) {
		t.Fatalf("canon(σx) = %x, canon(x) = %x", cy, cx)
	}
	perm := make([]int, oc.n)
	img := oc.canonPerm(newTrackScratch(), x, perm)
	if !orbitKeyEqual(img[:], cx) {
		t.Fatalf("canonPerm image %x != canon %x", img, cx)
	}
	if !isAutomorphism(g, perm) {
		t.Fatalf("canonPerm returned a non-automorphism %v", perm)
	}
	if got := permuteKey(x, perm); !orbitKeyEqual(got, cx) {
		t.Fatalf("perm carries x to %x, want canon %x", got, cx)
	}
}

// TestOrbitCanonInvariance: canon(σ(x)) == canon(x) for random reachable
// states x and random chain products σ, and the recovered permutation
// maps x onto canon(x).
func TestOrbitCanonInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range orbitGraphs() {
		g := relabeledDAG(tc.g, rng.Perm(tc.g.N()))
		oc := buildOrbitChain(g)
		for trial := 0; trial < 60; trial++ {
			checkCanon(t, g, oc, randomState(g, rng, rng.Intn(3*g.N())), rng)
		}
	}
}

// FuzzOrbitCanon drives the canon properties over random relabelings,
// states and group elements of the symmetric families.
func FuzzOrbitCanon(f *testing.F) {
	for i := range orbitGraphs() {
		f.Add(uint8(i), int64(i), uint8(10*i))
	}
	graphs := orbitGraphs()
	f.Fuzz(func(t *testing.T, which uint8, seed int64, steps uint8) {
		rng := rand.New(rand.NewSource(seed))
		tc := graphs[int(which)%len(graphs)]
		g := relabeledDAG(tc.g, rng.Perm(tc.g.N()))
		oc := buildOrbitChain(g)
		if oc == nil {
			t.Fatalf("%s: no chain", tc.name)
		}
		checkCanon(t, g, oc, randomState(g, rng, int(steps)), rng)
	})
}

// BenchmarkOrbitCanon measures the canon kernel on random reachable
// states; it must report 0 allocs/op.
func BenchmarkOrbitCanon(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    *dag.DAG
	}{
		{"fft3", daggen.FFT(3)},
		{"matmul2", daggen.MatMul(2)},
		{"pyramid6", daggen.Pyramid(6)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			oc := buildOrbitChain(tc.g)
			states := make([][]uint64, 256)
			for i := range states {
				states[i] = randomState(tc.g, rng, rng.Intn(3*tc.g.N()))
			}
			s := new(orbitScratch)
			dst := make([]uint64, 0, 3)
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				dst = oc.canon(s, dst[:0], states[i&255])
				i++
			}
		})
	}
}

// BenchmarkOrbitBuild measures the chain build on the orbit graphs
// under a fixed relabeling, and on the stress case binary tree(6).
func BenchmarkOrbitBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range append(orbitGraphs(), orbitGraph{"tree6", daggen.BinaryTree(6), 0}) {
		g := relabeledDAG(tc.g, rng.Perm(tc.g.N()))
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				buildOrbitChain(g)
			}
		})
	}
}
