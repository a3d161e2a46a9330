package instcache

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rbpebble/internal/dag"
	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
	"rbpebble/internal/solve"
)

// relabel returns a copy of g with node v renamed to perm[v].
func relabel(g *dag.DAG, perm []dag.NodeID) *dag.DAG {
	h := dag.New(g.N())
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Succs(dag.NodeID(v)) {
			h.AddEdge(perm[v], perm[w])
		}
	}
	return h
}

func randPerm(n int, rng *rand.Rand) []dag.NodeID {
	p := make([]dag.NodeID, n)
	for i, v := range rng.Perm(n) {
		p[i] = dag.NodeID(v)
	}
	return p
}

// TestCanonicalInvariance: relabeled copies of a graph get the same
// digest, and the permutations map both onto the same canonical graph.
// The serving-size graphs exhaust canonBudget, where a budget-cut
// labeling could come to depend on the input numbering.
func TestCanonicalInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	graphs := append([]canonGraph{
		{"pyramid4", daggen.Pyramid(4)},
		{"fft2", daggen.FFT(2)},
		{"chain9", daggen.Chain(9)},
		{"tree3", daggen.BinaryTree(3)},
		{"grid33", daggen.Grid(3, 3)},
		{"layered", daggen.RandomLayered(3, 4, 2, 5)},
		{"singleton", dag.New(1)},
	}, servingGraphs()...)
	for _, cg := range graphs {
		name, g := cg.name, cg.g
		d0, perm0 := Canonical(g)
		if len(perm0) != g.N() {
			t.Fatalf("%s: perm length %d != n %d", name, len(perm0), g.N())
		}
		seen := make([]bool, g.N())
		for _, c := range perm0 {
			if int(c) >= g.N() || seen[c] {
				t.Fatalf("%s: perm is not a permutation", name)
			}
			seen[c] = true
		}
		for trial := 0; trial < 5; trial++ {
			perm := randPerm(g.N(), rng)
			h := relabel(g, perm)
			d1, perm1 := Canonical(h)
			if d0 != d1 {
				t.Fatalf("%s: digest changed under relabeling (trial %d)", name, trial)
			}
			if !sameGraph(relabel(g, perm0), relabel(h, perm1)) {
				t.Fatalf("%s: permutations map onto different canonical graphs (trial %d)", name, trial)
			}
		}
	}
}

// sameGraph reports whether a and b have identical edge sets.
func sameGraph(a, b *dag.DAG) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for v := 0; v < a.N(); v++ {
		if !slices.Equal(a.SortedPreds(dag.NodeID(v)), b.SortedPreds(dag.NodeID(v))) {
			return false
		}
	}
	return true
}

// TestCanonicalDistinguishes: structurally different graphs get
// different digests.
func TestCanonicalDistinguishes(t *testing.T) {
	// Note Grid(2,3) and Grid(3,2) are deliberately absent: the stencil
	// grid is transpose-symmetric, so they are isomorphic and SHOULD
	// share a digest (the invariance test covers that direction).
	gs := []*dag.DAG{
		daggen.Pyramid(3), daggen.Pyramid(4), daggen.Chain(6), daggen.Chain(7),
		daggen.FFT(2), daggen.Grid(2, 3), daggen.Grid(2, 4), daggen.BinaryTree(3),
		daggen.Stencil1D(4, 2), daggen.MatMul(2),
	}
	seen := map[[32]byte]int{}
	for i, g := range gs {
		d, _ := Canonical(g)
		if j, dup := seen[d]; dup {
			t.Fatalf("graphs %d and %d share a digest", i, j)
		}
		seen[d] = i
	}
}

// TestKeySeparatesParameters: same graph, different model/R/convention
// must produce different keys.
func TestKeySeparatesParameters(t *testing.T) {
	g := daggen.Pyramid(3)
	keys := map[string]bool{}
	for _, in := range []Instance{
		{G: g, Model: pebble.NewModel(pebble.Oneshot), R: 3},
		{G: g, Model: pebble.NewModel(pebble.Oneshot), R: 4},
		{G: g, Model: pebble.NewModel(pebble.Base), R: 3},
		{G: g, Model: pebble.NewModel(pebble.CompCost), R: 3},
		{G: g, Model: pebble.NewModel(pebble.Oneshot), R: 3,
			Convention: pebble.Convention{SinksMustBeBlue: true}},
	} {
		k, _ := in.Key()
		if keys[k] {
			t.Fatalf("duplicate key %q", k)
		}
		keys[k] = true
	}
}

// TestTranslationRoundTrip solves a canonical instance, stores the
// trace canonically, and replays it on a relabeled copy through
// FromCanonical — the cached solution must be valid (and optimal) for
// the relabeled instance.
func TestTranslationRoundTrip(t *testing.T) {
	g := daggen.Pyramid(4)
	model := pebble.NewModel(pebble.Oneshot)
	sol, err := solve.Exact(solve.Problem{G: g, Model: model, R: 3}, solve.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, perm := Canonical(g)
	canonMoves := ToCanonical(sol.Trace.Moves, perm)

	rng := rand.New(rand.NewSource(7))
	rp := randPerm(g.N(), rng)
	h := relabel(g, rp)
	_, hperm := Canonical(h)
	tr := &pebble.Trace{Model: model, R: 3, Convention: pebble.Convention{},
		Moves: FromCanonical(canonMoves, hperm)}
	res, err := tr.Run(h)
	if err != nil {
		t.Fatalf("translated trace does not replay on the relabeled graph: %v", err)
	}
	if res.Cost != sol.Result.Cost {
		t.Fatalf("translated cost %v != original %v", res.Cost, sol.Result.Cost)
	}
}

// TestCacheLRUAndStats exercises hit/miss/eviction accounting.
func TestCacheLRUAndStats(t *testing.T) {
	c := New(2)
	get := func(key string) (Value, bool) {
		v, hit, _, _, err := c.Do(context.Background(), key, 5, func(*Value) (Value, error) {
			return Value{UpperScaled: 1, LowerScaled: 1, Optimal: true}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v, hit
	}
	if _, hit := get("a"); hit {
		t.Fatal("first lookup hit")
	}
	if _, hit := get("a"); !hit {
		t.Fatal("second lookup missed")
	}
	get("b")
	get("c") // evicts a
	if _, hit := get("a"); hit {
		t.Fatal("evicted entry still hit")
	}
	st := c.Stats()
	if st.Evictions == 0 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want evictions > 0 and 2 entries", st)
	}
}

// TestIntervalTierLifecycle covers the deadline-limited interval path:
// same-tier repeats warm-start a fresh solve (and tighten), lower-tier
// requests are served a higher tier's interval directly, and a merged
// interval that closes is promoted to the optimal segment.
func TestIntervalTierLifecycle(t *testing.T) {
	c := New(8)
	do := func(tier int, fn func(warm *Value) (Value, error)) (Value, bool, bool) {
		v, hit, _, warmed, err := c.Do(context.Background(), "k", tier, fn)
		if err != nil {
			t.Fatal(err)
		}
		return v, hit, warmed
	}

	// First deadline-limited solve: interval [5, 20] at tier 7.
	v, hit, warmed := do(7, func(warm *Value) (Value, error) {
		if warm != nil {
			t.Fatal("cold start got warm data")
		}
		return Value{UpperScaled: 20, LowerScaled: 5, Source: "astar"}, nil
	})
	if hit || warmed || v.UpperScaled != 20 {
		t.Fatalf("first interval solve: v=%+v hit=%v warmed=%v", v, hit, warmed)
	}

	// Same tier again: not a hit — warm-started refinement, which
	// tightens, and the caller sees the MERGED interval.
	v, hit, warmed = do(7, func(warm *Value) (Value, error) {
		if warm == nil || warm.UpperScaled != 20 || warm.LowerScaled != 5 {
			t.Fatalf("warm = %+v, want cached [5, 20]", warm)
		}
		return Value{UpperScaled: 25, LowerScaled: 9, Source: "ida*"}, nil
	})
	if hit || !warmed {
		t.Fatalf("same-tier repeat: hit=%v warmed=%v", hit, warmed)
	}
	if v.UpperScaled != 20 || v.LowerScaled != 9 {
		t.Fatalf("merged interval = [%d, %d], want [9, 20]", v.LowerScaled, v.UpperScaled)
	}

	// A lower-tier (smaller budget) request is served the stored
	// interval directly: a bigger budget already tried harder.
	v, hit, _ = do(3, func(*Value) (Value, error) {
		t.Fatal("lower-tier request must not re-solve")
		return Value{}, nil
	})
	if !hit || v.UpperScaled != 20 || v.LowerScaled != 9 {
		t.Fatalf("lower-tier serve: v=%+v hit=%v", v, hit)
	}

	// Bounds meeting across requests closes and promotes the interval.
	v, _, _ = do(7, func(warm *Value) (Value, error) {
		return Value{UpperScaled: 9, LowerScaled: 9, Source: "ida*"}, nil
	})
	if !v.Optimal {
		t.Fatalf("closed interval not promoted: %+v", v)
	}
	if _, hit, _ = do(1, func(*Value) (Value, error) { return Value{}, nil }); !hit {
		t.Fatal("promoted optimum not served as a hit")
	}
	st := c.Stats()
	if st.IntervalEntries != 0 {
		t.Fatalf("interval entries left after promotion: %+v", st)
	}
	if st.WarmStarts < 2 || st.Tightenings < 1 {
		t.Fatalf("warm/tighten counters: %+v", st)
	}
}

// TestIntervalsNeverDisplaceOptimal fills the optimal segment, then
// floods the cache with interval entries: every proven-optimal entry
// must survive, with interval entries evicting only each other.
func TestIntervalsNeverDisplaceOptimal(t *testing.T) {
	c := New(4)
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("opt-%d", i)
		c.Do(context.Background(), key, 3, func(*Value) (Value, error) {
			return Value{UpperScaled: 1, LowerScaled: 1, Optimal: true}, nil
		})
	}
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("int-%d", i)
		c.Do(context.Background(), key, 3, func(*Value) (Value, error) {
			return Value{UpperScaled: 10, LowerScaled: 2}, nil
		})
	}
	st := c.Stats()
	if st.Entries != 4 || st.Evictions != 0 {
		t.Fatalf("optimal entries displaced: %+v", st)
	}
	if st.IntervalEntries != 4 || st.IntervalEvictions != 28 {
		t.Fatalf("interval LRU accounting: %+v", st)
	}
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("opt-%d", i)
		if _, hit, _, _, _ := c.Do(context.Background(), key, 3, func(*Value) (Value, error) {
			t.Fatalf("optimal entry %s lost", key)
			return Value{}, nil
		}); !hit {
			t.Fatalf("optimal entry %s not a hit", key)
		}
	}
}

// TestTierForBudget pins the doubling-bucket tier function.
func TestTierForBudget(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{time.Millisecond, 1},
		{50 * time.Millisecond, 6},
		{100 * time.Millisecond, 7},
		{127 * time.Millisecond, 7},
		{128 * time.Millisecond, 8},
		{2 * time.Second, 11},
	} {
		if got := TierForBudget(tc.d); got != tc.want {
			t.Fatalf("TierForBudget(%s) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

// TestSingleflight: N concurrent identical requests run fn exactly
// once; the rest share the result.
func TestSingleflight(t *testing.T) {
	c := New(8)
	const n = 16
	gate := make(chan struct{})
	var calls int
	var wg sync.WaitGroup
	var mu sync.Mutex
	sharedCount := 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, shared, _, err := c.Do(context.Background(), "k", 3, func(*Value) (Value, error) {
				calls++ // safe: singleflight guarantees one caller
				<-gate
				return Value{Optimal: true}, nil
			})
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			if shared {
				sharedCount++
			}
			mu.Unlock()
		}()
	}
	// Let the requests pile onto the flight, then release it. The
	// stats-based wait avoids a racy sleep.
	for {
		st := c.Stats()
		if st.Misses >= n {
			break
		}
	}
	close(gate)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	if sharedCount != n-1 {
		t.Fatalf("%d shared flights, want %d", sharedCount, n-1)
	}
	if st := c.Stats(); st.SharedFlights != n-1 {
		t.Fatalf("stats shared = %d, want %d", st.SharedFlights, n-1)
	}
}

// FuzzCanonicalInvariance guards the canonical-key path: any parsed
// DAG must digest identically under a relabeling derived from the
// input bytes.
func FuzzCanonicalInvariance(f *testing.F) {
	seedGraph := func(g *dag.DAG) {
		var buf bytes.Buffer
		if err := g.WriteText(&buf); err == nil {
			f.Add(buf.Bytes(), int64(1))
		}
	}
	seedGraph(daggen.Pyramid(3))
	seedGraph(daggen.FFT(2))
	seedGraph(daggen.Chain(5))
	seedGraph(daggen.Grid(2, 2))
	seedGraph(daggen.RandomLayered(2, 3, 2, 9))
	f.Add([]byte("nodes 3\nedge 0 1\nedge 1 2\n"), int64(3))
	// MatMul(2) forces individualization; the two after it carry twins,
	// so their searches take the twin-pruning path.
	seedGraph(daggen.MatMul(2))
	f.Add([]byte("nodes 3\nedge 0 2\nedge 1 2\n"), int64(5))
	seedGraph(withTwins(daggen.RandomLayered(3, 3, 2, 4), 3, 4))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		// ReadText allocates the declared node count up front, so an
		// input like "nodes 444444441" runs the fuzzer out of memory:
		// skip oversized declarations before parsing.
		if fields := bytes.Fields(data); len(fields) < 2 || string(fields[0]) != "nodes" {
			return
		} else if n, err := strconv.Atoi(string(fields[1])); err != nil || n > 64 {
			return
		}
		g, err := dag.ReadText(bytes.NewReader(data))
		if err != nil || g.N() == 0 || g.N() > 64 {
			return
		}
		d0, perm0 := Canonical(g)
		if len(perm0) != g.N() {
			t.Fatalf("perm length %d != n %d", len(perm0), g.N())
		}
		rng := rand.New(rand.NewSource(seed))
		h := relabel(g, randPerm(g.N(), rng))
		d1, _ := Canonical(h)
		if d0 != d1 {
			t.Fatalf("digest not invariant under relabeling (n=%d)", g.N())
		}
	})
}

// withTwins returns a copy of g with a duplicate of each listed node:
// a new node with the same predecessors and successors.
func withTwins(g *dag.DAG, nodes ...dag.NodeID) *dag.DAG {
	h := g.Clone()
	for _, v := range nodes {
		w := h.AddNode()
		for _, u := range g.Preds(v) {
			h.AddEdge(u, w)
		}
		for _, u := range g.Succs(v) {
			h.AddEdge(w, u)
		}
	}
	return h
}

// canonGraph is one named graph of the canonical-labeling tests and
// benchmarks.
type canonGraph struct {
	name string
	g    *dag.DAG
}

// servingGraphs are hit-pool classes of the repo benchmark whose
// canonical search runs out of canonBudget: the labeling-dependence of
// a budget-exhausted search would show on them first.
func servingGraphs() []canonGraph {
	return []canonGraph{
		{"fft(5)", daggen.FFT(5)},
		{"matmul(4)", daggen.MatMul(4)},
		{"binaryTree(8)", daggen.BinaryTree(8)},
		{"randomLayered(20,20,2,20)", daggen.RandomLayered(20, 20, 2, 20)},
	}
}

// BenchmarkCanonical tracks the canonical-key cost, from a small
// symmetric instance that forces individualization up to the
// serving-size graphs of the repo benchmark's hit pool.
func BenchmarkCanonical(b *testing.B) {
	graphs := append([]canonGraph{
		{"pyramid(6)", daggen.Pyramid(6)},
		{"grid(15,15)", daggen.Grid(15, 15)},
	}, servingGraphs()...)
	for _, cg := range graphs {
		b.Run(cg.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				Canonical(cg.g)
			}
		})
	}
}

// permDigest hashes a canonical permutation as big-endian uint32s.
func permDigest(perm []dag.NodeID) string {
	var buf []byte
	for _, c := range perm {
		buf = binary.BigEndian.AppendUint32(buf, uint32(c))
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf))
}

// hasTwins reports whether two nodes of g have identical predecessor
// and successor sets.
func hasTwins(g *dag.DAG) bool {
	seen := map[string]bool{}
	for v := 0; v < g.N(); v++ {
		k := fmt.Sprint(g.SortedPreds(dag.NodeID(v)), g.SortedSuccs(dag.NodeID(v)))
		if seen[k] {
			return true
		}
		seen[k] = true
	}
	return false
}

// TestCanonicalGolden pins the canonical digest and permutation of the
// repo benchmark's graphs and of small twin-bearing graphs. The values
// were recorded from the string-signature refinement kernel without
// twin pruning, which the integer kernel replaced: a cache written
// before the change must stay addressable after it.
func TestCanonicalGolden(t *testing.T) {
	for _, tc := range []struct {
		name         string
		g            *dag.DAG
		digest, perm string
	}{
		{"pyramid(4)", daggen.Pyramid(4), "2dec5c5f1687f56a8ad9cfdb44fafe3fb09fddf541c9812010b96c44ed8ffe04", "1d5e138e59545107831909e5715364d4fd8d9986962a20d9a8b42e75de5d36d2"},
		{"pyramid(5)", daggen.Pyramid(5), "052cc8640fce849209b8dc4f98c6d8320e414e7036656a1cc2030c429046c8e3", "8b9e783c29757f214590d027b433cc3580d7034cba9f51eb150f4d4ee1bf135c"},
		{"pyramid(6)", daggen.Pyramid(6), "4d75043a38dacf988b850f1fef31c76955ed2edb0629b64ea22d16513b2c2b75", "5d760a8ffb1f59666161f980e848c25d43ced8b0a33583175c018f28899ee0ab"},
		{"grid(4,4)", daggen.Grid(4, 4), "447b8cb393ee3931e471f7192e137c09411b655ab8e82ad1bc5600aa890579fd", "0ae8dbd32e2efa96fb6663ba2e736e92e4825fc764e33ac048805e24a109f465"},
		{"grid(5,5)", daggen.Grid(5, 5), "863cce508c645c1a9243359c1081b3176f400cb963f7d20bc399ae6d51e90c2a", "569eb6920c03bf9982b2e9edb3701df3b9783fccc57120a39a5b3c697aadef95"},
		{"matmul(2)", daggen.MatMul(2), "54c4fd34087acda951c668f7a0f5231903e4da7889bf8a7661657b8f1ac1fce2", "f6ff1783beff6d91766a216bfb3192c2995f8142be5527a93cae8566df1b866f"},
		{"stencil1D(6,4)", daggen.Stencil1D(6, 4), "1168928ce09d8250c59d8e6a475d3714adc44ec03ef07b19340c6193cec0fd3e", "40517e21ce882c7cb62201af89fda1c82a804e18228ca77d973e055da9bc963a"},
		{"fft(2)", daggen.FFT(2), "e251dbd8ae78fa3dd4d6f27da5a8cee51aac050230986ca3aa2ca3a6e16489e2", "913287cd0636847cfeb6d20177f1e890d14ec8e76118d07d76e178a147f57ef5"},
		{"fft(3)", daggen.FFT(3), "efe8e1dd124800dd44a40728fa9165f36e3751fa5c08121583506931aef2033d", "b181623e22acbb5bfc36d160e73ce0c7ed117de882b32570828b72f9db1dac57"},
		{"pyramid(20)", daggen.Pyramid(20), "ec9fef45352b8000b8502adeb45d5cd1d47f5c094bd4691453e37e7ce9182ae0", "3101c86ab1bc2edbee05fd843d08c73ce034dc97db4a085d78da0733611202d8"},
		{"grid(15,15)", daggen.Grid(15, 15), "515a1cad0d832115ef87afbd50e45f45601acaf3f00cb1ef5cc6e978e8971538", "8d95643ee09246dc39116db0c65b17169b1201da49874a860f597855fca211f3"},
		{"fft(5)", daggen.FFT(5), "c79d1cb8729733d582011d203ee347d4424a51b1a82866d8870150bc42a6e331", "12380f2bc0954421cf053ecec5605bd22a04e63eb477a817a6020f42137a2536"},
		{"fft(6)", daggen.FFT(6), "b1ec783844356748499b591098bd7964a4d4b3d1187342501223a42272e6f37d", "1096182d84bd5b7541e2e3d86916219d8380aa01969e950cbdaef03387a623e2"},
		{"matmul(4)", daggen.MatMul(4), "44defe34fa7010db6a9fe315d0ce05e8f2ded6f2612bd67fbce3a59efcc8a997", "28c3ba4eceef9af43e82da3777204fdb78fbec17ac42aaeddc555661ff54c0b3"},
		{"randomLayered(20,20,2,20)", daggen.RandomLayered(20, 20, 2, 20), "6866dfb5381b21bb112430fe2982fb27ad208b34b661ae037c36713bddddd00b", "667b2d8fcd7da1b979cba7251d84890ba13e36581d7ff7518c6207b7e6ccc535"},
		{"stencil1D(20,20)", daggen.Stencil1D(20, 20), "ca7dfadcdb655e65398b3116b275f39bb3f0f7377b97395d48aa91113b06327d", "cb81ed8257bfce9007898030c24af6bfa1ca934d13805748c128a66de08e304c"},
		{"binaryTree(8)", daggen.BinaryTree(8), "bda21bd585d384bb694553b3b9660101182b3787ad1150b0f2300538a27008e4", "6eb73a3a1797a05fdb2ff04b5de26e5516b6c70513025df603c141ecce413fe1"},
		{"randomLayered(3,4,2,1)", daggen.RandomLayered(3, 4, 2, 1), "ca215b741d7ad61e4dd6870fc1f2ddf126373cc3b0164a4af0707fe967eaf047", "db470cd6dfb375a5fd8a7907063c26fb7fbea9659ffe673204679eba55d9ee28"},
		{"randomLayered(3,4,2,2)", daggen.RandomLayered(3, 4, 2, 2), "0ab586d30b75e7d4f9aab1341a31124846649e7e1694d59edcb47e6bd7b1f20a", "d0c9bc9b6d64201a6358452578311c009be7db289c756fd998a376f0ce0410a6"},
		{"randomLayered(3,4,2,3)", daggen.RandomLayered(3, 4, 2, 3), "9698cccaecca5eeb8e7bdaeacf7b7b607494fd2b89dc9053191d84e9bfe6d2da", "5348ebd55ccf746139e553f1c6637e9c5da187b4da2629ccf0c51e57fd724d00"},
		{"randomLayered(3,4,2,4)", daggen.RandomLayered(3, 4, 2, 4), "09a264e4bbac49c14be6d19139f5f7e2130e8b0c929155948bf6da7c80400972", "6c14abb33273b7056381abaf8690d7a21baf74a49b6abffc4f68351b499aeb23"},
		{"randomLayered(3,4,2,5)", daggen.RandomLayered(3, 4, 2, 5), "a72153a95b725a49da6c1bd3a796e5b08228a16843ca0e0df33488d4cbe7de31", "bff1653908b60ead5c093ccde08cf2c0bb153b483bf39dd78250ef9cdc174f8b"},
		{"randomLayered(3,4,2,6)", daggen.RandomLayered(3, 4, 2, 6), "68033261c8df6f554f09a9b1123534debdc0b0f8ccd9347b41205bcf2bdae37b", "f1028954e0af8a10700c45e4b274e6dd262b173076236247fe1c06ec8a9d515f"},
		{"randomLayered(3,4,2,7)", daggen.RandomLayered(3, 4, 2, 7), "7fc0aad3db5deb4944bd9b904ca0ccc5c22b232adeea182b34777ed68df11036", "a015f79cb8e7d64d0f94e4122ad37d3ce577c0779668c771798f52bb93d668b0"},
		{"randomLayered(3,4,2,10)", daggen.RandomLayered(3, 4, 2, 10), "f8111377616576c12633976d9cc215fc8f3bf63ba623c4ed37e0d0a573470eea", "9401e166ada18fff838a447f3cd93f3c18d86c6a4c45d1e14a6d4ae614553f8d"},
		{"randomLayered(3,4,2,12)", daggen.RandomLayered(3, 4, 2, 12), "bdfc45a583bfc33558bd325fdf301fe5a66998656433d34ac8beb71ed158dac0", "358cfec63810789472bff34acc79a2e5618ad799a8aa394e74211b3cd1d58dcc"},
		{"randomLayered(3,4,2,13)", daggen.RandomLayered(3, 4, 2, 13), "896881b99cf6697d2e848081d7b933f510da9f129b3c56ebfac8f3bb7c7e9a92", "aac39df94365556cdcce7fc2ec88e366b28eb6b43fddedb9954f8a5e48607b8a"},
		{"randomLayered(3,4,2,20)", daggen.RandomLayered(3, 4, 2, 20), "b123512be84616d7edd1be15134dd85a23f1c66d4e6c21356a6fe4424a2cc2eb", "452d3a4d546c597877ff911556bb56949d0766356f7f9fcc9d1804474b3b06e0"},
		{"randomLayered(3,4,2,21)", daggen.RandomLayered(3, 4, 2, 21), "9e9b067e7c89560f8e7ea13119db3fccabf2ab2d93e93aa1c04ce2a50ec652e7", "c3b34eba6cd5c94581c5f84cee39920f0ba1cf2b382da22e69476d376583c0f5"},
		{"randomLayered(3,4,2,23)", daggen.RandomLayered(3, 4, 2, 23), "ad90f77c3f6703a1fc360f569ce2574d636cb839adc296ebce000924f6f66f71", "7c884c39e15dfae4931fee7fbcda25f49a47b811d95ca65223c472ca55e5272c"},
		{"randomLayered(3,4,2,25)", daggen.RandomLayered(3, 4, 2, 25), "9c864936154aa2cf4a319c617d1618e4cd1baba65c508cf1f7df9711da1b55e3", "fc786a1e2f1bbdf24c6ddd722c7fac01804d639e6c0ec9c11a9341d9fce447fe"},
		{"randomLayered(3,4,2,26)", daggen.RandomLayered(3, 4, 2, 26), "fdcdb76986837a67fb5325c7cfde13f7fcc0a2b1cf7dc961a1f53dab89e5cb24", "99f13ec9aebdc501a73c5cbeaa5fa3d9866105e937a3ae2e3a7d0643c21ee67e"},
		{"randomLayered(3,4,2,27)", daggen.RandomLayered(3, 4, 2, 27), "554256b7517b194157f9139a57f01617767513e8ed9264f0b3e9d7aab12b21f7", "3713387acc38e2c2b032ae49f15f115956043bfddfb462ccf3204ddb2b2d0c96"},
	} {
		if strings.HasPrefix(tc.name, "randomLayered(3,") && !hasTwins(tc.g) {
			t.Fatalf("%s: expected a twin-bearing graph", tc.name)
		}
		d, perm := Canonical(tc.g)
		if got := fmt.Sprintf("%x", d); got != tc.digest {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.digest)
		}
		if got := permDigest(perm); got != tc.perm {
			t.Errorf("%s: perm digest %s, want %s", tc.name, got, tc.perm)
		}
	}
}

// TestSingleflightWaitHonorsContext: a waiter with an expired context
// gives up instead of inheriting the leader's budget.
func TestSingleflightWaitHonorsContext(t *testing.T) {
	c := New(8)
	gate := make(chan struct{})
	leaderRunning := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, _, _, err := c.Do(context.Background(), "k", 3, func(*Value) (Value, error) {
			close(leaderRunning)
			<-gate
			return Value{Optimal: true}, nil
		})
		done <- err
	}()
	<-leaderRunning
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, shared, _, err := c.Do(ctx, "k", 3, func(*Value) (Value, error) {
		t.Error("waiter must not run fn")
		return Value{}, nil
	})
	if !shared || !errors.Is(err, context.Canceled) {
		t.Fatalf("shared=%v err=%v, want shared wait aborted by context", shared, err)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("leader failed: %v", err)
	}
	// The completed optimal result is cached despite the waiter bailing.
	if _, hit, _, _, _ := c.Do(context.Background(), "k", 3, func(*Value) (Value, error) { return Value{}, nil }); !hit {
		t.Fatal("leader result not cached")
	}
}

// TestCanonicalBoundedCost guards the serving request path against the
// canonical-labeling blowup: path-like graphs inside the canonMaxN
// window refine to discrete without individualization, and graphs
// beyond it take the representation-exact fast path. (Before the size
// cap, chain(4000) took seconds in the recursion.)
func TestCanonicalBoundedCost(t *testing.T) {
	for _, n := range []int{500, 4000, 50000} {
		start := time.Now()
		Canonical(daggen.Chain(n))
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("Canonical(chain(%d)) took %s", n, d)
		}
	}
}

// TestPanickingSolveDoesNotPoisonKey: a panic inside fn frees waiters
// with an error, propagates, and leaves the key usable.
func TestPanickingSolveDoesNotPoisonKey(t *testing.T) {
	c := New(8)
	leaderRunning := make(chan struct{})
	release := make(chan struct{})
	waiterErr := make(chan error, 1)
	go func() {
		<-leaderRunning
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _, _, _, err := c.Do(ctx, "k", 3, func(*Value) (Value, error) { return Value{}, nil })
		waiterErr <- err
	}()
	go func() {
		// Release the leader's panic only once the waiter has latched
		// onto the flight, so the waiter provably waits on teardown.
		for c.Stats().SharedFlights == 0 {
			time.Sleep(time.Millisecond)
		}
		close(release)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate")
			}
		}()
		c.Do(context.Background(), "k", 3, func(*Value) (Value, error) {
			close(leaderRunning)
			<-release
			panic("solver bug")
		})
	}()
	if err := <-waiterErr; err == nil {
		t.Fatal("waiter got nil error from panicked flight")
	}
	// The key recovers: a fresh request runs fn again.
	v, hit, shared, _, err := c.Do(context.Background(), "k", 3, func(*Value) (Value, error) {
		return Value{UpperScaled: 1, LowerScaled: 1, Optimal: true}, nil
	})
	if err != nil || hit || shared || !v.Optimal {
		t.Fatalf("key did not recover: v=%+v hit=%v shared=%v err=%v", v, hit, shared, err)
	}
}

// TestConcurrentIsomorphicRequests is the satellite race scenario: many
// goroutines, each holding a DIFFERENT random relabeling of the same
// instance, compute canonical keys and hit the cache concurrently at
// mixed budget tiers. Exactly one solve may run per generation of the
// interval (singleflight), every caller must end with a coherent
// interval, and the proven-optimal entry planted for a second instance
// must survive the interval churn. Run under -race in CI.
func TestConcurrentIsomorphicRequests(t *testing.T) {
	base := daggen.Pyramid(4)
	model := pebble.NewModel(pebble.Oneshot)
	c := New(4)

	// Plant a proven-optimal entry for a different instance; the
	// concurrent interval traffic below must never evict it.
	optKey, _ := Instance{G: daggen.FFT(2), Model: model, R: 4}.Key()
	c.Do(context.Background(), optKey, 3, func(*Value) (Value, error) {
		return Value{UpperScaled: 7, LowerScaled: 7, Optimal: true}, nil
	})

	rng := rand.New(rand.NewSource(99))
	const n = 24
	copies := make([]*dag.DAG, n)
	for i := range copies {
		copies[i] = relabel(base, randPerm(base.N(), rng))
	}

	var solves atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inst := Instance{G: copies[i], Model: model, R: 3}
			key, _ := inst.Key()
			tier := 5 + i%3
			v, _, _, _, err := c.Do(context.Background(), key, tier, func(warm *Value) (Value, error) {
				solves.Add(1)
				lo, hi := int64(4), int64(16)
				if warm != nil {
					lo, hi = warm.LowerScaled+1, warm.UpperScaled
				}
				return Value{UpperScaled: hi, LowerScaled: lo, Source: "test"}, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if v.LowerScaled > v.UpperScaled || v.UpperScaled > 16 || v.LowerScaled < 4 {
				t.Errorf("incoherent interval [%d, %d]", v.LowerScaled, v.UpperScaled)
			}
		}(i)
	}
	wg.Wait()

	// All 24 isomorphic relabelings funneled into one key: far fewer
	// solves than requests (each non-shared, non-hit request tightens
	// the shared interval monotonically).
	if got := solves.Load(); got >= n {
		t.Fatalf("no deduplication: %d solves for %d isomorphic requests", got, n)
	}
	if _, hit, _, _, _ := c.Do(context.Background(), optKey, 3, func(*Value) (Value, error) {
		return Value{}, nil
	}); !hit {
		t.Fatal("interval churn evicted the proven-optimal entry")
	}
	st := c.Stats()
	if st.Evictions != 0 {
		t.Fatalf("optimal-segment evictions under interval churn: %+v", st)
	}
}
