package instcache

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"

	"rbpebble/internal/dag"
	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
)

// routeGraphs are the graphs the route tests run on: the repo
// benchmark's hit-relabel pool and exact-cold corpus, and one graph
// above canonMaxN, whose cache key uses the identity labeling and so
// is not relabeling-invariant.
func routeGraphs() []canonGraph {
	big := daggen.Grid(25, 25)
	if big.N() <= canonMaxN {
		panic("route test graph is not above canonMaxN")
	}
	return []canonGraph{
		{"pyramid(20)", daggen.Pyramid(20)},
		{"grid(15,15)", daggen.Grid(15, 15)},
		{"fft(5)", daggen.FFT(5)},
		{"fft(6)", daggen.FFT(6)},
		{"matmul(4)", daggen.MatMul(4)},
		{"randomLayered(20,20,2,20)", daggen.RandomLayered(20, 20, 2, 20)},
		{"stencil1D(20,20)", daggen.Stencil1D(20, 20)},
		{"binaryTree(8)", daggen.BinaryTree(8)},
		{"pyramid(4)", daggen.Pyramid(4)},
		{"pyramid(5)", daggen.Pyramid(5)},
		{"pyramid(6)", daggen.Pyramid(6)},
		{"grid(4,4)", daggen.Grid(4, 4)},
		{"grid(5,5)", daggen.Grid(5, 5)},
		{"matmul(2)", daggen.MatMul(2)},
		{"stencil1D(6,4)", daggen.Stencil1D(6, 4)},
		{"fft(2)", daggen.FFT(2)},
		{"fft(3)", daggen.FFT(3)},
		{"grid(25,25)", big},
	}
}

// TestRouteInvariant: relabeled copies of an instance share its route
// token, including a graph too large for the canonical search.
func TestRouteInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, cg := range routeGraphs() {
		in := Instance{G: cg.g, Model: pebble.NewModel(pebble.Oneshot), R: 4}
		want := in.Route()
		for trial := 0; trial < 5; trial++ {
			h := relabel(cg.g, randPerm(cg.g.N(), rng))
			if got := (Instance{G: h, Model: in.Model, R: in.R}).Route(); got != want {
				t.Fatalf("%s: route %s changed to %s under relabeling (trial %d)", cg.name, want, got, trial)
			}
		}
	}
}

// TestRouteSeparates: the route token is not a constant. The test
// graphs are pairwise non-isomorphic and get distinct tokens, and each
// cost parameter moves the token.
func TestRouteSeparates(t *testing.T) {
	seen := map[string]string{}
	for _, cg := range routeGraphs() {
		r := Instance{G: cg.g, Model: pebble.NewModel(pebble.Oneshot), R: 4}.Route()
		if other, dup := seen[r]; dup {
			t.Fatalf("%s and %s share route %s", cg.name, other, r)
		}
		seen[r] = cg.name
	}
	g := daggen.Pyramid(5)
	routes := map[string]bool{}
	for _, in := range []Instance{
		{G: g, Model: pebble.NewModel(pebble.Oneshot), R: 3},
		{G: g, Model: pebble.NewModel(pebble.Oneshot), R: 4},
		{G: g, Model: pebble.NewModel(pebble.Base), R: 3},
		{G: g, Model: pebble.NewModel(pebble.NoDel), R: 3},
		{G: g, Model: pebble.Model{Kind: pebble.CompCost, EpsDenom: 100}, R: 3},
		{G: g, Model: pebble.Model{Kind: pebble.CompCost, EpsDenom: 10}, R: 3},
		{G: g, Model: pebble.NewModel(pebble.Oneshot), R: 3, Convention: pebble.Convention{SourcesStartBlue: true}},
		{G: g, Model: pebble.NewModel(pebble.Oneshot), R: 3, Convention: pebble.Convention{SinksMustBeBlue: true}},
	} {
		r := in.Route()
		if routes[r] {
			t.Fatalf("%+v: route %s repeats another parameter set's", in, r)
		}
		routes[r] = true
	}
}

// FuzzRouteInvariance: any parsed DAG keeps its route token under a
// relabeling derived from the input bytes.
func FuzzRouteInvariance(f *testing.F) {
	seedGraph := func(g *dag.DAG, seed int64) {
		var buf bytes.Buffer
		if err := g.WriteText(&buf); err == nil {
			f.Add(buf.Bytes(), seed)
		}
	}
	seedGraph(daggen.Pyramid(3), 1)
	seedGraph(daggen.FFT(2), 2)
	seedGraph(daggen.Chain(5), 3)
	seedGraph(daggen.Grid(3, 3), 4)
	seedGraph(daggen.MatMul(2), 5)
	seedGraph(daggen.RandomLayered(3, 4, 2, 9), 6)
	seedGraph(withTwins(daggen.RandomLayered(3, 3, 2, 4), 3, 4), 7)
	f.Add([]byte("nodes 3\nedge 0 2\nedge 1 2\n"), int64(8))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		// ReadText allocates the declared node count up front: skip
		// oversized declarations before parsing.
		if fields := bytes.Fields(data); len(fields) < 2 || string(fields[0]) != "nodes" {
			return
		} else if n, err := strconv.Atoi(string(fields[1])); err != nil || n > 256 {
			return
		}
		g, err := dag.ReadText(bytes.NewReader(data))
		if err != nil || g.N() > 256 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		model := pebble.Model{Kind: pebble.ModelKind(rng.Intn(4)), EpsDenom: 2 + rng.Intn(200)}
		conv := pebble.Convention{SourcesStartBlue: rng.Intn(2) == 0, SinksMustBeBlue: rng.Intn(2) == 0}
		in := Instance{G: g, Model: model, R: 1 + rng.Intn(8), Convention: conv}
		h := relabel(g, randPerm(g.N(), rng))
		if a, b := in.Route(), (Instance{G: h, Model: in.Model, R: in.R, Convention: conv}).Route(); a != b {
			t.Fatalf("route not invariant under relabeling (n=%d): %s vs %s", g.N(), a, b)
		}
	})
}
