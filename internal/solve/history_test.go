package solve

import (
	"fmt"
	"slices"
	"testing"

	"rbpebble/internal/dag"
	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
)

// TestHistoryQuotientMatchesReference checks that dropping the computed
// plane from the table keys outside oneshot keeps every optimum: serial
// A* and 2-worker HDA* must both match the HeuristicOff Dijkstra, which
// keys its table by the full (red, blue, computed) state.
func TestHistoryQuotientMatchesReference(t *testing.T) {
	graphs := []struct {
		name string
		g    *dag.DAG
	}{
		{"fft2", daggen.FFT(2)},
		{"pyramid3", daggen.Pyramid(3)},
		{"grid3x3", daggen.Grid(3, 3)},
		{"2xpyramid2", disjointUnion(daggen.Pyramid(2), daggen.Pyramid(2))},
	}
	models := []pebble.Model{
		pebble.NewModel(pebble.Base),
		{Kind: pebble.CompCost, EpsDenom: 100},
		{Kind: pebble.CompCost, EpsDenom: 7},
		pebble.NewModel(pebble.NoDel),
	}
	convs := []pebble.Convention{{}, {SourcesStartBlue: true, SinksMustBeBlue: true}}
	for _, gc := range graphs {
		for _, m := range models {
			for _, conv := range convs {
				p := Problem{G: gc.g, Model: m, R: 3, Convention: conv}
				t.Run(fmt.Sprintf("%s/%s/%+v", gc.name, m, conv), func(t *testing.T) {
					t.Parallel()
					ref, err := Exact(p, ExactOptions{Heuristic: HeuristicOff})
					if err != nil {
						t.Fatal(err)
					}
					want := ref.Result.Cost.Scaled(m)
					for _, par := range []int{1, 2} {
						sol, err := Exact(p, ExactOptions{Parallel: par})
						if err != nil {
							t.Fatalf("parallel=%d: %v", par, err)
						}
						if got := sol.Result.Cost.Scaled(m); got != want {
							t.Fatalf("parallel=%d: optimum %d, reference %d", par, got, want)
						}
					}
				})
			}
		}
	}
}

// TestHistoryKeyDropsComputedPlane pins the key rule on pyramid(2)
// (sources 0 and 1, sink 2): the state reached by computing source 0,
// deleting it and computing source 1 differs from a direct compute of 1
// only in its computed plane. Outside oneshot the two share one table
// key; in oneshot, and in the HeuristicOff reference search, they do
// not.
func TestHistoryKeyDropsComputedPlane(t *testing.T) {
	g := daggen.Pyramid(2)
	detour := []pebble.Move{{Kind: pebble.Compute, Node: 0}, {Kind: pebble.Delete, Node: 0}, {Kind: pebble.Compute, Node: 1}}
	direct := []pebble.Move{{Kind: pebble.Compute, Node: 1}}
	for _, tc := range []struct {
		model pebble.Model
		opts  ExactOptions
		share bool
	}{
		{pebble.NewModel(pebble.Base), ExactOptions{}, true},
		{pebble.NewModel(pebble.CompCost), ExactOptions{}, true},
		{pebble.NewModel(pebble.Oneshot), ExactOptions{}, false},
		{pebble.NewModel(pebble.Base), ExactOptions{Heuristic: HeuristicOff}, false},
		{pebble.NewModel(pebble.Base), ExactOptions{DisablePruning: true}, false},
	} {
		p := Problem{G: g, Model: tc.model, R: 3}
		keyAfter := func(moves []pebble.Move) pebble.PackedKey {
			st, err := pebble.NewState(g, p.Model, p.R, p.Convention)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range moves {
				st.MustApply(m)
			}
			c := newSearchCtx(p, tc.opts, st)
			return slices.Clone(c.tableKey(st.AppendPacked(nil)))
		}
		a, b := keyAfter(detour), keyAfter(direct)
		if got := slices.Equal(a, b); got != tc.share {
			t.Errorf("%s heuristic=%v pruning-off=%v: keys %x and %x shared=%v, want %v",
				tc.model, tc.opts.Heuristic, tc.opts.DisablePruning, a, b, got, tc.share)
		}
	}
}

// TestHistoryQuotientPyramid4Base pins the base-model search the
// projection was built for: pyramid(4) R=4 base solves at optimum 4
// within 40,000 expansions (274,393 with the computed plane in the key).
func TestHistoryQuotientPyramid4Base(t *testing.T) {
	p := Problem{G: daggen.Pyramid(4), Model: pebble.NewModel(pebble.Base), R: 4}
	var stats ExactStats
	sol, err := Exact(p, ExactOptions{Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.Result.Cost.Scaled(p.Model); got != 4 {
		t.Fatalf("optimum %d, want 4", got)
	}
	if stats.Expanded > 40_000 {
		t.Fatalf("expanded %d states, want <= 40,000", stats.Expanded)
	}
}
