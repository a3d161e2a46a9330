package solve

import (
	"testing"

	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
)

// TestAStarMatchesDijkstra is the admissibility regression guard: with
// the heuristic on, Exact must return costs identical to heuristic-off
// Dijkstra on small DAGs, across all four models and every convention
// combination. An inadmissible lower bound (or an unsafe dead-state or
// dead-pebble rule) would show up here as a cost mismatch.
func TestAStarMatchesDijkstra(t *testing.T) {
	instances := []struct {
		name string
		p    Problem
	}{}
	conventions := []pebble.Convention{
		{},
		{SourcesStartBlue: true},
		{SinksMustBeBlue: true},
		{SourcesStartBlue: true, SinksMustBeBlue: true},
	}
	for seed := int64(0); seed < 4; seed++ {
		g := daggen.RandomLayered(3, 3, 2, seed)
		r := pebble.MinFeasibleR(g)
		for _, kind := range pebble.AllKinds() {
			m := pebble.NewModel(kind)
			for _, conv := range conventions {
				instances = append(instances, struct {
					name string
					p    Problem
				}{
					name: "layered/" + m.String() + "/" + convName(conv),
					p:    Problem{G: g, Model: m, R: r, Convention: conv},
				})
			}
		}
	}
	extra := []struct {
		name string
		p    Problem
	}{
		{"pyramid3", Problem{G: daggen.Pyramid(3), Model: pebble.NewModel(pebble.Oneshot), R: 3}},
		{"grid33", Problem{G: daggen.Grid(3, 3), Model: pebble.NewModel(pebble.Base), R: 3}},
		{"fft2", Problem{G: daggen.FFT(2), Model: pebble.NewModel(pebble.CompCost), R: 3}},
	}
	instances = append(instances, extra...)

	for _, in := range instances {
		var sOff ExactStats
		dijkstra, err := Exact(in.p, ExactOptions{Heuristic: HeuristicOff, Stats: &sOff})
		if err != nil {
			t.Fatalf("%s: Dijkstra: %v", in.name, err)
		}
		d := dijkstra.Result.Cost.Scaled(in.p.Model)
		for _, tier := range []Heuristic{HeuristicLowerBound, HeuristicSPartition} {
			var sOn ExactStats
			astar, err := Exact(in.p, ExactOptions{Heuristic: tier, Stats: &sOn})
			if err != nil {
				t.Fatalf("%s: A* (%s): %v", in.name, tier, err)
			}
			a := astar.Result.Cost.Scaled(in.p.Model)
			if a != d {
				t.Errorf("%s: A* (%s) cost %d != Dijkstra cost %d (inadmissible heuristic or unsafe prune)",
					in.name, tier, a, d)
			}
			if sOn.Expanded > sOff.Expanded {
				// Not a strict invariant of A*, but with an admissible bound
				// and this tie-breaking a blow-up signals a regression.
				t.Logf("%s: A* (%s) expanded %d > Dijkstra %d", in.name, tier, sOn.Expanded, sOff.Expanded)
			}
		}
	}
}

// TestSPartitionAdmissibleStress hammers the S-partition tier (packing,
// pair constraints and the arrival term) against plain Dijkstra on
// random triangular DAGs at R = Δ+1 and Δ+2 — the regime where the
// full-event certificates are dense — across all models and
// conventions.
func TestSPartitionAdmissibleStress(t *testing.T) {
	conventions := []pebble.Convention{
		{},
		{SourcesStartBlue: true},
		{SinksMustBeBlue: true},
		{SourcesStartBlue: true, SinksMustBeBlue: true},
	}
	for seed := int64(0); seed < 20; seed++ {
		g := daggen.RandomTriangular(7, 0.35, seed)
		for _, dr := range []int{0, 1} {
			r := pebble.MinFeasibleR(g) + dr
			for _, conv := range conventions {
				for _, kind := range pebble.AllKinds() {
					p := Problem{G: g, Model: pebble.NewModel(kind), R: r, Convention: conv}
					a, err1 := Exact(p, ExactOptions{Heuristic: HeuristicSPartition})
					d, err2 := Exact(p, ExactOptions{Heuristic: HeuristicOff})
					if (err1 == nil) != (err2 == nil) {
						t.Fatalf("seed %d r %d %v %s: error mismatch %v vs %v",
							seed, r, kind, convName(conv), err1, err2)
					}
					if err1 != nil {
						continue
					}
					if a.Result.Cost.Scaled(p.Model) != d.Result.Cost.Scaled(p.Model) {
						t.Fatalf("seed %d r %d %v %s: s-partition %v != dijkstra %v",
							seed, r, kind, convName(conv), a.Result.Cost, d.Result.Cost)
					}
				}
			}
		}
	}
}

// TestSPartitionShrinksPyramidSearch guards the PR's headline bound
// improvement: on the pyramid at R = Δ+1 the S-partition tier must
// expand at least 3x fewer states than the single-certificate PR 1
// bound, at the identical proven optimum.
func TestSPartitionShrinksPyramidSearch(t *testing.T) {
	p := Problem{G: daggen.Pyramid(5), Model: pebble.NewModel(pebble.Oneshot), R: 3}
	var sLB, sSP ExactStats
	lb, err := Exact(p, ExactOptions{Heuristic: HeuristicLowerBound, Stats: &sLB})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Exact(p, ExactOptions{Heuristic: HeuristicSPartition, Stats: &sSP})
	if err != nil {
		t.Fatal(err)
	}
	if lb.Result.Cost != sp.Result.Cost {
		t.Fatalf("cost mismatch: lb %v, s-partition %v", lb.Result.Cost, sp.Result.Cost)
	}
	if sSP.Expanded*3 > sLB.Expanded {
		t.Fatalf("s-partition expanded %d, want <= 1/3 of lower-bound's %d", sSP.Expanded, sLB.Expanded)
	}
}

// TestParallelMatchesSerial checks that hash-sharded parallel expansion
// proves the same optimal cost as the sequential search, on random
// layered DAGs and on the symmetric DAGs whose shards hash orbit keys.
func TestParallelMatchesSerial(t *testing.T) {
	var inputs []Problem
	for seed := int64(0); seed < 4; seed++ {
		g := daggen.RandomLayered(3, 3, 2, seed)
		r := pebble.MinFeasibleR(g)
		for _, kind := range []pebble.ModelKind{pebble.Base, pebble.Oneshot, pebble.NoDel} {
			inputs = append(inputs, Problem{G: g, Model: pebble.NewModel(kind), R: r})
		}
	}
	for _, tc := range symmetricCases() {
		for _, kind := range []pebble.ModelKind{pebble.Base, pebble.Oneshot, pebble.NoDel} {
			if kind != pebble.Base || tc.g.N() <= 12 {
				inputs = append(inputs, Problem{G: tc.g, Model: pebble.NewModel(kind), R: 3})
			}
		}
	}
	for i, p := range inputs {
		serial, err := Exact(p, ExactOptions{})
		if err != nil {
			t.Fatalf("input %d %v serial: %v", i, p.Model.Kind, err)
		}
		for _, workers := range []int{2, 4} {
			par, err := Exact(p, ExactOptions{Parallel: workers})
			if err != nil {
				t.Fatalf("input %d %v parallel(%d): %v", i, p.Model.Kind, workers, err)
			}
			if par.Result.Cost.Scaled(p.Model) != serial.Result.Cost.Scaled(p.Model) {
				t.Errorf("input %d %v parallel(%d): cost %v != serial %v",
					i, p.Model.Kind, workers, par.Result.Cost, serial.Result.Cost)
			}
		}
	}
}

// TestParallelStateLimit checks the budget error surfaces from the
// sharded search too.
func TestParallelStateLimit(t *testing.T) {
	g := daggen.Pyramid(3)
	_, err := Exact(Problem{G: g, Model: pebble.NewModel(pebble.Base), R: 3},
		ExactOptions{MaxStates: 5, Parallel: 2})
	if err == nil {
		t.Fatal("want ErrStateLimit")
	}
}

// TestExactStatsPopulated checks the stats out-parameter.
func TestExactStatsPopulated(t *testing.T) {
	var st ExactStats
	g := daggen.Pyramid(2)
	_, err := Exact(Problem{G: g, Model: pebble.NewModel(pebble.Oneshot), R: 3},
		ExactOptions{Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if st.Expanded <= 0 || st.Pushed <= 0 || st.Distinct <= 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

func convName(c pebble.Convention) string {
	switch {
	case c.SourcesStartBlue && c.SinksMustBeBlue:
		return "srcBlue+sinkBlue"
	case c.SourcesStartBlue:
		return "srcBlue"
	case c.SinksMustBeBlue:
		return "sinkBlue"
	default:
		return "default"
	}
}
